"""The package namespace exports exactly the public API that README.md documents."""

import pathlib
import re

import cfsearch

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_and_is_documented():
    text = README.read_text(encoding="utf-8")
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", text))
    assert len(cfsearch.__all__) == len(set(cfsearch.__all__))
    for name in cfsearch.__all__:
        assert getattr(cfsearch, name) is not None
        assert name in documented, f"{name} is exported but not named in README.md"
