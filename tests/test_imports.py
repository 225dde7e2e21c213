"""Every name a package module imports is used.

No linter runs on this repository, so this test is its unused-import
check.  An imported name counts as used when the module reads it, lists it
in `__all__`, or is one that `perfbench/tracing.py` wraps under that module
(its `TARGETS`): the tracer replaces the module attribute by name, so the
name must stay even where the module no longer calls it.  `TARGETS` is read
from the tracer's source, not imported.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cfsearch").glob("*.py"))


def assigned_literal(tree: ast.Module, name: str):
    """The literal value of the module-level assignment to `name`, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    return None


def traced_names() -> dict[str, set[str]]:
    """Module name -> the attributes the tracer wraps in it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    out = defaultdict(set)
    for target in assigned_literal(tree, "TARGETS"):
        package, module, attr = target.split(".")
        if package == "cfsearch":
            out[module].add(attr)
    return out


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            assert all(a.name != "*" for a in node.names), "star import"
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(assigned_literal(tree, "__all__") or ())
    unused = imported_names(tree) - read - exported - traced_names()[path.stem]
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"
