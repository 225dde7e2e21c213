"""Every name a package module imports is used, every private name it
defines is read, every public function or class has a reader, and every
work budget can be lowered by a test and is documented.

No linter runs on this repository, so this test is its unused-import and
unused-name check.  An imported name counts as used when the module reads it, lists it
in `__all__`, or is one that `perfbench/tracing.py` wraps under that module
(its `TARGETS`): the tracer replaces the module attribute by name, so the
name must stay even where the module no longer calls it.  `TARGETS` is read
from the tracer's source, not imported.  A public module-level function or
class is read when the package reads it, the package namespace exports it,
the tracer wraps it, or `tests/test_acceptance.py` or `perfbench/` imports
it; a helper only unit tests call is not read.

A work budget is a module-level `MAX_*` constant.  It must be read at call
time (inside a function body, never as a default value or at import), so
that `monkeypatch.setattr(module, "MAX_X", n)` takes effect, and some test
must patch it that way.  README.md names every budget and every module.
"""

import ast
import re
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


def private_definitions(tree: ast.Module) -> set[str]:
    """The `_x` names (not dunders) a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def package_reads() -> set[str]:
    """Every name the package reads, bare or as an attribute."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_read(path):
    # a private name is read in its own module or imported into another and
    # read there (an import left unread fails the test above)
    unread = private_definitions(ast.parse(path.read_text())) - package_reads()
    assert not unread, f"{path.name} defines private names nothing reads: {sorted(unread)}"


def imports_from_package(path: Path) -> set[str]:
    """The names a file outside the package imports from `cfsearch` modules."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cfsearch":
            names.update(a.name for a in node.names)
    return names


def test_every_public_function_is_read():
    init = ast.parse((ROOT / "src" / "cfsearch" / "__init__.py").read_text())
    readers = package_reads() | set(assigned_literal(init, "__all__"))
    readers |= set().union(*traced_names().values())
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        readers |= imports_from_package(path)
    unread = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in readers
    ]
    assert not unread, f"public functions and classes nothing reads: {unread}"


def budgets() -> list[tuple[str, str]]:
    """(module, name) of every module-level `MAX_*` assignment in the package."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            out += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name) and t.id.startswith("MAX_")]
    return out


def budget_reads(node: ast.AST, in_body: bool = False):
    """(name, inside a function body) for every read of a `MAX_*` name under `node`."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id.startswith("MAX_"):
        yield node.id, in_body
    elif isinstance(node, ast.Attribute) and node.attr.startswith("MAX_"):
        yield node.attr, in_body
    elif isinstance(node, ast.ImportFrom):  # binds the value once, at import
        yield from ((a.name, False) for a in node.names if a.name.startswith("MAX_"))
    body = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        body = node.body
    elif isinstance(node, ast.Lambda):
        body = [node.body]
    for child in ast.iter_child_nodes(node):
        yield from budget_reads(child, in_body or any(child is b for b in body))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_budgets_are_read_at_call_time(path):
    early = sorted({name for name, inside in budget_reads(ast.parse(path.read_text())) if not inside})
    assert not early, f"{path.name} reads budgets outside a function body: {early}"


def test_every_budget_is_patched_by_a_test():
    patched = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and isinstance(node.args[1], ast.Constant)
            ):
                patched.add((node.args[0].id, node.args[1].value))
    found = budgets()
    assert len(found) >= 5
    missing = sorted(set(found) - patched)
    assert not missing, f"no test patches these budgets (module, name): {missing}"


README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_names_every_budget():
    bullet = re.search(r"Every work budget \(([^)]*)\)", README).group(1)
    assert set(re.findall(r"`(\w+)\.(MAX_\w+)`", bullet)) == set(budgets())


def test_readme_layout_lists_every_module():
    layout = README.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^ +(\w+\.py) ", layout, re.M))
    assert listed == {p.name for p in MODULES} - {"__init__.py"}
