"""Every name a module of the package imports at top level is used in it, so a
deletion cannot leave its imports behind.  __init__.py re-exports and is exempt."""

import ast
from pathlib import Path

import mnaq

PACKAGE = Path(mnaq.__file__).parent

# imported only so that the benchmark's traced pass can wrap it by name
# (tests/test_trace_seams.py pins it)
ALLOWED = {("search", "is_mna_C")}


def _dead_imports(tree: ast.Module) -> list[str]:
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_dead_import_finder_sees_an_unused_name():
    tree = ast.parse("import os\nfrom typing import Sequence, Callable\nx: Sequence = os.sep\n")
    assert _dead_imports(tree) == ["Callable"]


def test_package_has_no_dead_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = [
        f"{path.stem}.{name}"
        for path in modules
        for name in _dead_imports(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, name) not in ALLOWED
    ]
    assert not dead, f"imported but never used: {dead}"
