"""Every name a module of the package imports at top level is used in it, and every
name a module defines at top level is read somewhere in the package outside its own
definition, so a deletion leaves neither imports nor orphans behind.  __init__.py
only re-exports: it is exempt, and its imports are not reads."""

import ast
from pathlib import Path

import mnaq

PACKAGE = Path(mnaq.__file__).parent

# imported only so that the benchmark's traced pass can wrap it by name
# (tests/test_trace_seams.py pins them): search.is_mna_C, and weil.factorize,
# perfbench's traced seam, which no weil function calls since the list test
# works by gcds alone
ALLOWED = {("search", "is_mna_C"), ("weil", "factorize")}

# top-level names that no module of the package reads, with what reads them
UNREAD_ALLOWED = {
    ("assoc", "assoc_eq_holds"): "the equation at one (u, v), assoc_eq_terms' oracle: the tests",
    ("assoc", "is_mna_C"): "method C at one pair: the tests and the benchmark",
    ("charside", "s_class_member"): "the class rules at one pair's signs: the tests",
    ("gfpoly", "poly_eval"): "scalar Horner evaluation, the oracle of poly_eval_vec: the tests",
    ("quasigroup", "qmul"): "the scalar operation u * v, the oracle of qmul_vec: the tests",
    ("search", "sample_sigma_pair"): "one seeded pair of Sigma: the tests",
    ("search", "verify_certificate"): "re-checks a search certificate: the tests and the benchmark",
    ("search", "mna_sample_stats"): "the sampled MNA share: the acceptance tests and the benchmark",
    ("weil", "slice_poly_list"): "the slice list at one c, Horner's oracle: the tests",
    ("weil", "r_set"): "the root set R(c) at one c: the tests",
}


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


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _unread_names(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) of each top-level definition whose name no top-level statement
    of any module loads, apart from the statement that defines it."""
    defined, read = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            names = _defined(node)
            defined += [(module, name) for name in names]
            read |= {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} - set(names)
    return [(module, name) for module, name in defined if name not in read]


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def test_dead_import_finder_sees_an_unused_name():
    tree = ast.parse("import os\nfrom typing import Sequence, Callable\nx: Sequence = os.sep\n")
    assert _dead_imports(tree) == ["Callable"]


def test_package_has_no_dead_imports():
    modules = _modules()
    assert modules
    dead = [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in _dead_imports(tree)
        if (module, name) not in ALLOWED
    ]
    assert not dead, f"imported but never used: {dead}"


def test_unread_name_finder_skips_a_name_read_only_in_its_own_definition():
    trees = {
        "a": ast.parse("LIMIT = 3\ndef f(n):\n    return f(n - 1) if n else LIMIT\n"),
        "b": ast.parse("from a import f\nX: int = f(2)\nclass C:\n    pass\n"),
    }
    assert _unread_names(trees) == [("b", "X"), ("b", "C")]


def test_every_top_level_name_is_read():
    unread = _unread_names(_modules())
    assert sorted(set(unread) - set(UNREAD_ALLOWED)) == [], "defined but never read"
    assert sorted(set(UNREAD_ALLOWED) - set(unread)) == [], "allowed but now read: drop them"
