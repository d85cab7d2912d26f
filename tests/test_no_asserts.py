"""Runtime checks in the package must survive python -O, which strips assert."""

import ast
from pathlib import Path

import mnaq

PACKAGE = Path(mnaq.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"use VerificationFailure instead of assert at {found}"
