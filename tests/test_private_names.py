"""The one march loop stays the only one.

``stepper._march`` is the only loop that calls ``_newton`` step by step;
``run`` and ``diagnostics.uniqueness_probe`` read it.  A module that names
``_System`` or ``_newton`` could march a second copy of that loop, and one
that reads ``_march`` without being listed here is a new caller of the
private loop: either is added on purpose, not by accident.
"""

import ast
from pathlib import Path

import kirchflow

PACKAGE = Path(kirchflow.__file__).resolve().parent
USERS = {
    "_System": {"stepper"},
    "_newton": {"stepper"},
    "_march": {"stepper", "diagnostics"},
}


def _names(tree):
    """Every name a module's code reads, binds, imports or takes as an
    attribute; docstrings and comments do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_stepper_and_the_probe_reach_the_march_internals():
    found = {name: set() for name in USERS}
    for path in sorted(PACKAGE.glob("*.py")):
        names = set(_names(ast.parse(path.read_text(encoding="utf-8"))))
        for name in USERS.keys() & names:
            found[name].add(path.stem)
    assert found == USERS
