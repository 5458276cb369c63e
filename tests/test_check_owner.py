"""Every verdict is built in ``diagnostics``, with its bound beside its check.

A ``Check`` made anywhere else would carry a bound of that module's own: the
command line prints the checks that ``certify`` and ``uniqueness_probe`` hand
it and builds none, and the ``mms`` thresholds are ``harness.MMS_ORDER_MIN``.
A module builds a ``Check`` by calling it (under any name it imports it as)
or by ``_make`` or ``_replace`` on one.
"""

import ast
from pathlib import Path

import kirchflow

PACKAGE = Path(kirchflow.__file__).resolve().parent


def _builds_a_check(tree):
    names = {"Check"} | {alias.asname for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) for alias in node.names
                         if alias.name == "Check" and alias.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                return True
            if isinstance(func, ast.Attribute) and func.attr in names | {"_make",
                                                                         "_replace"}:
                return True
    return False


def test_only_diagnostics_builds_a_check():
    builders = {path.stem for path in sorted(PACKAGE.glob("*.py"))
                if _builds_a_check(ast.parse(path.read_text(encoding="utf-8")))}
    assert builders == {"diagnostics"}


def test_the_guard_sees_each_way_of_building_one():
    for source in ("Check('x', 1.0, 2.0)", "diagnostics.Check('x', 1.0, 2.0)",
                   "from .diagnostics import Check as C\nC('x', 1.0, 2.0)",
                   "Check._make(('x', 1.0, 2.0))", "check._replace(bound=2.0)"):
        assert _builds_a_check(ast.parse(source)), source
    assert not _builds_a_check(ast.parse("def f(checks: Sequence[Check]): pass"))
