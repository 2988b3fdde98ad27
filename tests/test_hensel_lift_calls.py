"""Only infinity.lift_point may Hensel-lift a point.

``infinity._hensel_lift`` takes raw coordinates and checks nothing: not
that the point lies on the curve mod p, nor that the target reduces to
it.  ``infinity.lift_point`` does both, and every lift in the library
(the DLP's, and the one ``structure.anomalous_type`` takes Theta of)
goes through it.  This guard reads each module with ``ast`` and names
every other use of ``_hensel_lift``.  Test-support modules
(``tests/enumeration.py``, ``tests/oracles.py``,
``tests/test_output_pin.py``) may still call it.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "znec")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _stray_lifts(source: str, filename: str) -> list[str]:
    """'scope:line:_hensel_lift' for each use of _hensel_lift outside infinity.lift_point."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
            if name == "_hensel_lift" and (filename, scope) != ("infinity.py", "lift_point"):
                found.append(f"{scope or '<module>'}:{child.lineno}:{name}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("filename", MODULES)
def test_only_lift_point_hensel_lifts(filename):
    with open(os.path.join(SRC, filename)) as fh:
        assert _stray_lifts(fh.read(), filename) == []


def test_guard_sees_a_stray_hensel_lift():
    source = (
        "from .curve import _hensel_lift\n"
        "def lift_point(c, point, target):\n"
        "    return target.point(*_hensel_lift(target.a, target.b, 1, 2, 5, 2))\n"
        "def anomalous_type(c):\n"
        "    lifted = c.point(*_hensel_lift(c.a, c.b, 1, 2, 5, 2))\n"
        "    return curve._hensel_lift\n"
    )
    assert _stray_lifts(source, "infinity.py") == [
        "anomalous_type:5:_hensel_lift",
        "anomalous_type:6:_hensel_lift",
    ]
    assert _stray_lifts(source, "structure.py") == [
        "lift_point:3:_hensel_lift",
        "anomalous_type:5:_hensel_lift",
        "anomalous_type:6:_hensel_lift",
    ]
