"""Only two callers may build a Modulus without proving its primes.

``Modulus.__init__`` proves every prime of a factorization that a caller
passes in, because the CRT decomposition and every count over F_p rest
on it.  ``Modulus._fill`` skips that proof, and so does
``Modulus._proven``, which calls it.  So ``_fill`` may be used only
inside ``modring.py``, and ``_proven`` only by ``Modulus.component``
(for a prime of a factorization already proved) and by
``structure._count_shanks_mestre`` (whose every caller passes a proved
prime; see the ``_proven`` docstring).  This guard reads each module
with ``ast`` and names every other use of either name.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "znec")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
PROVEN_USERS = {("modring.py", "Modulus.component"), ("structure.py", "_count_shanks_mestre")}


def _stray_uses(source: str, filename: str) -> list[str]:
    """'scope:line:name' for each use of _fill outside modring.py or of _proven outside PROVEN_USERS."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
            if (name == "_fill" and filename != "modring.py") or (
                name == "_proven" and (filename, scope) not in PROVEN_USERS
            ):
                found.append(f"{scope or '<module>'}:{child.lineno}:{name}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("filename", MODULES)
def test_only_modring_skips_validation(filename):
    with open(os.path.join(SRC, filename)) as fh:
        assert _stray_uses(fh.read(), filename) == []


def test_guard_sees_a_stray_unvalidated_modulus():
    source = (
        "class Modulus:\n"
        "    def __init__(self, n):\n"
        "        self._fill(n, ())\n"
        "    def component(self, p, e):\n"
        "        return Modulus._proven(p, e)\n"
        "def _count_shanks_mestre(a, b, p):\n"
        "    return Modulus._proven(p, 1)\n"
        "def lift(p):\n"
        "    make = Modulus._proven\n"
        "    return object.__new__(Modulus)._fill(p * p, ((p, 2),))\n"
    )
    assert _stray_uses(source, "modring.py") == ["_count_shanks_mestre:7:_proven", "lift:9:_proven"]
    assert _stray_uses(source, "structure.py") == [
        "Modulus.__init__:3:_fill",
        "Modulus.component:5:_proven",
        "lift:9:_proven",
        "lift:10:_fill",
    ]
