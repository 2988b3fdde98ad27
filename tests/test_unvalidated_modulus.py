"""Only modring.py may build a Modulus without proving its primes.

``Modulus.__init__`` proves every prime of a factorization that a caller
passes in, because the CRT decomposition and every count over F_p rest
on it.  ``Modulus._fill`` skips that proof, so it may be used only inside
``modring.py``, where ``Modulus.component`` builds p^e for a prime p of
its own, already proved, factorization.  This guard reads each module
with ``ast`` and names every other use of ``_fill``.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "znec")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _stray_uses(source: str, filename: str) -> list[str]:
    """'scope:line:_fill' for each use of _fill outside modring.py."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
            if name == "_fill" and filename != "modring.py":
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
        "        return object.__new__(Modulus)._fill(p**e, ((p, e),))\n"
        "def lift(p):\n"
        "    make = Modulus._fill\n"
        "    return object.__new__(Modulus)._fill(p * p, ((p, 2),))\n"
    )
    assert _stray_uses(source, "modring.py") == []
    assert _stray_uses(source, "structure.py") == [
        "Modulus.__init__:3:_fill",
        "Modulus.component:5:_fill",
        "lift:7:_fill",
        "lift:8:_fill",
    ]
