"""No module of the library keeps a random generator at module level.

A module-level generator makes a result depend on every call made before
it in the process.  Each randomized search seeds its own generator from
its inputs instead, so the same curve always draws the same points.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "znec")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _module_level_rngs(source: str) -> list[int]:
    """Line numbers of top-level assignments whose value calls random.Random or Random."""
    lines = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Random":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("filename", MODULES)
def test_no_module_level_rng(filename):
    with open(os.path.join(SRC, filename)) as fh:
        assert _module_level_rngs(fh.read()) == []


def test_guard_sees_a_module_level_rng():
    source = "import random\nfrom random import Random\n_rng = random.Random(1)\nr: Random = Random()\n"
    assert _module_level_rngs(source) == [3, 4]
    assert _module_level_rngs("def f():\n    rng = random.Random(1)\n") == []
