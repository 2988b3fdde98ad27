"""No top-level function or class of the library is left with only test callers.

Each one must be named somewhere in the library outside its own body, or
be public in ``znec.__all__``.  A definition that only tests reach is
dead library code: it belongs in the tests that use it (as
``tests/enumeration.py`` holds ``invariant_factors`` and ``vp_int``).
An import does not count as a use; ``tests/test_imports.py`` already
rejects a name that is imported and never used.
"""

import ast
import os
from collections import Counter

import znec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "znec")


def _names(node) -> Counter:
    """How often each identifier is read in node's subtree, as a name or an attribute."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    return found


def _unreferenced(sources: dict[str, str], exported: set[str]) -> list[str]:
    """'module.name' for each top-level def or class named nowhere but in its own body, nor exported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_names(tree) for tree in trees.values()), Counter())
    stray = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name not in exported and total[node.name] == _names(node)[node.name]:
                stray.append(f"{module}.{node.name}")
    return sorted(stray)


def test_every_definition_has_a_library_caller():
    sources = {}
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as fh:
                sources[filename[: -len(".py")]] = fh.read()
    assert _unreferenced(sources, set(znec.__all__)) == []


def test_guard_sees_a_stray_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef stray(n):\n    return stray(n - 1) if n else used\n",
        "b": "from .a import stray, used\n\nclass Public:\n    x = used()\n",
    }
    assert _unreferenced(sources, {"Public"}) == ["a.stray"]
