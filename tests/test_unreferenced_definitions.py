"""No top-level function or class of the library is left with only test callers.

Each one must be named somewhere in the library outside its own body, or
be public in ``znec.__all__``.  A definition that only tests reach is
dead library code: it belongs in the tests that use it (as
``tests/enumeration.py`` holds ``invariant_factors`` and ``vp_int``).
An import does not count as a use; ``tests/test_imports.py`` already
rejects a name that is imported and never used.

A private one (a name starting with ``_``) must also be read in its own
module outside its own body: each private helper lives in the module
that calls it (as ``_hensel_lift`` lives in ``infinity`` with
``lift_point``), not in one that only defines it for another.
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


def _private_unread(sources: dict[str, str]) -> list[str]:
    """'module._name' for each private top-level def or class its own module reads only in its own body."""
    stray = []
    for module, source in sources.items():
        tree = ast.parse(source)
        here = _names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and here[node.name] == _names(node)[node.name]:
                stray.append(f"{module}.{node.name}")
    return sorted(stray)


def _library_sources() -> dict[str, str]:
    sources = {}
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as fh:
                sources[filename[: -len(".py")]] = fh.read()
    return sources


def test_every_definition_has_a_library_caller():
    assert _unreferenced(_library_sources(), set(znec.__all__)) == []


def test_every_private_definition_is_read_in_its_own_module():
    assert _private_unread(_library_sources()) == []


def test_guard_sees_a_stray_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef stray(n):\n    return stray(n - 1) if n else used\n",
        "b": "from .a import stray, used\n\nclass Public:\n    x = used()\n",
    }
    assert _unreferenced(sources, {"Public"}) == ["a.stray"]


def test_guard_sees_a_private_definition_read_elsewhere():
    sources = {
        "a": (
            "def _kept(n):\n    return n\n\n"
            "def _moved(n):\n    return n\n\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
            "class _Counter:\n    pass\n\n"
            "TOTAL = _Counter()\n\n"
            "def public(n):\n    return _kept(n)\n"
        ),
        "b": "from .a import _moved, _recursive\n\ndef use(n):\n    return _moved(n) + _recursive(n)\n",
    }
    assert _private_unread(sources) == ["a._moved", "a._recursive"]
    assert _unreferenced(sources, {"public", "use"}) == []
