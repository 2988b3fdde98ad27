"""No module of the library imports a name it never uses.

An unused import is either dead code or a name kept only so that
something outside the module can find it there.  The one such case is
the benchmark tracer, which patches some functions in one named module
namespace only; those names are read from ``bench/tracer.py``'s TRACED
table and exempted, so the list cannot drift from the tracer.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "znec")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def _traced_namespace_names() -> set[tuple[str, str]]:
    """(module, name) for each TRACED entry that patches an explicit namespace."""
    with open(os.path.join(ROOT, "bench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            traced = ast.literal_eval(node.value)
            break
    else:
        raise AssertionError("bench/tracer.py defines no TRACED table")
    return {
        (namespace, path.rsplit(".", 1)[-1])
        for _, path, namespaces in traced.values()
        for namespace in namespaces or ()
    }


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("filename", MODULES)
def test_no_unused_module_imports(filename):
    with open(os.path.join(SRC, filename)) as fh:
        unused = _unused_imports(fh.read())
    module = "znec." + filename[: -len(".py")]
    exempt = {name for namespace, name in _traced_namespace_names() if namespace == module}
    assert [name for name in unused if name not in exempt] == []


def test_guard_sees_an_unused_import():
    assert _unused_imports("import math\nfrom .x import a, b\nprint(a)\n") == ["b", "math"]
