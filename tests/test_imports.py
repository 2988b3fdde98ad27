"""No module of the library imports a name it never uses, or imports inside a function.

An unused import is either dead code or a name kept only so that
something outside the module can find it there.  The one such case is
the benchmark tracer, which patches some functions in one named module
namespace only; those names are read from ``bench/tracer.py``'s TRACED
table and exempted, so the list cannot drift from the tracer.

A relative import inside a function hides an import cycle between
library modules; there is none.

The group law (``curve``) and the ring arithmetic under it (``modring``,
``projective``) are layers: other modules use their public names only, so
a private helper there can change without a caller elsewhere noticing.

Every znec process pays for what ``import znec.cli`` pulls in, so the
library does not import ``dataclasses`` or ``inspect``: together with
the code each dataclass decoration generates and execs, they cost about
9 ms of start-up with Python 3.11 on a shared 2-vCPU Xeon.  The result
records are ``typing.NamedTuple``s and ``DlpInstance`` is a slotted class.
"""

import ast
import os
import subprocess
import sys

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


def _function_imports(source: str) -> list[str]:
    """'scope:line' for each relative import inside a function body."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                visit(child, name, in_function or not isinstance(child, ast.ClassDef))
                continue
            if in_function and isinstance(child, ast.ImportFrom) and child.level:
                found.append(f"{scope}:{child.lineno}")
            visit(child, scope, in_function)

    visit(ast.parse(source), "", False)
    return found


@pytest.mark.parametrize("filename", MODULES)
def test_no_function_level_imports(filename):
    with open(os.path.join(SRC, filename)) as fh:
        assert _function_imports(fh.read()) == []


def test_guard_sees_a_function_level_import():
    source = (
        "from .a import b\n"
        "def f():\n    if b:\n        from .c import d\n"
        "class K:\n    from . import e\n    def g(self):\n        import os\n        from . import h\n"
    )
    assert _function_imports(source) == ["f:4", "K.g:9"]


LAYERS = {"curve", "modring", "projective"}


def _private_layer_imports(source: str) -> list[str]:
    """'module.name' for each underscore name imported from one of LAYERS."""
    return [
        f"{node.module.rsplit('.', 1)[-1]}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.rsplit(".", 1)[-1] in LAYERS
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_from_a_layer():
    found = []
    for filename in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, filename)) as fh:
            found += [f"{filename}: {name}" for name in _private_layer_imports(fh.read())]
    assert found == []


def test_guard_sees_a_private_name_imported_from_a_layer():
    source = (
        "from .curve import Curve, _AdditionCounter\n"
        "from .structure import _draws\n"
        "def f():\n    from znec.modring import _mod_sqrt, factorize\n"
    )
    assert _private_layer_imports(source) == ["curve._AdditionCounter", "modring._mod_sqrt"]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    probe = "import znec.cli, sys; print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
