"""Every exception the library raises is a class from znec.errors.

The CLI turns ZnecError into exit 2 and SelfCheckFailed into exit 3, so
a plain ValueError, RuntimeError or AssertionError raised anywhere in
the library escapes as a traceback.  This guard reads each module with
``ast`` and names every ``raise`` whose exception is not one of those
classes.  A bare re-raise is allowed, and so is the SystemExit that
``cli._Parser.error`` raises for usage errors.
"""

import ast
import os

import pytest

import znec.errors

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "znec")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
ALLOWED = {
    name
    for name, obj in vars(znec.errors).items()
    if isinstance(obj, type) and issubclass(obj, znec.errors.ZnecError)
}
EXEMPT = {("cli.py", "_Parser.error", "SystemExit")}


def _raised_name(exc: ast.expr) -> str:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return ast.unparse(exc)


def _stray_raises(source: str, filename: str = "") -> list[str]:
    """'scope:line:Name' for each raise of a class outside ALLOWED and EXEMPT."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                name = _raised_name(child.exc)
                if name not in ALLOWED and (filename, scope, name) not in EXEMPT:
                    found.append(f"{scope or '<module>'}:{child.lineno}:{name}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("filename", MODULES)
def test_library_raises_only_znec_errors(filename):
    with open(os.path.join(SRC, filename)) as fh:
        assert _stray_raises(fh.read(), filename) == []


def test_guard_sees_a_stray_raise():
    source = (
        "def f(x):\n"
        "    try:\n"
        "        g(x)\n"
        "    except KeyError:\n"
        "        raise\n"
        "    if x:\n"
        "        raise ValueError(x)\n"
        "    raise ZnecError(x)\n"
        "class _Parser:\n"
        "    def error(self, message):\n"
        "        raise SystemExit(1)\n"
    )
    assert _stray_raises(source, "cli.py") == ["f:7:ValueError"]
    assert _stray_raises(source, "curve.py") == ["f:7:ValueError", "_Parser.error:11:SystemExit"]
