"""One scaling path: only ``projective.canonical_triple`` scales a triple.

The group law in ``curve.py`` chooses S or T prime by prime and returns a
raw triple; the inverse that scales it to canonical form, and the CRT
glue of the scaled components, live in ``canonical_triple`` alone.  A
second copy of that loop would be a second canonical form to keep in
step with the first.  So no method of ``Curve`` or ``CurvePoint`` calls
``pow``, and the only function of ``projective.py`` that calls ``pow``
is ``canonical_triple``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "znec")


def _called_names(node) -> set[str]:
    """The bare or attribute names of every call under node."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _scaling_methods(source: str, classes=("Curve", "CurvePoint")) -> list[str]:
    """'Class.method' for each method of the given classes that calls pow."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and "pow" in _called_names(item):
                    found.append(f"{node.name}.{item.name}")
    return found


def _inverting_functions(source: str) -> list[str]:
    """The names of the module-level functions that call pow."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and "pow" in _called_names(node)
    ]


def _read(filename: str) -> str:
    with open(os.path.join(SRC, filename)) as fh:
        return fh.read()


def test_curve_methods_do_not_scale():
    assert _scaling_methods(_read("curve.py")) == []


def test_canonical_triple_is_the_only_scaling_function():
    assert _inverting_functions(_read("projective.py")) == ["canonical_triple"]


def test_guard_sees_a_second_scaling_path():
    source = (
        "def canonical_triple(x):\n    return pow(x, -1, 7)\n"
        "def _scale(x):\n    return x * pow(x, -1, 7)\n"
        "class Curve:\n    def add(self, t):\n        return pow(t, -1, self.m)\n"
        "    def neg(self, t):\n        return t\n"
        "class CurvePoint:\n    def inv(self):\n        return pow(self.z, -1, self.n)\n"
        "class Other:\n    def f(self):\n        return pow(2, -1, 7)\n"
    )
    assert _scaling_methods(source) == ["Curve.add", "CurvePoint.inv"]
    assert _inverting_functions(source) == ["canonical_triple", "_scale"]
