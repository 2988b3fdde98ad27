"""Every budget knob is live, and every budget read goes through a knob.

budgets.py names each default; a search reads it with
``budgets.resolve(budgets.<KNOB>)`` where it spends the work.  This guard
reads the library with ``ast``.  It fails when a knob in budgets.py is
read by no ``resolve`` call (a dead knob), and when a ``resolve`` call
passes anything but a knob (a literal or expression that bypasses one).
The CLI's ``resolve(0)``, which only validates ZNEC_BUDGET before any
command runs, is the one exemption.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "znec")
EXEMPT = {("cli.py", "0")}


def _knobs(source: str) -> set[str]:
    """The upper-case module-level integer constants of budgets.py."""
    return {
        t.id
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id.isupper() and isinstance(node.value.value, int)
    }


def _resolve_reads(source: str, filename: str) -> tuple[set[str], list[str]]:
    """(knobs read, 'file:line:arg' for each resolve call that reads no knob)."""
    reads, strays = set(), []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "resolve":
            continue
        arg = ast.unparse(node.args[0]) if len(node.args) == 1 and not node.keywords else ast.unparse(node)
        knob = arg.removeprefix("budgets.")
        if arg.startswith("budgets.") and knob.isidentifier():
            reads.add(knob)
        elif (filename, arg) not in EXEMPT:
            strays.append(f"{filename}:{node.lineno}:{arg}")
    return reads, strays


def _library() -> dict[str, str]:
    out = {}
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as fh:
                out[filename] = fh.read()
    return out


def _audit(sources: dict[str, str]) -> tuple[set[str], set[str], list[str]]:
    """(dead knobs, reads of names that are no knob, stray resolve calls)."""
    knobs = _knobs(sources["budgets.py"])
    reads, strays = set(), []
    for filename, source in sources.items():
        r, s = _resolve_reads(source, filename)
        reads |= r
        strays += s
    return knobs - reads, reads - knobs, strays


def test_every_knob_is_read_and_every_read_names_a_knob():
    assert _audit(_library()) == (set(), set(), [])


def test_guard_sees_a_dead_knob_and_a_bypass():
    sources = {
        "budgets.py": "A = 1\nB = 2\nC = 3\n_private = 4\n\ndef resolve(default):\n    return default\n",
        "x.py": "budgets.resolve(budgets.A)\nbudgets.resolve(budgets.D)\nbudgets.resolve(5_000)\n",
        "cli.py": "budgets.resolve(0)\nbudgets.resolve(budgets.B)\nresolve(budgets.B * 2)\n",
    }
    dead, unknown, strays = _audit(sources)
    assert dead == {"C"}
    assert unknown == {"D"}
    assert strays == ["x.py:3:5000", "cli.py:3:budgets.B * 2"]
