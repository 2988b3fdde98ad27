"""Every bounded search charges a budgets.Meter, and only the Meter raises BudgetExceeded.

A Meter takes its limit from ``budgets.resolve`` at the spend site and
raises once the steps charged pass it, with one message that names the
work, the limit and the total charged, and with the three as the error's
work, limit and spent.  The guard at the end reads the library with
``ast`` and names every other construction of BudgetExceeded, so a new
budget cannot grow its own rule again.
"""

import ast
import os

import pytest

from znec import budgets, modring
from znec.curve import new_curve
from znec.errors import BudgetExceeded
from znec.rank import _curve_of_order_p, _split_curve_mod_p2
from znec.structure import count_points_fp

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "znec")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def test_meter_raises_one_step_past_its_limit():
    meter = budgets.Meter(10, "test walk")
    meter.charge(4)
    meter.charge(6)
    assert meter.spent == 10  # exactly at the limit is allowed
    with pytest.raises(BudgetExceeded) as info:
        meter.charge(1)
    assert str(info.value) == "test walk passed its budget of 10 steps: 11 charged"


@pytest.mark.parametrize(
    "budget,search,work",
    [
        ("100", lambda: count_points_fp(new_curve(1, 1, 101)), "counting over F_101"),
        ("10", lambda: _curve_of_order_p(7, 5), "order-5 search over F_7"),
        ("4", lambda: _split_curve_mod_p2(5), r"split search mod 5\^2"),
        ("1", lambda: modring.factorize(10007 * 10009), "Pollard rho on 100160063"),
    ],
    ids=["count", "order-p", "split", "rho"],
)
def test_each_search_names_its_work(monkeypatch, budget, search, work):
    monkeypatch.setenv("ZNEC_BUDGET", budget)
    modring.factorize.cache_clear()  # a cached factorization would skip rho
    with pytest.raises(BudgetExceeded, match=rf"^{work} passed its budget of {budget} steps: \d+ charged$"):
        search()


def test_a_refused_count_says_what_ran_out(monkeypatch):
    monkeypatch.setenv("ZNEC_BUDGET", "100")
    with pytest.raises(BudgetExceeded) as info:
        count_points_fp(new_curve(1, 1, 101))  # the Legendre sum over F_101 is priced at 101 steps
    assert (info.value.work, info.value.limit, info.value.spent) == ("counting over F_101", 100, 101)
    bare = BudgetExceeded("a message alone")
    assert str(bare) == "a message alone" and (bare.work, bare.limit, bare.spent) == (None, None, None)


def _stray_raises(source: str, filename: str) -> list[str]:
    """'file:line' for each call of BudgetExceeded outside budgets.py."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "BudgetExceeded" and filename != "budgets.py":
            found.append(f"{filename}:{node.lineno}")
    return found


@pytest.mark.parametrize("filename", MODULES)
def test_only_the_meter_raises_budget_exceeded(filename):
    with open(os.path.join(SRC, filename)) as fh:
        assert _stray_raises(fh.read(), filename) == []


def test_guard_sees_a_stray_budget_exceeded():
    source = (
        "from .errors import BudgetExceeded\n"
        "def walk(spent, budget):\n"
        "    try:\n"
        "        if spent > budget:\n"
        "            raise BudgetExceeded('walk passed its budget')\n"
        "    except BudgetExceeded:\n"
        "        raise errors.BudgetExceeded('again')\n"
    )
    assert _stray_raises(source, "rank.py") == ["rank.py:5", "rank.py:7"]
    assert _stray_raises(source, "budgets.py") == []
