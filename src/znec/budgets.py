"""Work budgets for the searches that can run long.

There are three: counting points over F_p, the two construction walks of
rank.construct_max_rank_curve, and Pollard rho in modring.factorize.
Each bounded search resolves its default below where it spends the work
and charges a Meter built from it; only the Meter raises BudgetExceeded.
ZNEC_BUDGET, when set to a positive integer, replaces each default with
that value; it is the only way to set a budget.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, ZnecError

COUNT_FIELD_POINTS = 10_000_000
CURVE_SEARCH = 5_000_000
RHO_STEPS = 10_000_000


def resolve(default: int) -> int:
    raw = os.environ.get("ZNEC_BUDGET")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ZnecError(f"ZNEC_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ZnecError(f"ZNEC_BUDGET must be positive, got {value}")
    return value


class Meter:
    """The steps charged to one bounded search; charge raises BudgetExceeded once they pass the limit."""

    __slots__ = ("limit", "work", "spent")

    def __init__(self, limit: int, work: str):
        self.limit, self.work, self.spent = limit, work, 0

    def charge(self, steps: int) -> None:
        self.spent += steps
        if self.spent > self.limit:
            message = f"{self.work} passed its budget of {self.limit} steps: {self.spent} charged"
            raise BudgetExceeded(message, self.work, self.limit, self.spent)
