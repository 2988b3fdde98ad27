"""Work budgets for enumeration-flavoured operations.

The env var ZNEC_BUDGET, when set to a positive integer, overrides every
default below, so one knob scales the whole tool up or down.
"""

from __future__ import annotations

import os

from .errors import ZnecError

ENUMERATE_POINTS = 1_000_000
COUNT_FIELD_POINTS = 10_000_000
BRUTE_FORCE_POINTS = 100_000
CURVE_SEARCH = 5_000_000


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
