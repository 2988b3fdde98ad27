"""Exception types shared across the package.

Every math precondition failure raises one of these rather than a bare
ValueError, so callers (and the CLI) can tell a usage mistake from a
genuine arithmetic obstruction and report the witness (a divisor of the
modulus, a gcd, an offending prime) that triggered it.  A failed
internal self-check raises SelfCheckFailed, which the CLI reports with
its own exit code.
"""


class ZnecError(ValueError):
    """Base class for every error the package raises."""


class NotPrimitive(ZnecError):
    """A coordinate triple whose entries all share a factor with the modulus."""

    def __init__(self, modulus: int, gcd: int):
        self.modulus = modulus
        self.gcd = gcd
        super().__init__(f"entries share the factor gcd = {gcd} with modulus {modulus}")


class NotPrimePower(ZnecError):
    """A modulus or elementary divisor that must be a prime power is not one."""


class BadCharacteristic(ZnecError):
    """Modulus not coprime to 6; the short Weierstrass model needs 6 invertible."""

    def __init__(self, n: int, gcd: int):
        self.n = n
        self.gcd = gcd
        super().__init__(f"modulus {n} shares the factor {gcd} with 6")


class SingularCurve(ZnecError):
    """Discriminant shares a factor with the modulus; carries that divisor."""

    def __init__(self, n: int, divisor: int):
        self.n = n
        self.divisor = divisor
        super().__init__(f"discriminant not a unit mod {n}: shares divisor {divisor}")


class PointNotOnCurve(ZnecError):
    """Coordinates that do not satisfy the curve equation."""


class BothLawsVanish(ZnecError):
    """Both addition-law triples vanish mod some prime.

    Cannot happen for points actually on the curve; it signals that
    Curve.add_xyz, which does not check its inputs, got a triple off it.
    """

    def __init__(self, prime: int):
        self.prime = prime
        super().__init__(f"both addition laws vanish mod {prime}; inputs are not curve points")


class BudgetExceeded(ZnecError):
    """A point count, a construction walk or Pollard rho would exceed its budget; a Meter sets work, limit, spent."""

    def __init__(self, message: str, work: str | None = None, limit: int | None = None, spent: int | None = None):
        super().__init__(message)
        self.work, self.limit, self.spent = work, limit, spent


class NotCyclic(ZnecError):
    """The Z/p-valued logarithm needs a cyclic group of order p^e."""


class NotAnomalous(ZnecError):
    """The discrete-log attack needs |E(F_p)| = p."""


class ThetaZero(ZnecError):
    """The base point mapped to 0, i.e. it was the identity all along."""


class LiftRetryExhausted(ZnecError):
    """Every curve lift tried was split, so no logarithm could be read off."""


class NoCurveOfOrderP(ZnecError):
    """No curve over F_q can have p points: p is outside the Hasse window."""

    def __init__(self, q: int, p: int):
        self.q = q
        self.p = p
        super().__init__(f"no curve over F_{q} has exactly {p} points")


class SelfCheckFailed(ZnecError):
    """An internal consistency check failed: a bug, not a bad input."""
