"""Discrete logs on anomalous curves by lifting away from the prime field.

An anomalous curve has |E(F_p)| = p, so E(F_p) is F_p in disguise; the
isomorphism only becomes computable after lifting the curve to Z/p^2Z.
If the lifted group is cyclic of order p^2, Theta(P) = X/p mod p (where
pP = (X : 1 : f(X))) is a surjective homomorphism with kernel exactly
the kernel of reduction, so N = Theta(Q^)/Theta(P^) solves Q = N P with
O(log p) curve additions.  A lift has one chance in p of being split
instead (Theta identically 0); perturbing a coefficient by p gives an
independent retry without changing anything mod p.  Only the attack
lives here; the lift and Theta it runs are infinity.lift_point and theta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import Curve, CurvePoint
from .errors import LiftRetryExhausted, NotAnomalous, SelfCheckFailed, ThetaZero, ZnecError
from .infinity import lift_point, theta
from .structure import _certified_anomalous


@dataclass(frozen=True)
class DlpInstance:
    """Q = N*P on an anomalous curve mod p; recover N."""

    curve: Curve
    base: CurvePoint
    target: CurvePoint

    def __post_init__(self):
        c = self.curve
        p, e = c.modulus.as_prime_power()
        if e != 1:
            raise ZnecError(f"instance curve must be mod a prime, got {c.n}")
        base = c._xyz(self.base)
        tgt = c._xyz(self.target)
        if base == (0, 1, 0):
            raise ThetaZero("base point is the identity; its log is undefined")
        if tgt == (0, 1, 0):
            raise ZnecError("target point is the identity")
        if not _certified_anomalous(c, base):
            raise NotAnomalous(f"{c!r} does not have exactly {p} points")

    @property
    def p(self) -> int:
        return self.curve.modulus.as_prime_power()[0]


def solve_anomalous_dlp(instance: DlpInstance) -> int:
    """Recover N with Q = N*P via the lifted Theta homomorphism.

    Lifts the curve and both points to Z/p^2Z.  Theta(P^) = 0 reveals a
    split lift; the curve is then re-lifted with B+p, then with A+p
    (same reduction, independent chance of a cyclic group).  The result
    is verified against the original instance before being returned, so
    a returned value is unconditionally correct.
    """
    c = instance.curve
    p = instance.p
    base, tgt = instance.base, instance.target
    a, b, mod_p2 = c.a, c.b, c.modulus.component(p, 2)  # p was proved prime with c.modulus
    for a2, b2 in ((a, b), (a, b + p), (a + p, b)):
        lifted = Curve(a2, b2, mod_p2)
        theta_p = theta(lifted, lift_point(c, base, lifted))
        if theta_p == 0:
            continue  # split lift: Theta vanishes identically
        theta_q = theta(lifted, lift_point(c, tgt, lifted))
        n = theta_q * pow(theta_p, -1, p) % p
        if c.scalar_xyz(n, base.xyz) != tgt.xyz:
            raise SelfCheckFailed(f"verification failed: {n} * {base} != {tgt} on {c!r}")
        return n
    raise LiftRetryExhausted(f"all three lifts of {c!r} to mod {p}^2 were split")
