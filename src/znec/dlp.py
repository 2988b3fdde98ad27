"""Discrete logs on anomalous curves by lifting away from the prime field.

An anomalous curve has |E(F_p)| = p, so E(F_p) is F_p in disguise; the
isomorphism only becomes computable after lifting the curve to Z/p^2Z.
If the lifted group is cyclic of order p^2, Theta(P) = X/p mod p (where
pP = (X : 1 : f(X))) is a surjective homomorphism with kernel exactly
the kernel of reduction, so N = Theta(Q^)/Theta(P^) solves Q = N P with
O(log p) curve additions; Theta(P^) exists only if pP = O, so the first
lift certifies the count too.  A split lift (Theta = 0, one chance in p)
is retried with B, then A, moved by p; lift_point and theta are infinity's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .curve import Curve, CurvePoint
from .errors import LiftRetryExhausted, NotAnomalous, NotCyclic, SelfCheckFailed, ThetaZero, ZnecError
from .infinity import lift_point, theta
from .structure import count_points_fp


@dataclass(frozen=True)
class DlpInstance:
    """Q = N*P on an anomalous curve mod p; recover N.

    Construction certifies |E(F_p)| = p as is_anomalous does, but by the
    Theta(P^) of the solve's first lift, which is kept for the solve.
    """

    curve: Curve
    base: CurvePoint
    target: CurvePoint
    _lift: tuple[Curve, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = self.curve
        p = c.modulus.as_prime()
        base = c._xyz(self.base)
        tgt = c._xyz(self.target)
        if base == (0, 1, 0):
            raise ThetaZero("base point is the identity; its log is undefined")
        if tgt == (0, 1, 0):
            raise ZnecError("target point is the identity")
        lifted = Curve(c.a, c.b, c.modulus.component(p, 2))  # p was proved prime with c.modulus
        try:
            theta_p = theta(lifted, lift_point(c, self.base, lifted))
        except NotCyclic:
            raise NotAnomalous(f"|E| ≠ {p} on {c!r}: p·P̃ not over infinity mod p² (P = {self.base})") from None
        if p == 5 and count_points_fp(c) != p:
            raise NotAnomalous(f"|E| ≠ {p} on {c!r}: count ≠ p at p = 5 (P = {self.base})")
        object.__setattr__(self, "_lift", (lifted, theta_p))

    @property
    def p(self) -> int:
        return self.curve.modulus.as_prime()


def solve_anomalous_dlp(instance: DlpInstance) -> int:
    """Recover N with Q = N*P via the lifted Theta homomorphism.

    Starts from the instance's lift to Z/p^2Z.  Theta(P^) = 0 reveals a
    split lift; the curve is then re-lifted with B+p, then with A+p
    (same reduction, independent chance of a cyclic group).  The result
    is verified against the original instance before being returned, so
    a returned value is unconditionally correct.
    """
    c, p, base, tgt = instance.curve, instance.p, instance.base, instance.target
    retries = [(c.a, c.b + p), (c.a + p, c.b)]
    lifted, theta_p = instance._lift
    while theta_p == 0:  # split lift: Theta vanishes identically
        if not retries:
            raise LiftRetryExhausted(f"all three lifts of {c!r} to mod {p}^2 were split")
        lifted = Curve(*retries.pop(0), lifted.modulus)
        theta_p = theta(lifted, lift_point(c, base, lifted))
    theta_q = theta(lifted, lift_point(c, tgt, lifted))
    n = theta_q * pow(theta_p, -1, p) % p
    if c.scalar_xyz(n, base.xyz) != tgt.xyz:
        raise SelfCheckFailed(f"verification failed: {n} * {base} != {tgt} on {c!r}")
    return n
