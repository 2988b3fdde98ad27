"""Discrete logs on anomalous curves by lifting away from the prime field.

An anomalous curve has |E(F_p)| = p, so E(F_p) is F_p in disguise; the
isomorphism only becomes computable after lifting the curve to Z/p^2Z.
If the lifted group is cyclic of order p^2, Theta(P) = X/p mod p (where
pP = (X : 1 : f(X))) is a surjective homomorphism with kernel exactly
the kernel of reduction, so N = Theta(Q^)/Theta(P^) solves Q = N P with
O(log p) curve additions; Theta(P^) exists only if pP = O, so the first
lift certifies the count too.  The instance lifts both points once and
keeps their Thetas; a split lift (Theta = 0, one chance in p) is retried
with B, then A, moved by p.  lift_point and theta are infinity's.
"""

from __future__ import annotations

from .curve import Curve, CurvePoint
from .errors import LiftRetryExhausted, NotAnomalous, NotCyclic, SelfCheckFailed, ThetaZero, ZnecError
from .infinity import lift_point, theta
from .structure import count_points_fp


class DlpInstance:
    """Q = N*P on an anomalous curve mod p; recover N.

    Construction certifies |E(F_p)| = p as is_anomalous does, but by the
    Theta(P^) of the verbatim lift to Z/p^2Z.  _lift keeps that lift with
    Theta(P^) and Theta(Q^) for the solve; Theta(Q^) is computed only when
    Theta(P^) != 0 and is left 0 on a split lift.  The fields are
    read-only; equality, hash and repr read only (curve, base, target),
    not the lift.
    """

    __slots__ = ("_key", "_lift")

    def __init__(self, curve: Curve, base: CurvePoint, target: CurvePoint):
        self._key = (curve, base, target)
        p = curve.modulus.as_prime()
        base_xyz, target_xyz = curve._xyz(base), curve._xyz(target)
        if base_xyz == (0, 1, 0):
            raise ThetaZero("base point is the identity; its log is undefined")
        if target_xyz == (0, 1, 0):
            raise ZnecError("target point is the identity")
        lifted = Curve(curve.a, curve.b, curve.modulus.component(p, 2))  # p was proved prime with curve.modulus
        try:
            theta_p = theta(lifted, lift_point(curve, base, lifted))
        except NotCyclic:
            raise NotAnomalous(f"|E| ≠ {p} on {curve!r}: p·P̃ not over infinity mod p² (P = {base})") from None
        if p == 5 and count_points_fp(curve) != p:
            raise NotAnomalous(f"|E| ≠ {p} on {curve!r}: count ≠ p at p = 5 (P = {base})")
        self._lift = (lifted, theta_p, theta_p and theta(lifted, lift_point(curve, target, lifted)))

    curve = property(lambda self: self._key[0])
    base = property(lambda self: self._key[1])
    target = property(lambda self: self._key[2])

    def __eq__(self, other) -> bool:
        return isinstance(other, DlpInstance) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return "DlpInstance(curve={!r}, base={!r}, target={!r})".format(*self._key)

    @property
    def p(self) -> int:
        return self.curve.modulus.as_prime()


def solve_anomalous_dlp(instance: DlpInstance) -> int:
    """Recover N with Q = N*P via the lifted Theta homomorphism.

    Starts from the instance's lift and its two Thetas.  Theta(P^) = 0
    reveals a split lift; the curve is then re-lifted with B+p, then with
    A+p (same reduction, independent chance of a cyclic group), and each
    retry lifts Q only if its Theta(P^) != 0.  N = Theta(Q^)/Theta(P^) is
    verified against the original instance before being returned, so a
    returned value is unconditionally correct.
    """
    c, p, base, tgt = instance.curve, instance.p, instance.base, instance.target
    retries = [(c.a, c.b + p), (c.a + p, c.b)]
    lifted, theta_p, theta_q = instance._lift
    while theta_p == 0:  # split lift: Theta vanishes identically
        if not retries:
            raise LiftRetryExhausted(f"all three lifts of {c!r} to mod {p}^2 were split")
        lifted = Curve(*retries.pop(0), lifted.modulus)
        theta_p = theta(lifted, lift_point(c, base, lifted))
        theta_q = theta_p and theta(lifted, lift_point(c, tgt, lifted))
    n = theta_q * pow(theta_p, -1, p) % p
    if c.scalar_xyz(n, base.xyz) != tgt.xyz:
        raise SelfCheckFailed(f"verification failed: {n} * {base} != {tgt} on {c!r}")
    return n
