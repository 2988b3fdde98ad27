"""The points of E(Z/p^eZ) lying over (0 : 1 : 0), and their arithmetic.

On the chart Y = 1 the curve reads Z = X^3 + A X Z^2 + B Z^3.  Its
solution Z = f(X) mod X^e (terms of degree >= e vanish when p | X) is
the fixed point of that equation, a polynomial f(X) = X^3 + A X^7 +
B X^9 + ... of degree < e.  The points over infinity are then exactly
(X : 1 : f(X)) for the p^(e-1) values X divisible by p, they form the
kernel of reduction mod p, and that kernel is cyclic generated by
(p : 1 : f(p)).  To first approximation the X-coordinate is additive:
X3 = X1 + X2 mod p^(5 min(vp X1, vp X2)).

Lifts from E(F_p) and Theta live here too, and theta and structure.phi_map
read a multiple over infinity through one test, _kernel_x.
"""

from __future__ import annotations

from .curve import Curve, CurvePoint, _hensel_lift
from .errors import NotCyclic, ZnecError


def _mul_trunc(f: list[int], g: list[int], e: int, pe: int) -> list[int]:
    """f * g mod (x^e, p^e) on coefficient lists of length e."""
    out = [0] * e
    for i, c in enumerate(f):
        if c:
            for j in range(e - i):
                out[i + j] += c * g[j]
    return [c % pe for c in out]


class InfinityPolynomial:
    """f in Z/p^eZ[x] of degree < e with E-infinity = {(X : 1 : f(X)) : p | X}."""

    __slots__ = ("curve", "p", "e", "coeffs")

    def __init__(self, curve: Curve, p: int, e: int, coeffs: tuple[int, ...]):
        self.curve = curve
        self.p = p
        self.e = e
        self.coeffs = coeffs  # coeffs[k] is the x^k coefficient, length e

    def evaluate_int(self, x: int) -> int:
        pe = self.curve.n
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % pe
        return acc

    def coefficients(self) -> tuple[int, ...]:
        return self.coeffs

    def __repr__(self) -> str:
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"InfinityPolynomial({body} mod {self.curve.n})"


def compute_f(curve: Curve) -> InfinityPolynomial:
    """The fixed point of f = x^3 + A x f^2 + B f^3 mod (x^e, p^e).

    The right-hand side of two candidates that agree mod x^k agrees mod
    x^(k+4), since f has no terms below x^3; so iterating from f = 0
    stabilizes within e passes.  For e <= 3 everything truncates away and
    f = 0; for e = 10 the result is exactly x^3 + A x^7 + B x^9.
    """
    p, e = curve.modulus.as_prime_power()
    pe = curve.n
    f = [0] * e
    for _ in range(e):
        f2 = _mul_trunc(f, f, e, pe)
        f3 = _mul_trunc(f2, f, e, pe)
        nxt = [(curve.a * u + curve.b * v) % pe for u, v in zip([0] + f2, f3)]  # x f^2 is f2 shifted
        if e > 3:
            nxt[3] = (nxt[3] + 1) % pe
        if nxt == f:
            break
        f = nxt
    return InfinityPolynomial(curve, p, e, tuple(f))


def infinity_point(curve: Curve, x: int, f: InfinityPolynomial | None = None) -> CurvePoint:
    """The point (X : 1 : f(X)) for p | X."""
    if f is None:
        f = compute_f(curve)
    x = int(x) % curve.n
    if x % f.p:
        raise ZnecError(f"{x} is not divisible by {f.p}")
    return CurvePoint(curve, (x, 1, f.evaluate_int(x)))


def infinity_points(curve: Curve) -> list[CurvePoint]:
    """All p^(e-1) points over (0 : 1 : 0), in X order."""
    f = compute_f(curve)
    p, e = f.p, f.e
    return [infinity_point(curve, t * p, f) for t in range(p ** (e - 1))]


def kernel_generator(curve: Curve) -> CurvePoint:
    """(p : 1 : f(p)), a generator of ker(E(Z/p^eZ) -> E(F_p)) of order p^(e-1)."""
    f = compute_f(curve)
    if f.e == 1:
        return curve.identity()
    return infinity_point(curve, f.p, f)


def _kernel_x(c: Curve, k: int, xyz: tuple[int, int, int]) -> int | None:
    """X of k * xyz if that multiple is over infinity, (X : 1 : Z) with p | X and p | Z; else None."""
    p = c.modulus.as_prime_power()[0]
    x, y, z = c.scalar_xyz(k, xyz)
    return x if y == 1 and x % p == 0 and z % p == 0 else None


def lift_point(c: Curve, point: CurvePoint, target: Curve) -> CurvePoint:
    """Hensel-lift a point of E(F_p) to a curve mod p^e that reduces to c.

    Newton iteration corrects Y with X fixed, or X with Y fixed for
    2-torsion points (curve._hensel_lift).  O lifts to O.  p^e is read
    from the target, whose coefficients may differ from c's by multiples
    of p.
    """
    p, k = c.modulus.as_prime_power()
    if k != 1:
        raise ZnecError(f"lift source must be mod a prime, got {c.n}")
    if not isinstance(target, Curve) or target.n % p or target.reduced(c.modulus) != c:
        raise ZnecError(f"{target!r} does not reduce to {c!r}")
    e = target.modulus.as_prime_power()[1]
    xyz = c._xyz(point)
    if xyz == (0, 1, 0):
        return target.identity()
    return target.point(*_hensel_lift(target.a, target.b, xyz[0], xyz[1], p, e))


def theta(c: Curve, point: CurvePoint) -> int:
    """Theta(P) = X / p^(e-1) mod p, where p^(e-1) P = (X : 1 : f(X)), in [0, p).

    Defined on curves mod p^e (e >= 2) whose group is cyclic of order
    p^e; there it is a surjective homomorphism onto F_p with kernel
    <(p : 1 : f(p))>.  On a split anomalous curve the multiple is always
    O and Theta degenerates to 0.  If the multiple lands on an affine
    point (which means the curve was not anomalous at all), NotCyclic.
    """
    p, e = c.modulus.as_prime_power()
    if e < 2:
        raise ZnecError(f"theta needs e >= 2, got modulus {c.n}")
    xyz = c._xyz(point)
    if (x := _kernel_x(c, p ** (e - 1), xyz)) is None or x % p ** (e - 1):
        raise NotCyclic(f"{p}^{e - 1} * {xyz} is not over infinity with {p}^{e - 1} | X")
    return x // p ** (e - 1)
