"""The points of E(Z/p^eZ) lying over (0 : 1 : 0), and their arithmetic.

On the chart Y = 1 the curve reads Z = X^3 + A X Z^2 + B Z^3.  Its
solution Z = f(X) mod X^e (terms of degree >= e vanish when p | X) is a
polynomial f(X) = X^3 + A X^7 + B X^9 + ... of degree < e, built one
coefficient at a time by the formal-group recurrence (AEC IV.1): the
x^k coefficient reads only lower ones, so each is final once written.
The points over infinity are then exactly (X : 1 : f(X)) for the
p^(e-1) values X divisible by p, they form the kernel of reduction mod
p, and that kernel is cyclic generated by (p : 1 : f(p)).  To first
approximation the X-coordinate is additive: X3 = X1 + X2 mod
p^(5 min(vp X1, vp X2)).

Lifts from E(F_p) and Theta live here too, and theta and structure.phi_map
read a multiple over infinity through one test, _kernel_x.
"""

from __future__ import annotations

from .curve import Curve, CurvePoint
from .errors import NotCyclic, ZnecError


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
    """The solution f of f = x^3 + A x f^2 + B f^3 mod (x^e, p^e), in one pass.

    Comparing x^k coefficients gives the formal-group recurrence
    f_k = [k = 3] + A (f^2)_(k-1) + B (f^3)_k (Silverman, AEC IV.1).
    Since f has no terms below x^3, (f^2)_j reads only f_i with
    i <= j - 3 and (f^3)_k only (f^2)_j with j <= k - 3, so each
    coefficient is final once written.  For e <= 3 everything truncates
    away and f = 0; for e = 10 the result is exactly x^3 + A x^7 + B x^9.
    Silverman's w = z^3 + A z^7 + B z^9 + 2A^2 z^11 + 5AB z^13 + ...:

    >>> from .curve import new_curve
    >>> compute_f(new_curve(2, 3, 7**14, factorization=((7, 14),))).coefficients()
    (0, 0, 0, 1, 0, 0, 0, 2, 0, 3, 0, 8, 0, 30)
    """
    p, e = curve.modulus.as_prime_power()
    pe = curve.n
    f, f2 = [0] * e, [0] * e  # f2[j] is the x^j coefficient of f^2, written at k = j + 1
    for k in range(3, e):
        f2[k - 1] = sum(f[i] * f[k - 1 - i] for i in range(3, k - 3)) % pe
        f3 = sum(f2[j] * f[k - j] for j in range(6, k - 2))
        f[k] = ((k == 3) + curve.a * f2[k - 1] + curve.b * f3) % pe
    return InfinityPolynomial(curve, p, e, tuple(f))


def infinity_point(curve: Curve, x: int, f: InfinityPolynomial) -> CurvePoint:
    """The point (X : 1 : f(X)) for p | X, with f = compute_f(curve)."""
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
    return infinity_point(curve, f.p, f)


def _kernel_x(c: Curve, k: int, xyz: tuple[int, int, int]) -> int | None:
    """X of k * xyz if that multiple is over infinity, (X : 1 : Z) with p | X and p | Z; else None."""
    p = c.modulus.as_prime_power()[0]
    x, y, z = c.scalar_xyz(k, xyz)
    return x if y == 1 and x % p == 0 and z % p == 0 else None


def _hensel_lift(a: int, b: int, x: int, y: int, p: int, e: int) -> tuple[int, int]:
    """Lift a point (x, y) of y^2 = x^3 + a x + b from F_p to Z/p^eZ.

    Newton iteration at doubling precision corrects Y with X fixed,
    Y <- Y + (rhs(X) - Y^2) / (2Y), while 2Y is a unit.  For 2-torsion
    points (p | Y) the roles swap and X is corrected instead, 3X^2 + A
    being a unit there on any nonsingular curve.
    """
    prec = 1
    while prec < e:
        prec = min(2 * prec, e)
        m = p**prec
        r = (x * x * x + a * x + b - y * y) % m
        if y % p:
            y = (y + r * pow(2 * y, -1, m)) % m
        else:
            x = (x - r * pow(3 * x * x + a, -1, m)) % m
    return x, y


def lift_point(c: Curve, point: CurvePoint, target: Curve) -> CurvePoint:
    """Hensel-lift a point of E(F_p) to a curve mod p^e that reduces to c.

    Newton iteration corrects Y with X fixed, or X with Y fixed for
    2-torsion points (infinity._hensel_lift).  O lifts to O.  p^e is read
    from the target, whose coefficients may differ from c's by multiples
    of p.
    """
    p = c.modulus.as_prime()
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
