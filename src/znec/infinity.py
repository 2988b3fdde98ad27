"""The points of E(Z/p^eZ) lying over (0 : 1 : 0), and their arithmetic.

On the chart Y = 1 the curve reads Z = X^3 + A X Z^2 + B Z^3.  Its
solution Z = f(X) mod X^e (terms of degree >= e vanish when p | X) is
the fixed point of that equation, a polynomial f(X) = X^3 + A X^7 +
B X^9 + ... of degree < e.  The points over infinity are then exactly
(X : 1 : f(X)) for the p^(e-1) values X divisible by p, they form the
kernel of reduction mod p, and that kernel is cyclic generated by
(p : 1 : f(p)).  To first approximation the X-coordinate is additive:
X3 = X1 + X2 mod p^(5 min(vp X1, vp X2)).
"""

from __future__ import annotations

from .curve import Curve, CurvePoint
from .modring import RingElement, vp_int


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

    def evaluate(self, x) -> RingElement:
        return self.curve.modulus.element(self.evaluate_int(int(x)))

    def coefficients(self) -> tuple[int, ...]:
        return self.coeffs

    def degree(self) -> int:
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return -1

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
        raise ValueError(f"{x} is not divisible by {f.p}")
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


def infinity_sum_check(curve: Curve, x1: int, x2: int) -> tuple[RingElement, int]:
    """Add two infinity points and compare X3 against X1 + X2.

    Returns (X3, valuation of the difference X3 - (X1 + X2)) and raises
    AssertionError if the congruence mod p^(5 min(vp X1, vp X2)) fails,
    which would mean the group law and the infinity parameterization
    disagree.
    """
    f = compute_f(curve)
    p, e = f.p, f.e
    pe = curve.n
    x1, x2 = int(x1) % pe, int(x2) % pe
    p1 = infinity_point(curve, x1, f)
    p2 = infinity_point(curve, x2, f)
    s = curve.add_xyz(p1.xyz, p2.xyz)
    if s[1] != 1:
        raise AssertionError(f"sum of infinity points left the infinity chart: {s}")
    x3 = s[0]
    bound = min(e, 5 * min(vp_int(x1, p, e), vp_int(x2, p, e)))
    val = vp_int(x3 - (x1 + x2), p, e)
    if val < bound:
        raise AssertionError(
            f"X3 = {x3} differs from X1 + X2 = {(x1 + x2) % pe} at valuation {val} < {bound}"
        )
    return curve.modulus.element(x3), val
