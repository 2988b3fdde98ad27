"""Elliptic curves over Z/NZ with a group law valid at every point pair.

The curve is the short Weierstrass model Y^2 Z = X^3 + A X Z^2 + B Z^3 in
P^2(Z/NZ), with gcd(6, N) = 1 and the discriminant -(4A^3 + 27B^2) a unit.
Addition evaluates two bidegree-(2,2) polynomial triples S and T that
together cover all input pairs.  Over each Z/p^eZ whichever output is
primitive mod p represents the sum, so the sum is chosen prime by prime
(S where it is primitive, else T), canonicalized, and glued with CRT.
There is no case split on the inputs, so points over infinity (Z not a
unit) are handled by the same formulas as affine ones.
"""

from __future__ import annotations

import itertools
import math

from . import budgets
from .errors import (
    BadCharacteristic,
    BothLawsVanish,
    BudgetExceeded,
    PointNotOnCurve,
    SingularCurve,
    ZnecError,
)
# crt_ints is not called here; bench/tracer.py patches znec.curve.crt_ints by name
from .modring import Modulus, RingElement, crt_ints
from .projective import ProjectivePoint, _canonical_prime_power, _crt_triple, canonical_triple


class _AdditionCounter:
    """Counts group-law evaluations; lets tests assert operation budgets."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def reset(self) -> int:
        before, self.value = self.value, 0
        return before


ADDITIONS = _AdditionCounter()


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod p (Tonelli-Shanks), or None for non-residues."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _fp_root(a: int, b: int, x: int, p: int) -> int | None:
    """A y with y^2 = x^3 + a x + b over F_p, or None when x has no point above it."""
    return _sqrt_mod_prime((x * x * x + a * x + b) % p, p)


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


class Curve:
    """E_{A,B}(Z/NZ) together with the constants the group law reuses."""

    __slots__ = ("modulus", "a", "b", "disc", "_b3", "_aa", "_t2k")

    def __init__(self, a: int, b: int, modulus: Modulus):
        n = modulus.n
        if n < 2:
            raise ZnecError(f"modulus must be at least 2: {n}")
        g6 = math.gcd(6, n)
        if g6 != 1:
            raise BadCharacteristic(n, g6)
        a %= n
        b %= n
        disc = -(4 * a * a * a + 27 * b * b) % n
        g = math.gcd(disc, n)
        if g != 1:
            raise SingularCurve(n, g)
        self.modulus = modulus
        self.a = a
        self.b = b
        self.disc = disc
        self._b3 = 3 * b % n
        self._aa = a * a % n
        self._t2k = (a * a * a + 9 * b * b) % n

    # --- basic structure ------------------------------------------------

    @property
    def n(self) -> int:
        return self.modulus.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Curve)
            and self.n == other.n
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.n, self.a, self.b))

    def __repr__(self) -> str:
        return f"E_{{{self.a},{self.b}}}(Z/{self.n})"

    def discriminant(self) -> RingElement:
        return self.modulus.element(self.disc)

    def rhs(self, x: int) -> int:
        """x^3 + A x + B mod N."""
        n = self.n
        return (pow(x, 3, n) + self.a * x + self.b) % n

    def identity(self) -> "CurvePoint":
        return CurvePoint._make(self, (0, 1, 0))

    def on_curve_triple(self, xyz: tuple[int, int, int]) -> bool:
        x, y, z = xyz
        n = self.n
        lhs = y * y % n * z % n
        rhs = (x * x % n * x + self.a * x % n * z % n * z + self.b * z % n * z % n * z) % n
        return lhs == rhs

    def point(self, x: int, y: int, z: int = 1) -> "CurvePoint":
        return CurvePoint(self, (int(x), int(y), int(z)))

    def contains(self, point) -> bool:
        if isinstance(point, CurvePoint):
            return point.curve == self and self.on_curve_triple(point.xyz)
        if isinstance(point, ProjectivePoint):
            return point.modulus.n == self.n and self.on_curve_triple(point.xyz)
        return self.on_curve_triple(tuple(int(c) for c in point))

    def reduced(self, modulus: Modulus) -> "Curve":
        """The curve mod M for M | N."""
        if self.n % modulus.n:
            raise ValueError(f"{modulus.n} does not divide {self.n}")
        return Curve(self.a % modulus.n, self.b % modulus.n, modulus)

    def component(self, p: int, e: int) -> "Curve":
        """The curve mod p^e, for a prime power p^e dividing N."""
        return self if self.n == p**e else self.reduced(Modulus.prime_power(p, e))

    def reduce_point(self, point: "CurvePoint", target: "Curve") -> "CurvePoint":
        x, y, z = point.xyz
        m = target.n
        return CurvePoint(target, (x % m, y % m, z % m))

    # --- the two addition laws -------------------------------------------

    def _laws(self, p1: tuple[int, int, int], p2: tuple[int, int, int]):
        """Evaluate the S and T triples for a pair of coordinate triples."""
        n = self.n
        a = self.a
        b3 = self._b3
        x1, y1, z1 = p1
        x2, y2, z2 = p2

        x1y2 = x1 * y2 % n
        x2y1 = x2 * y1 % n
        x1z2 = x1 * z2 % n
        x2z1 = x2 * z1 % n
        y1z2 = y1 * z2 % n
        y2z1 = y2 * z1 % n
        x1x2 = x1 * x2 % n
        y1y2 = y1 * y2 % n
        z1z2 = z1 * z2 % n

        xy_m = (x1y2 - x2y1) % n
        xz_m = (x1z2 - x2z1) % n
        yz_m = (y1z2 - y2z1) % n
        xz_p = (x1z2 + x2z1) % n
        yz_p = (y1z2 + y2z1) % n

        s1 = (xy_m * yz_p + xz_m * y1y2 - a * xz_m % n * xz_p - b3 * xz_m % n * z1z2) % n
        s2 = (
            -3 * x1x2 * xy_m
            - y1y2 * yz_m
            - a * xy_m % n * z1z2
            + a * yz_m % n * xz_p
            + b3 * yz_m % n * z1z2
        ) % n
        s3 = (3 * x1x2 * xz_m - yz_m * yz_p + a * xz_m % n * z1z2) % n

        xy_p = (x1y2 + x2y1) % n
        aa = self._aa
        t1 = (
            y1y2 * xy_p
            - a * x1x2 % n * yz_p
            - a * xy_p % n * xz_p
            - b3 * xy_p % n * z1z2
            - b3 * xz_p % n * yz_p
            + aa * yz_p % n * z1z2
        ) % n
        t2 = (
            y1y2 * y1y2
            + 3 * a * x1x2 % n * x1x2
            + 3 * b3 * x1x2 % n * xz_p
            - aa * x1z2 % n * (x1z2 + 2 * x2z1)
            - aa * x2z1 % n * (2 * x1z2 + x2z1)
            - a * b3 % n * z1z2 % n * xz_p
            - self._t2k * z1z2 % n * z1z2
        ) % n
        t3 = (
            3 * x1x2 * xy_p
            + y1y2 * yz_p
            + a * xy_p % n * z1z2
            + a * xz_p % n * yz_p
            + b3 * yz_p % n * z1z2
        ) % n

        return (s1, s2, s3), (t1, t2, t3)

    def add_xyz(self, p1: tuple[int, int, int], p2: tuple[int, int, int]) -> tuple[int, int, int]:
        """Canonical triple of p1 + p2.  Inputs must be on the curve.

        Prime by prime, the canonical form of the S output when it is
        primitive mod p, else that of T, glued with CRT.
        """
        ADDITIONS.value += 1
        s, t = self._laws(p1, p2)
        parts = []
        for p, _, pe in self.modulus.components():
            part = _canonical_prime_power(*s, p, pe) or _canonical_prime_power(*t, p, pe)
            if part is None:
                raise BothLawsVanish(p)
            parts.append((part, pe))
        return _crt_triple(parts)

    def neg_xyz(self, p: tuple[int, int, int]) -> tuple[int, int, int]:
        x, y, z = p
        return canonical_triple(x, (-y) % self.n, z, self.modulus)

    def scalar_xyz(self, k: int, p: tuple[int, int, int]) -> tuple[int, int, int]:
        """Double-and-add; negative k multiplies -p."""
        if k < 0:
            k, p = -k, self.neg_xyz(p)
        acc = (0, 1, 0)
        if k == 0:
            return acc
        for bit in bin(k)[2:]:
            acc = self.add_xyz(acc, acc)
            if bit == "1":
                acc = self.add_xyz(acc, p)
        return acc

    def add(self, p1: "CurvePoint", p2: "CurvePoint") -> "CurvePoint":
        if p1.curve != self or p2.curve != self:
            raise ValueError("points belong to a different curve")
        return CurvePoint._make(self, self.add_xyz(p1.xyz, p2.xyz))

    def neg(self, p: "CurvePoint") -> "CurvePoint":
        return CurvePoint._make(self, self.neg_xyz(p.xyz))

    def scalar_mul(self, k: int, p: "CurvePoint") -> "CurvePoint":
        return CurvePoint._make(self, self.scalar_xyz(k, p.xyz))

    # --- enumeration -------------------------------------------------------

    def _component_points(self, p: int, e: int, budget: int) -> list[tuple[int, int, int]]:
        """All points of the curve mod p^e, as canonical triples.

        Every point sits over an F_p point: affine fibers are walked by
        fixing one coordinate per residue class and Hensel-lifting the
        other (the curve is nonsingular, so one partial derivative is a
        unit), and the fiber over (0 : 1 : 0) is X -> (X : 1 : f(X)).
        """
        pe = p**e
        cp = self.component(p, e)
        base_affine = []
        for x0 in range(p):
            y0 = _fp_root(cp.a, cp.b, x0, p)
            if y0 is None:
                continue
            base_affine.append((x0, y0))
            if y0 != 0:
                base_affine.append((x0, p - y0))
        total = (len(base_affine) + 1) * p ** (e - 1)
        if total > budget:
            raise BudgetExceeded(f"{total} points exceeds budget {budget}")
        points = []
        for x0, y0 in base_affine:
            for t in range(p ** (e - 1)):
                # walk the fiber along the coordinate the lift keeps fixed
                x, y = (x0 + t * p, y0) if y0 else (x0, t * p)
                x, y = _hensel_lift(cp.a, cp.b, x, y, p, e)
                points.append((x, y, 1))
        from .infinity import compute_f  # local import: infinity builds on curve

        f = compute_f(cp)
        for t in range(p ** (e - 1)):
            x = t * p
            points.append((x % pe, 1, f.evaluate_int(x)))
        return points

    def enumerate_points(self, budget: int | None = None) -> list["CurvePoint"]:
        """Every point of E(Z/NZ), canonical and sorted, CRT-glued from components.

        Raises BudgetExceeded before doing the work if the total count
        would pass the (ZNEC_BUDGET-controllable) limit.
        """
        if budget is None:
            budget = budgets.resolve(budgets.ENUMERATE_POINTS)
        components = self.modulus.components()
        comp_points = []
        total = 1
        for p, e, _ in components:
            pts = self._component_points(p, e, budget)
            total *= len(pts)
            if total > budget:
                raise BudgetExceeded(f"{total}+ points exceeds budget {budget}")
            comp_points.append(pts)
        moduli = [pe for _, _, pe in components]
        triples = sorted(
            _crt_triple(list(zip(combo, moduli))) for combo in itertools.product(*comp_points)
        )
        return [CurvePoint._make(self, t) for t in triples]


class CurvePoint:
    """A point on a specific curve; operators delegate to the curve law."""

    __slots__ = ("curve", "xyz")

    def __init__(self, curve: Curve, xyz: tuple[int, int, int]):
        triple = canonical_triple(xyz[0], xyz[1], xyz[2], curve.modulus)
        if not curve.on_curve_triple(triple):
            raise PointNotOnCurve(f"{triple} does not satisfy {curve!r}")
        self.curve = curve
        self.xyz = triple

    @classmethod
    def _make(cls, curve: Curve, triple: tuple[int, int, int]) -> "CurvePoint":
        """Wrap a triple that is already canonical and known to be on the curve."""
        self = object.__new__(cls)
        self.curve = curve
        self.xyz = triple
        return self

    def is_identity(self) -> bool:
        return self.xyz == (0, 1, 0)

    def projective(self) -> ProjectivePoint:
        return ProjectivePoint(self.curve.modulus, *self.xyz)

    def coords(self) -> tuple[RingElement, RingElement, RingElement]:
        m = self.curve.modulus
        return tuple(m.element(c) for c in self.xyz)

    def reduced(self, target) -> "CurvePoint":
        if isinstance(target, Modulus):
            target = self.curve.reduced(target)
        return self.curve.reduce_point(self, target)

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        return self.curve.add(self, other)

    def __neg__(self) -> "CurvePoint":
        return self.curve.neg(self)

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        return self.curve.add(self, self.curve.neg(other))

    def __rmul__(self, k: int) -> "CurvePoint":
        return self.curve.scalar_mul(k, self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CurvePoint)
            and self.curve == other.curve
            and self.xyz == other.xyz
        )

    def __hash__(self) -> int:
        return hash((self.curve.n, self.xyz))

    def as_json(self) -> list[str]:
        return [str(c) for c in self.xyz]

    def __repr__(self) -> str:
        return f"({self.xyz[0]} : {self.xyz[1]} : {self.xyz[2]})"


def new_curve(a: int, b: int, n: int, factorization=None) -> Curve:
    """Build E_{A,B}(Z/NZ), validating the characteristic and discriminant.

    >>> new_curve(7, 3, 169)
    E_{7,3}(Z/169)
    """
    return Curve(int(a), int(b), Modulus(int(n), factorization))


def point_order(p: CurvePoint, multiple: int) -> int:
    """Exact order of p given a known multiple of it (e.g. the group order)."""
    from .modring import factorize

    if p.curve.scalar_xyz(multiple, p.xyz) != (0, 1, 0):
        raise ValueError(f"{multiple} is not a multiple of the order of {p}")
    order = multiple
    for q, e in factorize(multiple) if multiple > 1 else ():
        for _ in range(e):
            candidate = order // q
            if p.curve.scalar_xyz(candidate, p.xyz) == (0, 1, 0):
                order = candidate
            else:
                break
    return order
