"""Elliptic curves over Z/NZ with a group law valid at every point pair.

The curve is the short Weierstrass model Y^2 Z = X^3 + A X Z^2 + B Z^3 in
P^2(Z/NZ), with gcd(6, N) = 1 and the discriminant -(4A^3 + 27B^2) a unit.
Addition evaluates two bidegree-(2,2) polynomial triples S and T that
together cover all input pairs.  T is the complete law of Renes, Costello
and Batina (Eurocrypt 2016, eprint 2015/1060, Alg. 1) and S shares its
intermediates.  With xy+ = X1 Y2 + X2 Y1, xy- = X1 Y2 - X2 Y1, and xz+-,
yz+- formed the same way,
    u = A xz+ + 3B Z1 Z2,  w = 3 X1 X2 + A Z1 Z2,  m = Y1 Y2 - u,
    v = 3B xz+ + A (X1 X2 - A Z1 Z2),
    S = (xy- yz+ + xz- m,  -(xy- w + yz- m),  xz- w - yz- yz+),
    T = (xy+ m - yz+ v,  m (Y1 Y2 + u) + w v,  yz+ (Y1 Y2 + u) + xy+ w).
A doubling reads the six squares and cross products of one triple
(RCB Alg. 3) instead of the nine general products.

Over each Z/p^eZ whichever output is primitive mod p represents the sum,
so the law is chosen prime by prime (S where it is primitive, else T) and
the raw sum is S + eps_T (T - S), eps_T the sum of the CRT idempotents of
the primes that take T.  Each law is evaluated only when needed: S
vanishes on a doubling, T is read where S is not.  Scaling to canonical
form is left to projective.canonical_triple, which a scalar
multiplication (one signed-digit loop: the bits of k below 24 bits, a
width-4 or width-5 NAF from there on) calls once, after its last
addition.  There is no case split on the inputs, so points over
infinity (Z not a unit) are handled by the same formulas as affine ones.
"""

from __future__ import annotations

import math

from .errors import BadCharacteristic, BothLawsVanish, PointNotOnCurve, SingularCurve, ZnecError
# crt_ints is not called here; bench/tracer.py patches znec.curve.crt_ints by name
from .modring import Modulus, crt_ints, factorize
from .projective import canonical_triple


class _AdditionCounter:
    """Counts group-law evaluations; lets tests assert operation budgets."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def reset(self) -> int:
        before, self.value = self.value, 0
        return before


ADDITIONS = _AdditionCounter()
_WNAF_MIN_BITS = 24  # scalar_xyz's NAF ladder from here; below, it saves < 3 additions a call
_WNAF_W5_BITS = 106  # its width is 5 from here, 4 below: where their mean additions cross


class Curve:
    """E_{A,B}(Z/NZ) together with the constants the group law reuses."""

    __slots__ = ("modulus", "n", "a", "b", "_b3")

    def __init__(self, a: int, b: int, modulus: Modulus):
        n = modulus.n
        g6 = math.gcd(6, n)
        if g6 != 1:
            raise BadCharacteristic(n, g6)
        a %= n
        b %= n
        g = math.gcd(4 * a * a * a + 27 * b * b, n)
        if g != 1:
            raise SingularCurve(n, g)
        self.modulus = modulus
        self.n = n
        self.a = a
        self.b = b
        self._b3 = 3 * b % n

    # --- basic structure ------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Curve) and (self.n, self.a, self.b) == (other.n, other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.n, self.a, self.b))

    def __repr__(self) -> str:
        return f"E_{{{self.a},{self.b}}}(Z/{self.n})"

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

    def reduced(self, modulus: Modulus) -> "Curve":
        """The curve mod M for M | N."""
        if self.n % modulus.n:
            raise ZnecError(f"{modulus.n} does not divide {self.n}")
        return Curve(self.a % modulus.n, self.b % modulus.n, modulus)

    def component(self, p: int, e: int) -> "Curve":
        """The curve mod p^e, for a prime power p^e dividing N."""
        return self if self.n == p**e else self.reduced(self.modulus.component(p, e))

    # --- the two addition laws -------------------------------------------

    def _law_products(self, p1: tuple[int, int, int], p2: tuple[int, int, int]):
        """xy+-, xz+-, yz+-, X1 X2, Y1 Y2, A Z1 Z2, u, w and m, which both laws read.

        On the diagonal p1 == p2 the six squares and cross products of one
        triple replace the nine general products (RCB Alg. 3); the tuple is
        the same as the general one, with every difference 0.  w and m are
        left unreduced, as every law output is reduced mod N.
        """
        n = self.n
        x1, y1, z1 = p1
        if p1 == p2:
            xx, yy, zz = x1 * x1 % n, y1 * y1 % n, z1 * z1 % n
            xy_p, xz_p, yz_p = 2 * x1 * y1 % n, 2 * x1 * z1 % n, 2 * y1 * z1 % n
            xy_m = xz_m = yz_m = 0
        else:
            x2, y2, z2 = p2
            xx, yy, zz = x1 * x2 % n, y1 * y2 % n, z1 * z2 % n
            xy, yx, xz, zx, yz, zy = x1 * y2, x2 * y1, x1 * z2, x2 * z1, y1 * z2, y2 * z1
            xy_p, xy_m = (xy + yx) % n, (xy - yx) % n
            xz_p, xz_m = (xz + zx) % n, (xz - zx) % n
            yz_p, yz_m = (yz + zy) % n, (yz - zy) % n
        az = self.a * zz % n
        u = (self.a * xz_p + self._b3 * zz) % n
        return xy_p, xy_m, xz_p, xz_m, yz_p, yz_m, xx, yy, az, u, 3 * xx + az, yy - u

    def _law_s(self, products) -> tuple[int, int, int]:
        """S from u, w and m; it vanishes when both inputs are the same triple."""
        xy_p, xy_m, xz_p, xz_m, yz_p, yz_m, _, _, _, _, w, m = products
        n = self.n
        return (xy_m * yz_p + xz_m * m) % n, -(xy_m * w + yz_m * m) % n, (xz_m * w - yz_m * yz_p) % n

    def _law_t(self, products) -> tuple[int, int, int]:
        """T (RCB Alg. 1) from u, w, m and v; the sum where S is imprimitive, doublings included."""
        xy_p, _, xz_p, _, yz_p, _, xx, yy, az, u, w, m = products
        n = self.n
        v = (self._b3 * xz_p + self.a * (xx - az)) % n
        return (xy_p * m - yz_p * v) % n, (m * (yy + u) + w * v) % n, (yz_p * (yy + u) + xy_p * w) % n

    def add_xyz(
        self, p1: tuple[int, int, int], p2: tuple[int, int, int], *, canonical: bool = True
    ) -> tuple[int, int, int]:
        """p1 + p2, canonical or, with canonical=False, raw.  Inputs must be on the curve.

        Prime by prime the sum is S where S is primitive mod p, else T.  The
        raw sum is S or T itself when one law serves every prime, else
        S + eps_T (T - S) mod N.  S is skipped on a doubling (p1 == p2), where
        it vanishes, and T is evaluated only once S is imprimitive mod some p.
        """
        ADDITIONS.value += 1
        products = self._law_products(p1, p2)
        s = None if p1 == p2 else self._law_s(products)
        t = None
        eps_t = 0  # the idempotents of the primes that take T, summed
        for p, _, eps in self.modulus.parts:
            if s is not None and (s[0] % p or s[1] % p or s[2] % p):
                continue
            if t is None:
                t = self._law_t(products)
            if not (t[0] % p or t[1] % p or t[2] % p):
                raise BothLawsVanish(p)
            eps_t += eps
        if t is None:
            raw = s
        elif s is None:
            raw = t
        else:  # S mod the primes that take S, T mod the rest
            n = self.n
            raw = tuple((u + eps_t * (v - u)) % n for u, v in zip(s, t))
        return canonical_triple(*raw, self.modulus) if canonical else raw

    def neg_xyz(self, p: tuple[int, int, int]) -> tuple[int, int, int]:
        """The raw triple (x, -y, z) of -p; canonical_triple puts it in canonical form."""
        return p[0], -p[1] % self.n, p[2]

    def scalar_xyz(self, k: int, p: tuple[int, int, int]) -> tuple[int, int, int]:
        """k p from raw additions, canonical after the last one; k < 0 uses -p.

        One signed-digit loop, top digit first: the bits of k below _WNAF_MIN_BITS
        bits, else a width-w NAF (Hankerson-Menezes-Vanstone, Alg. 3.35) over raw
        odd multiples d p, 0 < d < 2^(w-1), and negations; w = 5 from _WNAF_W5_BITS
        bits, else 4.  Mean additions (binary, w = 4, w = 5) at 19, 24 and 160 bits:
        27.0, 25.3, 28.1; 34.5, 31.2, 34.0; 238.5, 194.4, 192.6.
        """
        if k < 0:
            k, p = -k, self.neg_xyz(p)
        if k == 0:
            return (0, 1, 0)
        if k.bit_length() < _WNAF_MIN_BITS:
            digits, table = [k >> i & 1 for i in range(k.bit_length())], [p]
        else:
            half = 8 if k.bit_length() < _WNAF_W5_BITS else 16  # 2^(w-1)
            digits = []  # k = sum of digits[i] 2^i, each 0 or odd in (-half, half)
            while k:
                digits.append((k + half) % (2 * half) - half if k & 1 else 0)
                k = (k - digits[-1]) >> 1
            table, twice = [p], self.add_xyz(p, p, canonical=False)
            while len(table) < half // 2:  # table[d >> 1] = d p for odd d
                table.append(self.add_xyz(table[-1], twice, canonical=False))
            table += [self.neg_xyz(q) for q in reversed(table)]
        acc = table[digits.pop() >> 1]
        for d in reversed(digits):
            acc = self.add_xyz(acc, acc, canonical=False)
            if d:
                acc = self.add_xyz(acc, table[d >> 1], canonical=False)
        return canonical_triple(*acc, self.modulus)

    def _xyz(self, p: "CurvePoint") -> tuple[int, int, int]:
        """The triple of a point on this curve; anything else is an error.

        Every public entry that takes a point checks it here, so a raw
        triple or a point of another curve never reaches the law.
        """
        if not isinstance(p, CurvePoint):
            raise ZnecError(f"{p!r} is not a CurvePoint of {self!r}")
        if p.curve != self:
            raise ZnecError(f"{p!r} belongs to {p.curve!r}, not to {self!r}")
        return p.xyz


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

    def reduced(self, target: Curve) -> "CurvePoint":
        """Image on target, which must be this point's curve mod some M | N."""
        c = self.curve
        if not isinstance(target, Curve) or c.n % target.n or c.reduced(target.modulus) != target:
            raise ZnecError(f"{target!r} is not {c!r} reduced mod a divisor of {c.n}")
        return CurvePoint(target, tuple(v % target.n for v in self.xyz))

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        c = self.curve
        return CurvePoint._make(c, c.add_xyz(self.xyz, c._xyz(other)))

    def __neg__(self) -> "CurvePoint":
        c = self.curve
        return CurvePoint._make(c, canonical_triple(*c.neg_xyz(self.xyz), c.modulus))

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        c = self.curve
        return CurvePoint._make(c, c.add_xyz(self.xyz, c.neg_xyz(c._xyz(other))))

    def __rmul__(self, k: int) -> "CurvePoint":
        return CurvePoint._make(self.curve, self.curve.scalar_xyz(k, self.xyz))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CurvePoint)
            and self.curve == other.curve
            and self.xyz == other.xyz
        )

    def __hash__(self) -> int:
        return hash((self.curve.n, self.xyz))

    def __repr__(self) -> str:
        return f"({self.xyz[0]} : {self.xyz[1]} : {self.xyz[2]})"


def new_curve(a: int, b: int, n: int, factorization=None) -> Curve:
    """Build E_{A,B}(Z/NZ), validating the characteristic and discriminant.

    >>> new_curve(7, 3, 169)
    E_{7,3}(Z/169)
    """
    return Curve(int(a), int(b), Modulus(int(n), factorization))


def point_order(p: CurvePoint, multiple: int) -> int:
    """Exact order of p given a known positive multiple of it (e.g. the group order).

    Per l^a exactly dividing the multiple, (multiple / l^a) p is multiplied
    by l until it reaches O; the steps taken are the l-part of the order.
    """
    if not isinstance(p, CurvePoint):
        raise ZnecError(f"{p!r} is not a CurvePoint")
    if multiple == 1 and p.is_identity():
        return 1
    if multiple <= 1:
        raise ZnecError(f"{multiple} is not a positive multiple of the order of {p}")
    order = 1
    for q, e in factorize(multiple):
        t = p.curve.scalar_xyz(multiple // q**e, p.xyz)
        while t != (0, 1, 0):
            if order % q**e == 0:  # e steps by q did not reach O
                raise ZnecError(f"{multiple} is not a multiple of the order of {p}")
            t = p.curve.scalar_xyz(q, t)
            order *= q
    return order
