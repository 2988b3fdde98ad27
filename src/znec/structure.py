"""Group structure of E(Z/NZ): counting, classification, explicit maps.

|E(F_p)| is counted exactly, by a Legendre-symbol sum for small p and,
above a measured crossover, by Shanks-Mestre: the only m in the Hasse
interval with m P = O for every P drawn on E, and (2p + 2 - m) P = O on
its quadratic twist (even m only, for a non-square discriminant).  All F_p
work takes affine chord-and-tangent steps (_add_fp, _mul_fp; None for O),
except is_anomalous's projective p P.  The shape Z/n1 + Z/n2 is proved one
l-primary part at a time, by Weil pairings of the l-parts of drawn points,
for each l | gcd(|E(F_p)|, p-1) with l^2 | |E(F_p)|: only that gcd is
factored.  All points come from _draws, seeded by the curve, with y from
_sqrt_mod_prime (Tonelli-Shanks from one power of the radicand); one point
of order p certifies |E(F_p)| = p.  Over each component p^e of N the fiber
count gives |E(Z/p^eZ)| = p^(e-1) |E(F_p)|, and the structure is
E(F_p) + Z/p^(e-1)Z except when |E(F_p)| = p (the anomalous case), where
it is cyclic Z/p^eZ or F_p + Z/p^(e-1)Z, decided by Theta (infinity.theta)
of one lifted order-p point: 0 exactly when split.  classify() merges the
local cyclic orders into invariant factors by
Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from . import budgets
from .curve import ADDITIONS, Curve, CurvePoint
from .errors import NotAnomalous, SelfCheckFailed, ZnecError
from .infinity import _kernel_x, lift_point, theta
from .modring import factorize

NON_ANOMALOUS = "non-anomalous"
CYCLIC = "cyclic"
SPLIT = "split"

# _count_fp sums Legendre symbols up to _CROSSOVER.  Per count, best of 7 runs
# over 200 curves per p on one CPU (Python 3.11, shared 2-vCPU Xeon): the sum
# and the affine Shanks-Mestre both take 0.030 ms at p = 233, 0.061 and 0.035 ms
# at p = 401, and 0.34 and 0.043 ms at p = 2003.  Moving the constant changes
# what _count_cost charges, and so what rank admits under its budget.
# _draws yields _DRAWS points at most per count, per l-part or per anomalous component
_CROSSOVER = 2000
_DRAWS = 40


@dataclass(frozen=True)
class FieldCurveData:
    """What we know about E(F_p): order, trace and abstract shape."""

    p: int
    order: int
    trace: int
    shape: tuple[int, int]  # (n1, n2) with n2 | n1, n1*n2 = order, n2 | p-1


@dataclass(frozen=True)
class LocalStructure:
    """One prime-power component p^e of the classification."""

    p: int
    e: int
    case: str  # non-anomalous | cyclic | split
    fp_order: int
    factors: tuple[int, ...]  # cyclic orders of the component, each > 1

    def as_json(self) -> dict:
        return {
            "p": str(self.p),
            "e": self.e,
            "case": self.case,
            "fp_order": str(self.fp_order),
        }


@dataclass(frozen=True)
class GroupStructure:
    """Invariant factors d1 | d2 | ... | dk plus per-prime provenance."""

    n: int
    factors: tuple[int, ...]
    local: tuple[LocalStructure, ...]

    @property
    def order(self) -> int:
        return math.prod(self.factors) if self.factors else 1

    @property
    def rank(self) -> int:
        return len(self.factors)

    def describe(self) -> str:
        if not self.factors:
            return "trivial"
        return " ⊕ ".join(f"Z/{d}" for d in self.factors)

    def as_json(self) -> dict:
        return {
            "n": str(self.n),
            "order": str(self.order),
            "rank": self.rank,
            "factors": [str(d) for d in self.factors],
            "local": [loc.as_json() for loc in self.local],
        }


def _chain(orders) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ... of the sum of the Z/d, one cyclic order d each.

    Each d is folded down the chain, largest factor first, by
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); what is left over joins the end.

    >>> _chain([2, 4, 6])
    (2, 2, 12)
    """
    chain: list[int] = []  # chain[i + 1] | chain[i]
    for d in orders:
        for i, big in enumerate(chain):
            chain[i], d = math.lcm(big, d), math.gcd(big, d)
        if d > 1:
            chain.append(d)
    return tuple(reversed(chain))


@lru_cache(maxsize=64)
def _square_table(p: int) -> bytearray:
    table = bytearray(p)
    for y in range(p // 2 + 1):
        table[y * y % p] = 1
    return table


def _legendre_count(a: int, b: int, p: int) -> int:
    """1 + sum over x of (1 + chi(x^3 + ax + b)), read from a table of squares."""
    table = _square_table(p)
    count = 1
    for x in range(p):
        r = (x * x * x + a * x + b) % p
        if r == 0:
            count += 1
        elif table[r]:
            count += 2
    return count


def _slope_sum(a: int, p: int, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int]:
    """(m, x3, y3): the slope m through (x1, y1) and (x2, y2) and their sum (x3, y3) on E(F_p).

    The one chord-and-tangent formula over F_p, for y^2 = x^3 + a x + b:
    the chord when x1 != x2, else the tangent, so the points must be equal
    with y1 != 0 (the sum is never O here).
    """
    if x1 == x2:
        m = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        m = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (m * m - x1 - x2) % p
    return m, x3, (m * (x1 - x3) - y1) % p


def _add_fp(a: int, p: int, u: tuple[int, int] | None, v: tuple[int, int] | None) -> tuple[int, int] | None:
    """u + v on E(F_p), points affine (x, y) with None for O; one step, counted in ADDITIONS."""
    ADDITIONS.value += 1
    if u is None:
        return v
    if v is None:
        return u
    (x1, y1), (x2, y2) = u, v
    if x1 == x2 and (y1 + y2) % p == 0:  # v = -u, doublings of 2-torsion included
        return None
    _, x3, y3 = _slope_sum(a, p, x1, y1, x2, y2)
    return x3, y3


def _mul_fp(a: int, p: int, k: int, pt: tuple[int, int]) -> tuple[int, int] | None:
    """k pt for an affine pt != O, by binary double-and-add in _add_fp steps; k < 0 uses -pt.

    Below 24 bits it takes as many steps as Curve.scalar_xyz, which runs a NAF from there on.
    """
    if k < 0:
        k, pt = -k, (pt[0], -pt[1] % p)
    if k == 0:
        return None
    acc = pt
    for bit in bin(k)[3:]:
        acc = _add_fp(a, p, acc, acc)
        if bit == "1":
            acc = _add_fp(a, p, acc, pt)
    return acc


def _bsgs(a: int, p: int, pt: tuple[int, int], n0: int, step: int, count: int) -> range:
    """Every k < count with (n0 + k step) pt = O on E(F_p), as a range k0 + d Z cut to [0, count).

    Points are affine, None for O; d is the order of g = step pt, and with
    n0 = m step + rho the matches are the k with (m + k) g = -rho pt.  Baby
    steps j g, 0 <= j <= s, are keyed by x (None for O) and keep y, so a
    giant step -rho pt - (m + i) g matches k = i +- j (Shanks).  A repeated
    baby key gives d <= 2s + 1, and one lookup of -rho pt the matches;
    otherwise the first two hits give d, and a single hit over the whole
    range is the only match.  With m = q (2s + 1) + r - s, 0 <= r <= 2s,
    the first giant step, at i = s - r, is -rho pt - q G for the stride
    G = (2s + 1) g: a ladder by q, not by n0.
    """
    g = _mul_fp(a, p, step, pt)
    m, rho = divmod(n0, step)
    minus_rho = _mul_fp(a, p, -rho, pt)
    s = math.isqrt(count // 2) + 1
    baby: dict[int | None, tuple[int, int | None]] = {}  # x of j g -> (j, y)
    prev, acc = None, None
    for j in range(s + 2):  # (s + 1) g only tests for a repeat and builds the stride
        if j:
            prev, acc = acc, _add_fp(a, p, acc, g) if j > 1 else g
        x, y = acc or (None, None)
        if (seen := baby.get(x)) is not None:  # j g = +-j' g, so d = j -+ j'
            d = j - seen[0] if seen[1] == y else j + seen[0]
            tx, ty = minus_rho or (None, None)
            if (hit := baby.get(tx)) is None:
                return range(0)
            return range(((hit[0] if hit[1] == ty else -hit[0]) - m) % d, count, d)
        if j <= s:
            baby[x] = j, y
    x, y = _add_fp(a, p, prev, acc)  # (2s + 1) g != O, else (s + 1) g = -s g repeated a key
    stride = x, -y % p
    q, r = divmod(m + s, 2 * s + 1)
    target = _mul_fp(a, p, -q, (x, y))
    if rho:
        target = _add_fp(a, p, target, minus_rho)
    hits = []
    for i in range(s - r, count + s, 2 * s + 1):
        if i > s - r:
            target = _add_fp(a, p, target, stride)
        tx, ty = target or (None, None)
        if (hit := baby.get(tx)) is not None:
            hits.append(i + hit[0] if hit[1] == ty else i - hit[0])
            if len(hits) == 2:  # two successive matches
                return range(hits[0] % (d := hits[1] - hits[0]), count, d)
    return range(hits[0], hits[0] + 1) if hits and 0 <= hits[0] < count else range(0)


def _count_shanks_mestre(a: int, b: int, p: int) -> int:
    """|E(F_p)| for p > 229: the only candidate m with m P = O for every drawn P.

    Points are drawn alternately on E and on its twist E' by a non-residue;
    on E' a candidate m asks (2p + 2 - m) P = O.  The candidates start as
    the Hasse interval and stay a range that each draw cuts to its BSGS
    matches.  One left is proved (Mestre; Schoof 1995 for p > 229).  If
    -(4a^3 + 27b^2) is a non-square, x^3 + a x + b has one root in F_p
    (Stickelberger), so E and E' have a point of order 2: m is even.  The
    count is plain integer arithmetic on (a, b, p): affine steps over F_p
    (_add_fp), on points that _draws finds for both (a, b).
    """
    u = _non_residue(p)
    sides = ((a % p, b % p), (a * u * u % p, b * u * u * u % p))
    w = math.isqrt(4 * p)
    lo, parity = p + 1 - w, 2 if pow(-(4 * a**3 + 27 * b * b), (p - 1) // 2, p) == p - 1 else 1
    cands = range(lo + lo % parity, p + 2 + w, parity)
    for i, pt in _draws(p, *sides):
        # on the twist the candidates m count down as 2p + 2 - m
        n0, step = (cands[0], cands.step) if i == 0 else (2 * p + 2 - cands[0], -cands.step)
        ks = _bsgs(sides[i][0], p, pt, n0, step, len(cands))
        cands = cands[ks.start : ks.stop : ks.step]
        if len(cands) == 1:
            return cands[0]
        if not cands:
            break
    raise SelfCheckFailed(f"Shanks-Mestre could not pin |E_{{{a},{b}}}(F_{p})|: candidates left {list(cands)}")


@lru_cache(maxsize=4096)
def _count_fp(a: int, b: int, p: int) -> int:
    return _count_shanks_mestre(a, b, p) if p > _CROSSOVER else _legendre_count(a, b, p)


def _count_cost(p: int) -> int:
    """One count over F_p: p steps for the sum; above _CROSSOVER, _DRAWS times one draw's bound.

    With w = isqrt(4p), a draw's _bsgs has count <= 2w + 1, |step| <= 2w and
    0 < n0 <= p + 1 + w.  Baby steps take s + 1 and giant steps at most s,
    s = isqrt(count // 2) + 1 <= isqrt(w) + 1.  A ladder by k takes at most
    2 (bitlen(k) - 1) steps: by step and q together at most 2 bitlen(p), as
    |step q| <= n0 + |step| < 2p; by rho, |rho| < |step|, 2 bitlen(w); one
    more step adds rho pt to the start.
    """
    w = math.isqrt(4 * p)
    return p if p <= _CROSSOVER else _DRAWS * (2 * math.isqrt(w) + 4 + 2 * (p.bit_length() + w.bit_length()))


def count_points_fp(c: Curve) -> int:
    """|E(F_p)|: the O(p) Legendre sum up to _CROSSOVER, O(p^(1/4)) Shanks-Mestre above.

    Refuses, before any work, a count whose _count_cost passes the
    counting budget.
    """
    p = c.modulus.as_prime()
    budgets.Meter(budgets.resolve(budgets.COUNT_FIELD_POINTS), f"counting over F_{p}").charge(_count_cost(p))
    return _count_fp(c.a, c.b, p)


@lru_cache(maxsize=64)
def _non_residue(p: int) -> int:
    """The least quadratic non-residue mod an odd prime p."""
    return next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod p, or None for non-residues, from one full power h of a (Tonelli-Shanks).

    p - 1 = 2^s q, q odd: h = a^((q-1)/2), r = h a, t = h^2 a = a^q, and the first round is Euler's test.
    """
    a %= p
    if a == 0:
        return 0
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p >> s = q, p >> (s + 1) = (q - 1) / 2
    h = pow(a, p >> (s + 1), p)
    m, c, t, r = s, 0, h * h * a % p, h * a % p
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == s:  # t^(2^(s-1)) = a^((p-1)/2) = -1; for p = 3 mod 4, r = a^((p+1)/4) and r^2 != a
            return None
        b = pow(c or pow(_non_residue(p), p >> s, p), 1 << (m - i - 1), p)  # c = z^q, z a non-residue, once a is square
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _draws(p: int, *coeffs: tuple[int, int]):
    """Up to _DRAWS (i, (x, y)) over F_p, the point on y^2 = x^3 + a x + b for (a, b) = coeffs[i].

    The pairs, reduced mod p, are taken in turn; the first and p seed one
    RNG, so a curve always draws the same points.  x is uniform until
    x^3 + a x + b is a square, and a coin picks +-y when y != 0, so O is
    never drawn and 2-torsion is drawn at double weight.  A count, l-part
    or anomalous component that runs out raises SelfCheckFailed; no
    measured count needed over 5 draws, and no l-part over 21 (59,092
    l-parts: every curve over F_p, 5 <= p <= 113, and the components of
    the first 256 seed-0 classify-count ops).
    """
    rng = random.Random(f"{coeffs[0][0]} {coeffs[0][1]} {p}")
    for draw in range(_DRAWS):
        i = draw % len(coeffs)
        a, b = coeffs[i]
        x = rng.randrange(p)
        while (y := _sqrt_mod_prime(x * x * x + a * x + b, p)) is None:
            x = rng.randrange(p)
        if y and rng.random() < 0.5:
            y = p - y
        yield i, (x, y)


def _miller(a: int, p: int, lam: int, pt: tuple[int, int], n: int, at: tuple[int, int]) -> int:
    """f(at), for the f normalized at O with divisor lam(pt) - lam(O); n | lam is the order of pt.

    The lam/n-th power of Miller's affine loop for n(pt) - n(O); 0 when one of its lines meets at.
    """
    (x0, y0), (u, v) = pt, at
    x, y, num, den = x0, y0, 1, 1
    for op in "".join("d" + "a" * (bit == "1") for bit in bin(n)[3:]):
        sx, sy = (x, y) if op == "d" else (x0, y0)
        if op == "d":
            num, den = num * num % p, den * den % p
        if x == sx and (y + sy) % p == 0:  # T + S = O, only at the last step
            num = num * (u - x) % p
            continue
        m, x3, y3 = _slope_sum(a, p, x, y, sx, sy)
        num, den = num * (v - y - m * (u - x)) % p, den * (u - x3) % p
        x, y = x3, y3
    return pow(num * pow(den, -1, p), lam // n, p) if num and den else 0


def _open_primes(p: int, q: int) -> list[int]:
    """The l | g = gcd(q, p-1) with l^2 | q: the l-parts of E(F_p) that may be non-cyclic.  Factors g, not q."""
    g = math.gcd(q, p - 1)
    return [l for l, _ in (factorize(g) if g > 1 else ()) if q % (l * l) == 0]


def group_structure_fp(c: Curve) -> FieldCurveData:
    """Shape (n1, n2) of E(F_p) = Z/n1 + Z/n2 with n2 | n1 and n2 | p-1.

    Only the l of _open_primes, l | g = gcd(q, p-1) with l^2 | q, can
    divide n2, so only g is factored; every other l-part is cyclic outright,
    with no point arithmetic.  Each open l is proved on its own (Miller,
    J. Cryptology 17, 2004), in one loop over the draws of _draws, seeded by
    the curve: per point P, with l^a exactly dividing q (read by division),
    R = (q/l^a) P has order l^b, found by steps of l.  lam, the largest such
    order, divides the exponent l^(a-c) of the l-part, and mu, the largest
    order of the Weil pairings e_lam(R, S) = (-1)^lam f_R(S) / f_S(R)
    against the highest-order l-part S drawn before, divides l^c; so l is
    proved once lam * mu = l^a.  Every shape returned is proved: an l that
    runs out of draws raises SelfCheckFailed instead.
    """
    p = c.modulus.as_prime()
    q = count_points_fp(c)
    n2 = 1
    for l in _open_primes(p, q):
        la, lam, mu, s = l * l, 1, 1, None
        while q % (la * l) == 0:
            la *= l
        for _, pt in _draws(p, (c.a, c.b)):
            r = step = _mul_fp(c.a, p, q // la, pt)
            order = 1
            while step is not None:
                if order == la:
                    raise SelfCheckFailed(f"{q} * {pt} is not O on {c!r}")
                step, order = _mul_fp(c.a, p, l, step), order * l
            level = max(lam, order)
            if lam > 1 and order > 1:
                f_s, f_r = _miller(c.a, p, level, s, lam, r), _miller(c.a, p, level, r, order, s)
                e = (-1) ** level * f_s * pow(f_r, -1, p) % p if f_s and f_r else 1
                k = la // level  # the l-part of n2 divides it, and the order of the pairing divides that
                if pow(e, k, p) != 1:
                    raise SelfCheckFailed(f"a Weil pairing on {c!r} does not die under {k}")
                while k % l == 0 and pow(e, k // l, p) == 1:
                    k //= l
                mu = max(mu, k)
            if order > lam:
                lam, s = order, r
            if lam * mu == la:
                break
        else:
            raise SelfCheckFailed(f"no Weil pairing certified the {l}-part of {c!r} in {_DRAWS} draws: lam {lam}, mu {mu}")
        n2 *= mu
    return FieldCurveData(p, q, p + 1 - q, (q // n2, n2))


def is_anomalous(c: Curve) -> bool:
    """True iff |E(F_p)| = p (trace 1): p times the first drawn point is O.

    For p >= 7 the Hasse interval lies inside (0, 2p), so P != O with pP = O
    proves it with one scalar multiplication at any size of p; over F_5,
    where |E| = 10 has order-5 points too, the points are counted.  pP is
    the one projective ladder over F_p here (Curve.scalar_xyz): at 160 bits
    it took 1.88 ms, an affine NAF 4.32 ms (Python 3.11, 2-vCPU Xeon).
    """
    p = c.modulus.as_prime()  # before drawing, which assumes a prime modulus
    if p < 7:
        return count_points_fp(c) == p
    return c.scalar_xyz(p, (*next(_draws(p, (c.a, c.b)))[1], 1)) == (0, 1, 0)


def anomalous_type(c: Curve) -> str:
    """CYCLIC or SPLIT: the class of the p-Sylow extension when p | |E(F_p)|.

    Lift a point of exact order p from E(F_p), the cofactor multiple of a
    point drawn from an RNG seeded by the curve; the split case has p-part
    of exponent p^(e-1), so the lift's Theta (the DLP's split test) is 0,
    and in the cyclic case it is not.  Trace 1 mod p means
    |E(F_p)| = p (anomalous) except over F_5, where |E(F_5)| = 10 also
    qualifies; both are handled, and for q = p any nonzero point already
    has order p.  Decided at the given e rather than assumed stable
    across e.
    """
    p, e = c.modulus.as_prime_power()
    fp = c.component(p, 1)
    q = count_points_fp(fp)
    if q % p:
        raise NotAnomalous(f"{fp!r} has {q} points, coprime to {p}")
    if e == 1:
        return CYCLIC
    multiples = (_mul_fp(fp.a, p, q // p, pt) for _, pt in _draws(p, (fp.a, fp.b)))
    if (source := next(filter(None, multiples), None)) is None:
        raise SelfCheckFailed(f"{_DRAWS} points of {fp!r} all die under the cofactor {q // p}")
    return SPLIT if theta(c, lift_point(fp, fp.point(*source), c)) == 0 else CYCLIC


def classify(c: Curve) -> GroupStructure:
    """Invariant factors of E(Z/NZ) with per-prime provenance.

    Per prime power p^e | N the reduction E(F_p) lifts up to its p-part:
    the prime-to-p subgroup always transfers isomorphically, the kernel
    of reduction contributes Z/p^(e-1), and when p | |E(F_p)| the
    p-Sylow extension is decided by lifting an order-p point (cyclic
    Z/p^e or split F_p + Z/p^(e-1)).  Note that p | |E(F_p)| is not the
    same as anomalous: E(F_5) may have 10 points.

    >>> from .curve import new_curve
    >>> classify(new_curve(7, 3, 169)).factors
    (169,)
    >>> classify(new_curve(1, 6, 169)).factors
    (13, 13)
    """
    locals_: list[LocalStructure] = []
    for p, e in c.modulus.factorization:
        comp = c.component(p, e)
        field = group_structure_fp(comp.component(p, 1))
        case = NON_ANOMALOUS if field.order % p else anomalous_type(comp)
        p_part = (p, p ** (e - 1)) if case == SPLIT else (p ** (e - 1 + (case == CYCLIC)),)
        prime_to_p = (d // p if d % p == 0 else d for d in field.shape)
        factors = tuple(d for d in (*prime_to_p, *p_part) if d > 1)
        locals_.append(LocalStructure(p, e, case, field.order, factors))
    return GroupStructure(c.n, _chain(d for loc in locals_ for d in loc.factors), tuple(locals_))


def phi_map(c: Curve, point: CurvePoint) -> tuple[CurvePoint, int]:
    """The pair (reduction mod p, scaled X-coordinate of the q-multiple).

    Phi(P) = (pi(P), X/p mod p^(e-1)) where qP = (X : 1 : f(X)) and
    q = |E(F_p)|; the second coordinate is an int in [0, p^(e-1)).  qP is
    read by Theta's test (infinity._kernel_x), and SelfCheckFailed if it
    is not over infinity.  A homomorphism for e <= 5 (the X-coordinate of
    points over infinity is additive mod p^5), bijective exactly when p
    does not divide q; q = p and the F_5 fringe case q = 10 both make the
    second coordinate collapse on the cyclic p-part.
    """
    p, e = c.modulus.as_prime_power()
    if e > 5:
        raise ZnecError(f"phi_map is only additive for e <= 5, got e = {e}")
    fp = c.component(p, 1)
    q = count_points_fp(fp)
    if (x := _kernel_x(c, q, c._xyz(point))) is None:
        raise SelfCheckFailed(f"{q} * {point!r} is not a point over infinity")
    return point.reduced(fp), x // p
