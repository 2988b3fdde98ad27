"""Group structure of E(Z/NZ): counting, classification, explicit maps.

The group splits over the prime-power components of N.  For a component
p^e the fiber count gives |E(Z/p^eZ)| = p^(e-1) |E(F_p)|, and the
structure is E(F_p) + Z/p^(e-1)Z except when |E(F_p)| = p (the anomalous
case), where the component is either cyclic Z/p^eZ or F_p + Z/p^(e-1)Z;
which of the two happens is decided by lifting one point and checking
its order.  classify() assembles the local pieces into an invariant
factor chain; brute_force_structure() recomputes the same chain from a
full point enumeration and order counting, as an independent oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from . import budgets
from .curve import Curve, CurvePoint, _fp_root, point_order
from .errors import BudgetExceeded, NotAnomalous
from .modring import Modulus, RingElement, factorize, is_prime, vp_int

NON_ANOMALOUS = "non-anomalous"
CYCLIC = "cyclic"
SPLIT = "split"

_rng = random.Random(0x5A_FE5EED)


@dataclass(frozen=True)
class FieldCurveData:
    """What we know about E(F_p): order, trace and abstract shape."""

    p: int
    order: int
    trace: int
    shape: tuple[int, int]  # (n1, n2) with n2 | n1, n1*n2 = order, n2 | p-1

    @property
    def is_anomalous(self) -> bool:
        return self.order == self.p


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
    local: tuple[LocalStructure, ...] | None = None

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
        out = {
            "n": str(self.n),
            "order": str(self.order),
            "rank": self.rank,
            "factors": [str(d) for d in self.factors],
        }
        if self.local is not None:
            out["local"] = [loc.as_json() for loc in self.local]
        return out


def invariant_factors(prime_powers) -> tuple[int, ...]:
    """Reassemble elementary divisors into the invariant factor chain.

    >>> invariant_factors([11, 13, 13, 11, 7])
    (143, 1001)
    """
    per_prime: dict[int, list[int]] = {}
    for pp in prime_powers:
        if pp == 1:
            continue
        (q, k), = factorize(pp)
        per_prime.setdefault(q, []).append(k)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in per_prime.values()), default=0)
    chain = []
    for j in range(depth):
        d = 1
        for q, exps in per_prime.items():
            if j < len(exps):
                d *= q ** exps[j]
        chain.append(d)
    return tuple(reversed(chain))


@lru_cache(maxsize=64)
def _square_table(p: int) -> bytearray:
    table = bytearray(p)
    for y in range(p // 2 + 1):
        table[y * y % p] = 1
    return table


@lru_cache(maxsize=65536)
def _count_fp(a: int, b: int, p: int) -> int:
    table = _square_table(p)
    count = 1
    for x in range(p):
        r = (x * x * x + a * x + b) % p
        if r == 0:
            count += 1
        elif table[r]:
            count += 2
    return count


def _require_prime(c: Curve) -> int:
    p, e = c.modulus.as_prime_power()
    if e != 1:
        raise ValueError(f"prime modulus required, got {p}^{e}")
    return p


def count_points_fp(c: Curve, budget: int | None = None) -> int:
    """|E(F_p)| by the Legendre-symbol sum 1 + sum(1 + chi(x^3 + Ax + B)).

    Naive and O(p) on purpose; refuses p beyond the (ZNEC_BUDGET-scalable)
    bound instead of running forever.
    """
    p = _require_prime(c)
    if budget is None:
        budget = budgets.resolve(budgets.COUNT_FIELD_POINTS)
    if p > budget:
        raise BudgetExceeded(f"p = {p} exceeds counting budget {budget}")
    return _count_fp(c.a, c.b, p)


def _random_point(c: Curve, p: int) -> tuple[int, int, int]:
    while True:
        x = _rng.randrange(p)
        y = _fp_root(c.a, c.b, x, p)
        if y is not None:
            if y and _rng.random() < 0.5:
                y = p - y
            return (x, y, 1)


def _exponent_via_sampling(c: Curve, p: int, q: int, trials: int = 40) -> int:
    lam = 1
    for _ in range(trials):
        pt = CurvePoint._make(c, _random_point(c, p))
        lam = math.lcm(lam, point_order(pt, q))
        if lam == q:
            break
    return lam


def group_structure_fp(c: Curve, budget: int | None = None) -> FieldCurveData:
    """Shape (n1, n2) of E(F_p) = Z/n1 + Z/n2 with n2 | n1 and n2 | p-1.

    The split part n2 is bounded by gcd conditions on the order, p-1 and
    the trace; when that bound is 1 the group is cyclic with no point
    arithmetic at all.  Otherwise small groups are decided exactly by
    counting l-torsion over the full enumeration, large ones by sampling
    point orders (40 trials).
    """
    p = _require_prime(c)
    q = count_points_fp(c, budget)
    t = p + 1 - q
    if q == 1 or is_prime(q):
        return FieldCurveData(p, q, t, (q, 1))
    # l^kmax[l] bounds the l-part of n2
    kmax = {l: min(a // 2, vp_int(p - 1, l, a), vp_int(t - 2, l, a)) for l, a in factorize(q)}
    if all(k == 0 for k in kmax.values()):
        return FieldCurveData(p, q, t, (q, 1))
    if q <= 10_000:
        pts = [pt.xyz for pt in c.enumerate_points(budget=max(q + 1, 10_001))]
        n2 = 1
        for l, k_l in kmax.items():
            if k_l == 0:
                continue
            b = 0
            level = pts
            for k in range(1, k_l + 1):
                level = [c.scalar_xyz(l, pt) for pt in level]
                kills = sum(1 for pt in level if pt == (0, 1, 0))
                if kills >= l ** (2 * k):
                    b = k
                else:
                    break
            n2 *= l**b
        return FieldCurveData(p, q, t, (q // n2, n2))
    lam = _exponent_via_sampling(c, p, q)
    n2 = q // lam
    if lam * n2 != q or lam % n2 or (p - 1) % n2:
        raise RuntimeError(f"order sampling failed to resolve the structure of {c!r}")
    return FieldCurveData(p, q, t, (lam, n2))


def is_anomalous(c: Curve, budget: int | None = None) -> bool:
    """True iff |E(F_p)| = p, i.e. the trace of Frobenius is 1."""
    p = _require_prime(c)
    return count_points_fp(c, budget) == p


def anomalous_type(c: Curve) -> str:
    """CYCLIC or SPLIT: the class of the p-Sylow extension when p | |E(F_p)|.

    Lift a point of exact order p from E(F_p); in the split case the
    p-part of the group has exponent p^(e-1), so the lift dies under
    p^(e-1), while in the cyclic case it survives.  Trace 1 mod p means
    |E(F_p)| = p (anomalous) except over F_5, where |E(F_5)| = 10 also
    qualifies; both are handled, and for q = p any nonzero point already
    has order p.  Decided at the given e rather than assumed stable
    across e.
    """
    from .dlp import lift_point

    p, e = c.modulus.as_prime_power()
    fp = c.component(p, 1)
    q = _count_fp(fp.a, fp.b, p)
    if q % p:
        raise NotAnomalous(f"{fp!r} has {q} points, coprime to {p}")
    if e == 1:
        return CYCLIC
    cofactor = q // p
    for x in range(p):
        y = _fp_root(fp.a, fp.b, x, p)
        if y is None:
            continue
        # (x, y) and (x, -y) die together under the cofactor: one root per x will do
        source = cofactor * fp.point(x, y)
        if not source.is_identity():
            break
    lifted = lift_point(fp, source, e, target=c)
    if c.scalar_xyz(p ** (e - 1), lifted.xyz) == (0, 1, 0):
        return SPLIT
    return CYCLIC


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
    pool: list[int] = []
    for p, e, pe in c.modulus.components():
        comp = c.component(p, e)
        fp = comp.component(p, 1)
        q = count_points_fp(fp)
        kernel_order = p ** (e - 1)
        shape = group_structure_fp(fp).shape
        prime_to_p = tuple(d // p if d % p == 0 else d for d in shape)
        prime_to_p = tuple(d for d in prime_to_p if d > 1)
        if q % p == 0:
            case = anomalous_type(comp) if e >= 2 else CYCLIC
            if case == CYCLIC:
                factors = prime_to_p + (pe,)
            else:
                factors = prime_to_p + (p, kernel_order)
        else:
            case = NON_ANOMALOUS
            factors = prime_to_p
            if kernel_order > 1:
                factors += (kernel_order,)
        locals_.append(LocalStructure(p, e, case, q, factors))
        for d in factors:
            for l, k in factorize(d):
                pool.append(l**k)
    return GroupStructure(c.n, invariant_factors(pool), tuple(locals_))


def phi_map(c: Curve, point: CurvePoint) -> tuple[CurvePoint, RingElement]:
    """The pair (reduction mod p, scaled X-coordinate of the q-multiple).

    Phi(P) = (pi(P), X/p mod p^(e-1)) where qP = (X : 1 : f(X)) and
    q = |E(F_p)|.  A homomorphism for e <= 5 (the X-coordinate of points
    over infinity is additive mod p^5), bijective exactly when p does
    not divide q; q = p and the F_5 fringe case q = 10 both make the
    second coordinate collapse on the cyclic p-part.
    """
    p, e = c.modulus.as_prime_power()
    if e > 5:
        raise ValueError(f"phi_map is only additive for e <= 5, got e = {e}")
    fp = c.component(p, 1)
    q = count_points_fp(fp)
    mult = c.scalar_xyz(q, point.xyz)
    if mult[1] != 1 or mult[0] % p:
        raise RuntimeError(f"{q} * {point!r} is not a point over infinity")
    first = CurvePoint(fp, tuple(v % p for v in point.xyz))
    second = Modulus(p ** (e - 1)).element(mult[0] // p)
    return first, second


def _component_elementary_divisors(comp: Curve, triples: list[tuple[int, int, int]]) -> list[int]:
    """Elementary divisors of one component from l-torsion counts.

    #E[l^k] = l^(sum_i min(k, e_i)) over the cyclic decomposition, so the
    increments of log_l #E[l^k] form the conjugate partition of the
    exponent multiset {e_i}.
    """
    m = len(triples)
    out: list[int] = []
    for l, a in factorize(m) if m > 1 else ():
        logs = [0]
        level = triples
        for _ in range(a):
            level = [comp.scalar_xyz(l, t) for t in level]
            kills = sum(1 for t in level if t == (0, 1, 0))
            v = 0
            while kills > 1:
                kills //= l
                v += 1
            logs.append(v)
            if v == a:
                break
        counts = [logs[k] - logs[k - 1] for k in range(1, len(logs))]  # #{i: e_i >= k}
        for i in range(counts[0]):
            e_i = sum(1 for s in counts if s > i)
            out.append(l**e_i)
    return out


def brute_force_structure(c: Curve, budget: int | None = None) -> GroupStructure:
    """Invariant factors recomputed from a full enumeration, no theory.

    Independent oracle for classify(): walks every point, counts
    l-torsion per component by repeated multiplication, and rebuilds the
    chain from the resulting elementary divisors.
    """
    if budget is None:
        budget = budgets.resolve(budgets.BRUTE_FORCE_POINTS)
    total = 1
    for p, e, _ in c.modulus.components():
        fp = c.component(p, 1)
        total *= p ** (e - 1) * count_points_fp(fp)
    if total > budget:
        raise BudgetExceeded(f"{total} points exceeds brute-force budget {budget}")
    pool: list[int] = []
    for p, e, _ in c.modulus.components():
        comp = c.component(p, e)
        triples = comp._component_points(p, e, budget)
        pool.extend(_component_elementary_divisors(comp, triples))
    return GroupStructure(c.n, invariant_factors(pool))
