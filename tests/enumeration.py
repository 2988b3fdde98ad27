"""Every point of E(Z/NZ), and the theory of znec.structure recomputed from them.

These oracles list E(Z/p^eZ) fiber by fiber, rebuild the invariant
factors from l-torsion counts without |E(F_p)| or the anomalous case
split, and add points over infinity to check that X is nearly additive.
Unlike oracles.py they run the library's group law, on purpose: the
affine chord-tangent law cannot reach the points over infinity.
"""

import itertools
import math

from znec.curve import CurvePoint
from znec.errors import NotPrimePower
from znec.infinity import _hensel_lift, compute_f, infinity_point, infinity_points
from znec.modring import factorize
from znec.structure import GroupStructure
from oracles import crt_pairs


def component_points(cp):
    """All points of a curve mod p^e, as canonical triples.

    Every point sits over an F_p point, found from a table of the
    squares mod p rather than the library's square root: affine fibers
    are walked by fixing one coordinate per residue class and
    Hensel-lifting the other (the curve is nonsingular, so one partial
    derivative is a unit), and the fiber over (0 : 1 : 0) is
    infinity_points.
    """
    p, e = cp.modulus.as_prime_power()
    roots = {}  # every y mod p, under its square
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    points = []
    for x0 in range(p):
        for y1 in roots.get((x0 * x0 * x0 + cp.a * x0 + cp.b) % p, ()):
            for t in range(p ** (e - 1)):
                # walk the fiber along the coordinate the lift keeps fixed
                x, y = (x0 + t * p, y1) if y1 else (x0, t * p)
                points.append((*_hensel_lift(cp.a, cp.b, x, y, p, e), 1))
    return points + [pt.xyz for pt in infinity_points(cp)]


def enumerate_points(c):
    """Every point of E(Z/NZ), canonical and sorted, CRT-glued from components."""
    moduli = [p**e for p, e in c.modulus.factorization]
    comp_points = [component_points(c.component(p, e)) for p, e in c.modulus.factorization]
    triples = sorted(
        tuple(crt_pairs([(t[i], m) for t, m in zip(combo, moduli)])[0] for i in range(3))
        for combo in itertools.product(*comp_points)
    )
    return [CurvePoint._make(c, t) for t in triples]


def _elementary_divisors(comp, triples):
    """Elementary divisors of one component from l-torsion counts.

    #E[l^k] = l^(sum_i min(k, e_i)) over the cyclic decomposition, so the
    increments of log_l #E[l^k] form the conjugate partition of the
    exponent multiset {e_i}.
    """
    m = len(triples)
    out = []
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


def invariant_factors(prime_powers):
    """Reassemble elementary divisors into the invariant factor chain.

    The exponents of each prime are sorted, largest first, and the j-th
    largest factor is the product of every prime's j-th exponent.

    >>> invariant_factors([11, 13, 13, 11, 7])
    (143, 1001)
    """
    per_prime = {}
    for pp in prime_powers:
        if pp == 1:
            continue
        factors = factorize(pp)
        if len(factors) != 1:
            raise NotPrimePower(f"elementary divisor {pp} is not a prime power")
        ((q, k),) = factors
        per_prime.setdefault(q, []).append(k)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in per_prime.values()), default=0)
    return tuple(math.prod(q ** e[j] for q, e in per_prime.items() if j < len(e)) for j in reversed(range(depth)))


def brute_force_structure(c):
    """Invariant factors recomputed from a full enumeration, no theory.

    Independent oracle for classify(): walks every point, counts
    l-torsion per component by repeated multiplication, and rebuilds the
    chain from the resulting elementary divisors.
    """
    pool = []
    for p, e in c.modulus.factorization:
        comp = c.component(p, e)
        pool.extend(_elementary_divisors(comp, component_points(comp)))
    return GroupStructure(c.n, invariant_factors(pool), local=())


def vp_int(value, p, e):
    """p-adic valuation of a residue mod p^e, capped at e, the valuation given to 0."""
    value %= p**e
    if value == 0:
        return e
    t = 0
    while value % p == 0:
        value //= p
        t += 1
    return t


def infinity_sum_check(curve, x1, x2):
    """Add two infinity points and compare X3 against X1 + X2.

    Returns (X3 in [0, p^e), valuation of the difference X3 - (X1 + X2))
    and fails an assertion if the sum leaves the chart Y = 1 or the
    congruence mod p^(5 min(vp X1, vp X2)) fails, which would mean the
    group law and the infinity parameterization disagree.
    """
    f = compute_f(curve)
    p, e, pe = f.p, f.e, curve.n
    x1, x2 = int(x1) % pe, int(x2) % pe
    s = curve.add_xyz(infinity_point(curve, x1, f).xyz, infinity_point(curve, x2, f).xyz)
    assert s[1] == 1, f"sum of infinity points left the infinity chart: {s}"
    x3 = s[0]
    bound = min(e, 5 * min(vp_int(x1, p, e), vp_int(x2, p, e)))
    val = vp_int(x3 - (x1 + x2), p, e)
    assert val >= bound, f"X3 = {x3} differs from X1 + X2 = {(x1 + x2) % pe} at valuation {val} < {bound}"
    return x3, val
