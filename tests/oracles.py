"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and self-contained (plain ints,
no znec imports) so test expectations cannot inherit the package's own
bugs.  The affine chord-tangent law is only total over a field; over
Z/NZ it raises on non-invertible denominators and the tests route
around those pairs via CRT instead.  Two exceptions run the package's
own law.  split_curve_mod_p2_by_all_b pins a search order, not a count:
it walks every B with the package's own count and lift test.
anomalous_type_by_multiple keeps the split rule that Theta replaced.
"""

import math
import random
from itertools import product

# identity of the affine law is None


def affine_add(a, b, n, P, Q):
    """Chord-tangent addition with the explicit case split."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if (x1 - x2) % n == 0 and (y1 + y2) % n == 0:
        return None
    if (x1 - x2) % n == 0:
        num, den = 3 * x1 * x1 + a, 2 * y1
    else:
        num, den = y2 - y1, x2 - x1
    if math.gcd(den % n, n) != 1:
        raise ValueError(f"denominator {den % n} not invertible mod {n}")
    lam = num * pow(den, -1, n) % n
    x3 = (lam * lam - x1 - x2) % n
    return (x3, (lam * (x1 - x3) - y1) % n)


def affine_scalar(a, b, n, k, P):
    acc = None
    for _ in range(k):
        acc = affine_add(a, b, n, acc, P)
    return acc


def field_points(a, b, p):
    """All points of E(F_p) as affine pairs plus None, by full scan."""
    pts = [None]
    for x in range(p):
        for y in range(p):
            if (y * y - x * x * x - a * x - b) % p == 0:
                pts.append((x, y))
    return pts


def count_fp(a, b, p):
    return len(field_points(a, b, p))


def projective_points(a, b, n):
    """All points of E(Z/nZ): scan every triple, quotient by units.

    Each class is represented by its lexicographically smallest member.
    O(n^3) per curve; keep n tiny.
    """
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    seen = set()
    reps = []
    for x, y, z in product(range(n), repeat=3):
        if math.gcd(math.gcd(x, y), math.gcd(z, n)) != 1:
            continue
        if (y * y * z - x * x * x - a * x * z * z - b * z * z * z) % n:
            continue
        if (x, y, z) in seen:
            continue
        orbit = {(u * x % n, u * y % n, u * z % n) for u in units}
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps)


def element_order(add, zero, g, bound):
    """Order of g by repeated addition, never exceeding bound steps."""
    acc = g
    for k in range(1, bound + 1):
        if acc == zero:
            return k
        acc = add(acc, g)
    raise AssertionError(f"order of {g} exceeds {bound}")


def _vl(x, l):
    v = 0
    while x % l == 0:
        x //= l
        v += 1
    return v


def invariant_factors_from_orders(orders):
    """Invariant factors of a finite abelian group from its order multiset.

    #\\{g : l^k g = 0\\} counts l^(sum_i min(k, e_i)) elements when the
    l-part is + Z/l^(e_i), so the exponent partition per prime is the
    conjugate of the log-count increments.
    """
    n = len(orders)
    per_prime = {}
    m, l = n, 2
    while l * l <= m:
        if m % l == 0:
            per_prime[l] = []
            while m % l == 0:
                m //= l
        l += 1
    if m > 1:
        per_prime[m] = []
    for l in per_prime:
        a = _vl(n, l)
        logs = [0]
        for k in range(1, a + 1):
            count = sum(1 for o in orders if _vl(o, l) <= k)
            logs.append(_vl(count, l))
        s = [logs[k] - logs[k - 1] for k in range(1, a + 1)]  # #{i: e_i >= k}
        for i in range(s[0] if s else 0):
            per_prime[l].append(sum(1 for sk in s if sk > i))
    for exps in per_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in per_prime.values()), default=0)
    chain = []
    for j in range(depth):
        d = 1
        for l, exps in per_prime.items():
            if j < len(exps):
                d *= l ** exps[j]
        chain.append(d)
    return tuple(reversed(chain))


def field_group_invariants(a, b, p):
    """Invariant factors of E(F_p) from scratch: scan, add, count orders."""
    pts = field_points(a, b, p)
    bound = len(pts)
    add = lambda P, Q: affine_add(a, b, p, P, Q)
    orders = [element_order(add, None, g, bound) for g in pts]
    return invariant_factors_from_orders(orders)


def shanks_mestre_by_orders(a, b, p, draws=40, parity=False):
    """(|E(F_p)|, draws made) by Mestre's rule on point orders; (None, draws made) when it fails.

    lam_E and lam_T are the lcms of the orders of the points drawn on E
    and on its twist by the least non-residue u, and the count is proved
    once a single m in the Hasse interval has lam_E | m and
    lam_T | 2p + 2 - m.  With parity, lam_E starts at 2 when
    x^3 + a x + b has exactly one root in F_p, found by trying every x:
    then E has a point of order 2.  The points are the ones
    structure._draws draws from Random(f"{a} {b} {p}"), alternately on E
    and the twist, up to the sign of y, which no order sees; orders come
    from repeated addition.
    """
    rng = random.Random(f"{a} {b} {p}")
    u = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    sides = ((a % p, b % p), (a * u * u % p, b * u**3 % p))
    w = math.isqrt(4 * p)
    roots = sum(1 for x in range(p) if (x**3 + a * x + b) % p == 0) if parity else None
    lam = [2 if roots == 1 else 1, 1]  # one root: a point of order 2 on E
    for draw in range(draws + 1):
        cands = [m for m in range(p + 1 - w, p + 2 + w) if m % lam[0] == 0 and (2 * p + 2 - m) % lam[1] == 0]
        if len(cands) == 1:
            return cands[0], draw
        if not cands or draw == draws:
            return None, draw
        ca, cb = sides[draw % 2]
        while True:
            x = rng.randrange(p)
            r = (x**3 + ca * x + cb) % p
            if r == 0 or pow(r, (p - 1) // 2, p) == 1:
                break
        y = next(y for y in range(p) if y * y % p == r)
        if y:
            rng.random()  # the sign of y
        add = lambda P, Q: affine_add(ca, cb, p, P, Q)
        lam[draw % 2] = math.lcm(lam[draw % 2], element_order(add, None, (x, y), p + 2 + w))


def width_naf(k, w):
    """The width-w NAF of k > 0, least significant digit first (Guide to ECC, Alg. 3.35).

    Every nonzero digit is odd and below 2^(w-1) in absolute value, and
    sum(d 2^i) = k.
    """
    digits = []
    while k >= 1:
        d = 0
        if k % 2 == 1:
            d = k % 2**w
            if d >= 2 ** (w - 1):
                d -= 2**w
            k -= d
        digits.append(d)
        k //= 2
    return digits


def ladder_additions(k, naf_from_bits, width5_from_bits):
    """Additions (doublings included) of a scalar ladder on k > 0.

    Below naf_from_bits bits: left-to-right double-and-add, L - 1
    doublings and popcount - 1 additions.  From there on a width-w NAF
    (w = 5 from width5_from_bits bits, else 4) over the odd multiples up
    to (2^(w-1) - 1) P: 2P and 2^(w-2) - 1 additions build them, then one
    doubling per digit below the top one and one addition per nonzero
    digit below the top one.
    """
    bits = k.bit_length()
    if bits < naf_from_bits:
        return bits - 1 + bin(k).count("1") - 1
    w = 5 if bits >= width5_from_bits else 4
    digits = width_naf(k, w)
    assert sum(d * 2**i for i, d in enumerate(digits)) == k
    return 2 ** (w - 2) + len(digits) - 1 + sum(1 for d in digits if d) - 1


def crt_pairs(pairs):
    """CRT for [(residue, modulus), ...] with pairwise coprime moduli."""
    x, m = 0, 1
    for r, n in pairs:
        g = math.gcd(m, n)
        assert g == 1, f"moduli {m}, {n} not coprime"
        x += m * ((r - x) * pow(m, -1, n) % n)
        m *= n
    return x % m, m


def _law_terms(n, P, Q):
    (x1, y1, z1), (x2, y2, z2) = P, Q
    x1z2, x2z1, y1z2, y2z1 = x1 * z2 % n, x2 * z1 % n, y1 * z2 % n, y2 * z1 % n
    return (
        x1 * x2 % n, y1 * y2 % n, z1 * z2 % n, x1 * y2 % n, x2 * y1 % n,
        x1z2, x2z1, y1z2, y2z1, (x1z2 + x2z1) % n, (y1z2 + y2z1) % n,
    )


def expanded_law_s(a, b, n, P, Q):
    """The S triple of the bidegree-(2,2) addition law, monomial by monomial."""
    x1x2, y1y2, z1z2, x1y2, x2y1, x1z2, x2z1, y1z2, y2z1, xz_p, yz_p = _law_terms(n, P, Q)
    b3 = 3 * b % n
    xy_m = (x1y2 - x2y1) % n
    xz_m = (x1z2 - x2z1) % n
    yz_m = (y1z2 - y2z1) % n
    s1 = (xy_m * yz_p + xz_m * y1y2 - a * xz_m % n * xz_p - b3 * xz_m % n * z1z2) % n
    s2 = (
        -3 * x1x2 * xy_m
        - y1y2 * yz_m
        - a * xy_m % n * z1z2
        + a * yz_m % n * xz_p
        + b3 * yz_m % n * z1z2
    ) % n
    s3 = (3 * x1x2 * xz_m - yz_m * yz_p + a * xz_m % n * z1z2) % n
    return s1, s2, s3


def expanded_law_t(a, b, n, P, Q):
    """The T triple of the bidegree-(2,2) addition law, monomial by monomial."""
    x1x2, y1y2, z1z2, x1y2, x2y1, x1z2, x2z1, _, _, xz_p, yz_p = _law_terms(n, P, Q)
    b3 = 3 * b % n
    aa = a * a % n
    xy_p = (x1y2 + x2y1) % n
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
        - (a * a * a + 9 * b * b) % n * z1z2 % n * z1z2
    ) % n
    t3 = (
        3 * x1x2 * xy_p
        + y1y2 * yz_p
        + a * xy_p % n * z1z2
        + a * xz_p % n * yz_p
        + b3 * yz_p % n * z1z2
    ) % n
    return t1, t2, t3


def split_curve_mod_p2_by_all_b(p):
    """Lex-smallest (A, B) mod p^2 that is anomalous with split lift, trying all p^2 values of B per A.

    The reference for rank._split_curve_mod_p2's row walk, which must try
    the same candidates in the same order: same result, charges and exceptions.
    """
    from znec import budgets
    from znec.curve import new_curve
    from znec.errors import BudgetExceeded, SelfCheckFailed
    from znec.structure import SPLIT, _count_fp, anomalous_type

    budget = budgets.resolve(budgets.CURVE_SEARCH)
    spent = 0
    pp = p * p
    for a, b in product(range(pp), repeat=2):
        if (4 * a * a * a + 27 * b * b) % p == 0:
            continue
        if _count_fp(a % p, b % p, p) != p:
            continue
        spent += p
        if spent > budget:
            raise BudgetExceeded(f"split search mod {p}^2 passed {budget} operations")
        c = new_curve(a, b, pp, factorization=((p, 2),))
        if anomalous_type(c) == SPLIT:
            return a, b
    raise SelfCheckFailed(f"no anomalous curve mod {p}^2 has a split lift")


def anomalous_type_by_multiple(c):
    """CYCLIC or SPLIT for a curve mod p^e (e >= 2) with p | |E(F_p)|, by the order of a lift.

    Hensel-lift the first drawn point whose cofactor multiple is not O,
    and call the component split when p^(e-1) times the lift is O: the
    rule structure.anomalous_type used before it read Theta.
    """
    from znec.infinity import _hensel_lift
    from znec.structure import CYCLIC, SPLIT, _draws

    p, e = c.modulus.as_prime_power()
    fp = c.component(p, 1)
    q = count_fp(fp.a, fp.b, p)
    for _, pt in _draws(p, (fp.a, fp.b)):
        if (source := fp.scalar_xyz(q // p, (*pt, 1))) != (0, 1, 0):
            break
    lifted = c.point(*_hensel_lift(c.a, c.b, source[0], source[1], p, e))
    return SPLIT if c.scalar_xyz(p ** (e - 1), lifted.xyz) == (0, 1, 0) else CYCLIC


def _mul_trunc(f, g, e, pe):
    """f * g mod (x^e, p^e) on coefficient lists of length e."""
    out = [0] * e
    for i, c in enumerate(f):
        for j in range(e - i):
            out[i + j] += c * g[j]
    return [c % pe for c in out]


def infinity_f_by_fixed_point(a, b, p, e):
    """Coefficients of f = x^3 + A x f^2 + B f^3 mod (x^e, p^e), iterated from f = 0.

    Two candidates that agree mod x^k have right-hand sides that agree mod
    x^(k+4), since f has no terms below x^3; so e passes reach the fixed point.
    """
    pe = p**e
    f = [0] * e
    for _ in range(e):
        f2 = _mul_trunc(f, f, e, pe)
        f3 = _mul_trunc(f2, f, e, pe)
        nxt = [(a * u + b * v) % pe for u, v in zip([0] + f2, f3)]  # x f^2 is f2 shifted
        if e > 3:
            nxt[3] = (nxt[3] + 1) % pe
        if nxt == f:
            break
        f = nxt
    return tuple(f)
