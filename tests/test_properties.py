"""Hypothesis properties of the group law and classify on random composite N.

The fixed sweeps cover N <= 300 and a handful of named curves.  Here N
is drawn from products of 2-4 primes below 60 with exponents 1-3, points
are built per component by Hensel lifting F_p points and gluing with CRT
(no znec code involved), and every sum is checked against the naive
chord-tangent law of tests/oracles.py under reduction mod each prime.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from znec.curve import new_curve
from znec.projective import canonical_triple
from znec.structure import classify

from enumeration import brute_force_structure
from oracles import affine_add, crt_pairs, field_points

PRIMES = [p for p in range(5, 60) if all(p % d for d in range(2, p))]
O = (0, 1, 0)


def _smooth_composite(n):
    """True for n = a product of two or more primes from PRIMES, repeats allowed."""
    factors = 0
    for p in PRIMES:
        while n % p == 0:
            n //= p
            factors += 1
    return n == 1 and factors >= 2


# just past the fixed sweep of every N <= 300
BEYOND_SWEEP = [n for n in range(301, 5001) if _smooth_composite(n)]


def _component_point(a, b, p, e, base, t):
    """A point mod p^e above the F_p point base (None: above O), t choosing it in the fiber."""
    m = p**e
    if base is None:
        # (X : 1 : Z) with Z = X^3 + a X Z^2 + b Z^3: a contraction when p | X, one digit per step
        x, z = t * p % m, 0
        for _ in range(e):
            z = (x**3 + a * x * z * z + b * z**3) % m
        point = (x, 1, z)
    else:
        x, y = base
        x, y = (x + t * p, y) if y else (x, y + t * p)
        for _ in range(e):  # Newton on y, or on x at a 2-torsion point
            r = (x**3 + a * x + b - y * y) % m
            if y % p:
                y = (y + r * pow(2 * y, -1, m)) % m
            else:
                x = (x - r * pow(3 * x * x + a, -1, m)) % m
        point = (x, y, 1)
    x, y, z = point
    assert (y * y * z - x**3 - a * x * z * z - b * z**3) % m == 0
    return point


def _reduce(triple, p):
    """The affine point of E(F_p) a triple reduces to, None for O."""
    x, y, z = (v % p for v in triple)
    if z == 0:
        return None
    inv = pow(z, -1, p)
    return x * inv % p, y * inv % p


@st.composite
def curves_with_points(draw, count=3):
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=2, max_size=4, unique=True))
    factorization = tuple(sorted((p, draw(st.integers(1, 3))) for p in primes))
    n = math.prod(p**e for p, e in factorization)
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    assume(math.gcd(4 * a**3 + 27 * b * b, n) == 1)
    points = []
    for _ in range(count):
        parts = []
        for p, e in factorization:
            pts = field_points(a % p, b % p, p)  # pts[0] is O: lift above it half the time
            base = pts[draw(st.just(0) | st.integers(0, len(pts) - 1))]
            parts.append((_component_point(a, b, p, e, base, draw(st.integers(0, p ** (e - 1) - 1))), p**e))
        points.append(tuple(crt_pairs([(t[i], m) for t, m in parts])[0] for i in range(3)))
    return new_curve(a, b, n, factorization=factorization), points


@settings(max_examples=40, deadline=None, database=None)
@given(curves_with_points())
def test_group_axioms_on_random_composite_n(data):
    c, (P, Q, R) = data
    P, Q, R = (canonical_triple(*t, c.modulus) for t in (P, Q, R))
    assert c.add_xyz(P, O) == P
    assert c.add_xyz(P, c.neg_xyz(P)) == O
    assert c.add_xyz(P, Q) == c.add_xyz(Q, P)
    assert c.add_xyz(c.add_xyz(P, Q), R) == c.add_xyz(P, c.add_xyz(Q, R))
    for p, _, _ in c.modulus.parts:
        for s, (u, v) in ((c.add_xyz(P, Q), (P, Q)), (c.add_xyz(P, P), (P, P))):
            assert _reduce(s, p) == affine_add(c.a % p, c.b % p, p, _reduce(u, p), _reduce(v, p))


@settings(max_examples=40, deadline=None, database=None)
@given(curves_with_points(count=2), st.integers(2, 2**64), st.integers(2, 2**64))
def test_raw_addition_is_a_representative_of_the_canonical_sum(data, u, v):
    c, (P, Q) = data
    assume(math.gcd(u * v, c.n) == 1)
    P, Q = (canonical_triple(*t, c.modulus) for t in (P, Q))
    uP, vQ = tuple(u * x % c.n for x in P), tuple(v * x % c.n for x in Q)
    for left, right in ((P, Q), (uP, vQ), (uP, P), (P, P), (uP, c.neg_xyz(P)), (O, vQ)):
        raw = c.add_xyz(left, right, canonical=False)
        assert canonical_triple(*raw, c.modulus) == c.add_xyz(left, right), (left, right)


@settings(max_examples=40, deadline=None, database=None)
@given(curves_with_points(count=1), st.integers(1, 2**64))
def test_canonical_triple_idempotent_and_unit_invariant(data, u):
    c, (P,) = data
    assume(math.gcd(u, c.n) == 1)
    canon = canonical_triple(*P, c.modulus)
    assert canonical_triple(*canon, c.modulus) == canon
    assert canonical_triple(*(u * v for v in P), c.modulus) == canon
    # the same point as P: every 2x2 minor of (P, canon) vanishes mod each p^e
    for _, pe, _ in c.modulus.parts:
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert (P[i] * canon[j] - P[j] * canon[i]) % pe == 0


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(BEYOND_SWEEP), st.integers(0, 2**32), st.integers(0, 2**32))
def test_classify_matches_brute_force_beyond_the_sweep(n, a, b):
    assume(math.gcd(4 * a**3 + 27 * b * b, n) == 1)
    c = new_curve(a, b, n)
    assert classify(c).factors == brute_force_structure(c).factors
