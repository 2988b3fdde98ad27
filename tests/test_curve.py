import math
import random

import pytest

from znec.curve import ADDITIONS, Curve, CurvePoint, new_curve, point_order
from znec.errors import (
    BadCharacteristic,
    BothLawsVanish,
    BudgetExceeded,
    PointNotOnCurve,
    SingularCurve,
)
from znec.modring import Modulus
from oracles import affine_add, affine_scalar, field_points, projective_points

rng = random.Random(0x5EED)

# valid small fixtures: E_{2,4}(F_5) (disc 1 mod 5), E_{0,5}(F_7), E_{1,6}(F_13)
FIELD_CURVES = [(2, 4, 5), (0, 5, 7), (1, 6, 13)]


def _to_affine(triple):
    if triple == (0, 1, 0):
        return None
    assert triple[2] == 1, triple
    return (triple[0], triple[1])


def _from_affine(c, pt):
    return c.identity() if pt is None else c.point(pt[0], pt[1])


def test_construction_guards():
    with pytest.raises(BadCharacteristic):
        new_curve(1, 1, 10)
    with pytest.raises(BadCharacteristic):
        new_curve(1, 1, 21)
    with pytest.raises(SingularCurve) as info:
        new_curve(2, 3, 5)  # disc = -275 = -5^2 * 11
    assert "5" in str(info.value)
    with pytest.raises(SingularCurve):
        new_curve(2, 3, 125)
    with pytest.raises(SingularCurve):
        new_curve(0, 0, 7)
    with pytest.raises(ValueError):
        new_curve(1, 1, 1)


@pytest.mark.parametrize("a,b,p", FIELD_CURVES)
def test_full_addition_table_matches_chord_tangent(a, b, p):
    c = new_curve(a, b, p)
    pts = field_points(a, b, p)
    for P in pts:
        for Q in pts:
            want = affine_add(a, b, p, P, Q)
            got = _to_affine((_from_affine(c, P) + _from_affine(c, Q)).xyz)
            assert got == want, (P, Q)


def test_identity_edge_cases():
    c = new_curve(1, 1, 5)
    O = c.identity()
    assert (O + O).is_identity()  # S-law vanishes at (O, O); T-law covers it
    P = c.point(0, 1)
    assert P + O == P and O + P == P
    assert (P - P).is_identity()
    assert (-(-P)) == P


@pytest.mark.parametrize(
    "a,b,n", [(2, 4, 5), (1, 1, 25), (7, 3, 169), (1, 1, 35), (167707, 21664, 187187)]
)
def test_group_axioms_on_samples(a, b, n):
    c = new_curve(a, b, n)
    pts = c.enumerate_points() if n <= 200 else None

    def random_point():
        if pts is not None:
            return pts[rng.randrange(len(pts))]
        while True:
            x = rng.randrange(n)
            # search a nearby point by scanning y on all components
            for y in range(n):
                if c.on_curve_triple((x, y, 1)):
                    return CurvePoint(c, (x, y, 1))

    sample = [random_point() for _ in range(8)]
    for P in sample:
        assert c.contains(P)
        assert (P + c.identity()) == P
        assert (P - P).is_identity()
    for _ in range(25):
        P, Q, R = (sample[rng.randrange(len(sample))] for _ in range(3))
        s = P + Q
        assert c.contains(s)  # closure
        assert s == Q + P  # commutativity
        assert (P + Q) + R == P + (Q + R)  # associativity


def test_add_xyz_reduces_componentwise():
    # the law over Z/35Z must project to the field law mod 5 and mod 7
    a, b, n = 1, 1, 35
    c = new_curve(a, b, n)
    pts = c.enumerate_points()
    for _ in range(80):
        P, Q = rng.choice(pts), rng.choice(pts)
        R = (P + Q).xyz
        for p in (5, 7):
            cp = new_curve(a, b, p)
            Pp = _to_affine(P.reduced(Modulus(p)).xyz)
            Qp = _to_affine(Q.reduced(Modulus(p)).xyz)
            want = affine_add(a, b, p, Pp, Qp)
            got = _to_affine(CurvePoint(cp, tuple(v % p for v in R)).xyz)
            assert got == want


def test_mixed_pairs_choose_the_law_per_prime():
    # over Z/221 = 13 * 17 some pairs have neither S nor T primitive mod N;
    # their sum takes S mod one prime and T mod the other
    a, b, n = 1, 6, 221
    c = new_curve(a, b, n)
    pts = [P.xyz for P in c.enumerate_points()]
    mixed, rest = [], []
    for P in pts:
        for Q in pts:
            s, t = c._laws(P, Q)
            neither = math.gcd(*s, n) > 1 and math.gcd(*t, n) > 1
            (mixed if neither else rest).append((P, Q))
    assert mixed
    for P, Q in mixed + random.Random(221).sample(rest, 400):
        R = c.add_xyz(P, Q)
        for p in (13, 17):
            want = affine_add(a, b, p, _to_affine(tuple(v % p for v in P)), _to_affine(tuple(v % p for v in Q)))
            assert _to_affine(tuple(v % p for v in R)) == want, (P, Q)


@pytest.mark.parametrize("a,b,p", FIELD_CURVES)
def test_scalar_mul_matches_repeated_addition(a, b, p):
    c = new_curve(a, b, p)
    pts = field_points(a, b, p)
    P = _from_affine(c, pts[1])
    for k in range(0, 2 * p + 2):
        assert _to_affine((k * P).xyz) == affine_scalar(a, b, p, k, pts[1])
    assert (-3) * P == -(3 * P)
    assert 0 * P == c.identity()


def test_scalar_mul_large_k_wraps():
    c = new_curve(7, 3, 169)
    P = c.point(0, 61)
    assert 169 * P == c.identity()
    k = rng.randrange(10**12)
    assert k * P == (k % 169) * P


@pytest.mark.parametrize("a,b,n", [(2, 4, 5), (1, 1, 25), (1, 1, 35)])
def test_enumerate_points_matches_projective_scan(a, b, n):
    c = new_curve(a, b, n)
    got = {pt.xyz for pt in c.enumerate_points()}
    want = set(projective_points(a, b, n))
    # the oracle picks lex-min orbit representatives; compare as orbits
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    got_min = {min((u * x % n, u * y % n, u * z % n) for u in units) for x, y, z in got}
    assert got_min == want
    assert len(got) == len(want)


def test_cardinality_multiplies_over_crt_and_fibers():
    c5 = new_curve(1, 1, 5)
    c25 = new_curve(1, 1, 25)
    c35 = new_curve(1, 1, 35)
    n5 = len(c5.enumerate_points())
    assert len(c25.enumerate_points()) == 5 * n5
    c7 = new_curve(1, 1, 7)
    assert len(c35.enumerate_points()) == n5 * len(c7.enumerate_points())


def test_reduction_is_a_homomorphism():
    c = new_curve(1, 1, 175)
    pts = [p for p in c.enumerate_points()]
    for m in (Modulus(5), Modulus(25), Modulus(7)):
        cm = c.reduced(m)
        for _ in range(40):
            P, Q = rng.choice(pts), rng.choice(pts)
            assert (P + Q).reduced(m) == cm.add(P.reduced(m), Q.reduced(m))


def test_point_validation():
    c = new_curve(1, 1, 5)
    with pytest.raises(PointNotOnCurve):
        c.point(1, 1)
    assert c.contains((0, 1, 1))
    assert not c.contains((1, 1, 1))


def test_both_laws_vanish_only_off_curve():
    c = new_curve(1, 1, 5)
    with pytest.raises(BothLawsVanish) as info:
        c.add_xyz((0, 0, 1), (0, 0, 1))  # (0,0,1) is not on E_{1,1}
    assert "5" in str(info.value)


def test_on_curve_pairs_never_trip_both_laws():
    for a, b, n in [(2, 4, 5), (1, 6, 13), (1, 1, 35)]:
        c = new_curve(a, b, n)
        pts = c.enumerate_points()
        for P in pts:
            for Q in pts:
                c.add_xyz(P.xyz, Q.xyz)  # must not raise


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        new_curve(7, 3, 169).enumerate_points(budget=10)


def test_addition_counter():
    c = new_curve(2, 4, 5)
    P = c.point(0, 2)
    ADDITIONS.reset()
    _ = P + P
    one = ADDITIONS.value
    _ = 12 * P
    assert one == 1
    assert ADDITIONS.value > one


def test_point_order_fixtures():
    c = new_curve(7, 3, 169)
    assert point_order(c.point(0, 61), 169) == 169
    c2 = new_curve(1, 6, 169)
    assert point_order(c2.point(2, 4), 169) == 13
    assert point_order(c.identity(), 169) == 1
