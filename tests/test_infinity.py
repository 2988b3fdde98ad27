import random

import pytest

from znec.curve import CurvePoint, new_curve, point_order
from znec.infinity import (
    compute_f,
    infinity_point,
    infinity_points,
    infinity_sum_check,
    kernel_generator,
)
from znec.modring import Modulus, vp_int

rng = random.Random(0x1F1F)


def _random_curve(p, e, r=rng):
    pe = p**e
    while True:
        a, b = r.randrange(pe), r.randrange(pe)
        if (4 * a**3 + 27 * b**2) % p:
            return new_curve(a, b, pe, factorization=((p, e),))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_f_vanishes_below_degree_four(p, e):
    # x^3 is the lowest term, so every coefficient dies mod p^e for e <= 3
    for _ in range(4):
        f = compute_f(_random_curve(p, e))
        assert f.coefficients() == (0,) * e


@pytest.mark.parametrize("p", [5, 7])
def test_f_closed_form_at_e10(p):
    # f = x^3 + A x^7 + B x^9 exactly, all other coefficients zero
    for _ in range(5):
        c = _random_curve(p, 10)
        f = compute_f(c)
        want = [0] * 10
        want[3], want[7], want[9] = 1, c.a % p**10, c.b % p**10
        assert list(f.coefficients()) == want


def test_f_at_e4_is_x_cubed():
    c = _random_curve(7, 4)
    assert compute_f(c).coefficients() == (0, 0, 0, 1)


def test_f_is_odd():
    for p, e in [(5, 6), (7, 5), (13, 4)]:
        c = _random_curve(p, e)
        f = compute_f(c)
        pe = p**e
        for _ in range(20):
            x = rng.randrange(0, pe, p)
            assert (f.evaluate_int(x) + f.evaluate_int(-x % pe)) % pe == 0


@pytest.mark.parametrize("p,e", [(5, 2), (5, 4), (7, 3), (13, 3)])
def test_infinity_points_form_and_count(p, e):
    c = _random_curve(p, e)
    pts = infinity_points(c)
    assert len(pts) == p ** (e - 1)
    f = compute_f(c)
    seen = set()
    for pt in pts:
        x, y, z = pt.xyz
        assert y == 1 and x % p == 0
        assert z == f.evaluate_int(x) % p**e
        assert c.contains(pt)
        seen.add(x)
    assert len(seen) == p ** (e - 1)
    # they reduce to the identity: the fiber of O under pi
    fp = c.reduced(Modulus.prime_power(p, 1))
    assert all(pt.reduced(fp).is_identity() for pt in pts)


def test_infinity_point_rejects_unit_x():
    c = _random_curve(5, 3)
    with pytest.raises(ValueError):
        infinity_point(c, 2)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_kernel_generator_order(p, e):
    for _ in range(3):
        c = _random_curve(p, e)
        gen = kernel_generator(c)
        assert point_order(gen, p ** (e - 1) if e > 1 else 1) == p ** (e - 1)
        if e > 1:
            f = compute_f(c)
            assert gen.xyz == (p, 1, f.evaluate_int(p) % p**e)


def test_infinity_is_closed_under_addition():
    c = _random_curve(7, 4)
    pts = infinity_points(c)
    xs = {pt.xyz[0] for pt in pts}
    for _ in range(60):
        s = rng.choice(pts) + rng.choice(pts)
        assert s.xyz[1] == 1 and s.xyz[0] in xs


@pytest.mark.parametrize("p,e", [(5, 5), (5, 10), (7, 6), (13, 4)])
def test_x_coordinate_nearly_additive(p, e):
    # X(P1 + P2) = X1 + X2 mod p^min(e, 5 min(vp X1, vp X2))
    c = _random_curve(p, e)
    pe = p**e
    for _ in range(50):
        x1 = rng.randrange(0, pe, p)
        x2 = rng.randrange(0, pe, p)
        x3, val = infinity_sum_check(c, x1, x2)
        floor = min(e, 5 * min(vp_int(x1, p, e), vp_int(x2, p, e)))
        assert val >= floor
        assert (x3.value - x1 - x2) % p**floor == 0


@pytest.mark.parametrize("p,e", [(5, 12), (7, 13)])
def test_f_puts_points_on_curve_past_e10(p, e):
    # the closed form above stops at x^9; here the x^10 and x^11 terms count too
    r = random.Random(p**e)  # own stream: the curve must not depend on which tests ran first
    c = _random_curve(p, e, r)
    while c.a % p == 0:  # the x^11 coefficient is 2A^2; keep it a unit
        c = _random_curve(p, e, r)
    f = compute_f(c)
    for _ in range(20):
        x = r.randrange(0, p**e, p)
        CurvePoint(c, (x, 1, f.evaluate_int(x)))  # raises PointNotOnCurve if f is off
