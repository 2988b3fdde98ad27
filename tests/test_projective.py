import math
import random

import pytest

from znec.errors import NotPrimitive
from znec.modring import Modulus
from znec.curve import new_curve
from znec.projective import canonical_triple

rng = random.Random(0x9E11)


@pytest.mark.parametrize("n", [5, 49, 35, 187187])
def test_unit_scaling_gives_same_point(n):
    m = Modulus(n)
    for _ in range(60):
        x, y, z = (rng.randrange(n) for _ in range(3))
        if math.gcd(math.gcd(x, y), math.gcd(z, n)) != 1:
            continue
        pt = canonical_triple(x, y, z, m)
        u = rng.randrange(1, n)
        while math.gcd(u, n) != 1:
            u = rng.randrange(1, n)
        assert pt == canonical_triple(u * x % n, u * y % n, u * z % n, m)
        assert pt == canonical_triple(u * x, u * y, u * z, m)


@pytest.mark.parametrize("n", [7, 121, 385])
def test_canonical_is_idempotent_and_orbit_constant(n):
    m = Modulus(n)
    for _ in range(60):
        x, y, z = (rng.randrange(n) for _ in range(3))
        if math.gcd(math.gcd(x, y), math.gcd(z, n)) != 1:
            continue
        c = canonical_triple(x, y, z, m)
        assert canonical_triple(*c, m) == c
        for _ in range(5):
            u = rng.randrange(1, n)
            if math.gcd(u, n) == 1:
                assert canonical_triple(u * x % n, u * y % n, u * z % n, m) == c


def test_affine_points_get_unit_z():
    m = Modulus(169)
    pt = canonical_triple(26, 61, 3, m)  # z unit: scale it to 1
    assert pt[2] == 1


def test_infinity_chart_scales_y():
    m = Modulus(169)
    # z and x both divisible by 13, y a unit: canonical form (X : 1 : Z)
    pt = canonical_triple(13, 2, 0, m)
    assert pt[1] == 1
    assert pt[2] != 1
    assert pt == (13 * pow(2, -1, 169) % 169, 1, 0)


def test_identity_canonical_form():
    for n in (5, 169, 35):
        assert canonical_triple(0, 3, 0, Modulus(n)) == (0, 1, 0)


def test_composite_canonical_is_crt_of_components():
    m = Modulus(35)
    for _ in range(40):
        x, y, z = (rng.randrange(35) for _ in range(3))
        if math.gcd(math.gcd(x, y), math.gcd(z, 35)) != 1:
            continue
        c = canonical_triple(x, y, z, m)
        c5 = canonical_triple(x % 5, y % 5, z % 5, Modulus(5))
        c7 = canonical_triple(x % 7, y % 7, z % 7, Modulus(7))
        assert tuple(v % 5 for v in c) == c5
        assert tuple(v % 7 for v in c) == c7


def test_imprimitive_triple_rejected():
    with pytest.raises(NotPrimitive):
        canonical_triple(5, 15, 0, Modulus(35))
    with pytest.raises(NotPrimitive):
        canonical_triple(0, 0, 0, Modulus(7))


def test_reduced_projects_and_chains():
    pt = new_curve(2, 111, 175).point(3, 12)  # 175 = 5^2 * 7
    r5 = pt.reduced(new_curve(2, 111, 5))
    assert r5.xyz == canonical_triple(3, 12, 1, Modulus(5))
    r25 = pt.reduced(new_curve(2, 111, 25))
    assert r25.reduced(new_curve(2, 1, 5)) == r5
    with pytest.raises(ValueError):
        pt.reduced(new_curve(2, 111, 11))  # 11 does not divide 175


def test_repr():
    pt = new_curve(7, 3, 169).point(0, 61)
    assert repr(pt) == "(0 : 61 : 1)"
