import itertools
import math
import random

import pytest

from znec.curve import ADDITIONS, Curve, CurvePoint, new_curve, point_order
from znec.errors import (
    BadCharacteristic,
    BothLawsVanish,
    PointNotOnCurve,
    SelfCheckFailed,
    SingularCurve,
    ZnecError,
)
from znec.dlp import DlpInstance, lift_point, theta
from znec.modring import Modulus
from znec.projective import canonical_triple
from znec.reference import DLP160_A, DLP160_B, DLP160_BASE, DLP160_P
from znec.structure import phi_map
from enumeration import enumerate_points
from oracles import (
    affine_add,
    affine_scalar,
    crt_pairs,
    expanded_law_s,
    expanded_law_t,
    field_points,
    ladder_additions,
    projective_points,
)

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


def _foreign_point_calls():
    """Per entry, (call, arguments it must reject) pairs.

    Each call gets a raw triple and a point of another curve.  For
    CurvePoint.reduced the argument is the target, so it gets a triple, a
    Modulus and curves that are not the point's curve reduced mod M | N.
    """
    c, d = new_curve(1, 1, 125), new_curve(1, 2, 125)
    raw, P = (0, 1, 1), d.point(1, 2)  # raw satisfies c; P lies on d only
    e13, e169 = new_curve(1, 6, 13), new_curve(1, 6, 169)
    base, target = e13.point(2, 4), e13.point(3, 7)  # target = 5 base
    lifted = lift_point(e13, base, e169), lift_point(e13, target, e169)
    point25 = new_curve(1, 1, 25).point(0, 1)
    return {
        "add": [(lambda Q: c.identity() + Q, [raw, P])],
        "sub": [(lambda Q: c.identity() - Q, [raw, P])],
        "lift_point": [(lambda Q: lift_point(e13, Q, e169), [(2, 4, 1), lifted[0]])],
        "theta": [(lambda Q: theta(new_curve(7, 3, 169), Q), [(0, 61, 1), lifted[0]])],
        "dlp": [
            (lambda Q: DlpInstance(e13, Q, (3, 7, 1)), [(2, 4, 1), lifted[0]]),
            (lambda Q: DlpInstance(e13, base, Q), [(3, 7, 1), lifted[1]]),
        ],
        "phi_map": [(lambda Q: phi_map(c, Q), [raw] + [Q for Q in enumerate_points(d) if Q.xyz[2] == 1])],
        "reduced": [
            (point25.reduced, [(1, 1, 5), Modulus(5), new_curve(2, 1, 5), new_curve(1, 1, 7)]),
        ],
    }


@pytest.mark.parametrize("entry", ["add", "sub", "lift_point", "theta", "dlp", "phi_map", "reduced"])
def test_points_of_another_curve_are_rejected(entry):
    for call, rejected in _foreign_point_calls()[entry]:
        for arg in rejected:
            with pytest.raises(ZnecError) as info:
                call(arg)
            assert not isinstance(info.value, SelfCheckFailed), info.value


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
    pts = enumerate_points(c) if n <= 200 else None

    components = c.modulus.factorization
    moduli = [p**e for p, e in components]

    def random_point():
        if pts is not None:
            return pts[rng.randrange(len(pts))]
        # the first x drawn with a point above it, and the smallest y there:
        # the CRT combinations of the roots mod each p^e are all the y mod n
        while True:
            x = rng.randrange(n)
            rhs = x * x * x + a * x + b
            roots = [[y for y in range(pe) if (y * y - rhs) % pe == 0] for pe in moduli]
            if all(roots):
                y = min(crt_pairs(list(zip(combo, moduli)))[0] for combo in itertools.product(*roots))
                assert not any(c.on_curve_triple((x, smaller, 1)) for smaller in range(y))
                return CurvePoint(c, (x, y, 1))
            p, e = components[roots.index([])]
            assert not any(c.component(p, e).on_curve_triple((x, y, 1)) for y in range(p**e))

    sample = [random_point() for _ in range(8)]
    for P in sample:
        assert P.curve == c and c.on_curve_triple(P.xyz)
        assert (P + c.identity()) == P
        assert (P - P).is_identity()
    for _ in range(25):
        P, Q, R = (sample[rng.randrange(len(sample))] for _ in range(3))
        s = P + Q
        assert s.curve == c and c.on_curve_triple(s.xyz)  # closure
        assert s == Q + P  # commutativity
        assert (P + Q) + R == P + (Q + R)  # associativity


def test_add_xyz_reduces_componentwise():
    # the law over Z/35Z must project to the field law mod 5 and mod 7
    a, b, n = 1, 1, 35
    c = new_curve(a, b, n)
    pts = enumerate_points(c)
    for _ in range(80):
        P, Q = rng.choice(pts), rng.choice(pts)
        R = (P + Q).xyz
        for p in (5, 7):
            cp = new_curve(a, b, p)
            Pp = _to_affine(P.reduced(cp).xyz)
            Qp = _to_affine(Q.reduced(cp).xyz)
            want = affine_add(a, b, p, Pp, Qp)
            got = _to_affine(CurvePoint(cp, tuple(v % p for v in R)).xyz)
            assert got == want


def test_mixed_pairs_choose_the_law_per_prime():
    # over Z/221 = 13 * 17 some pairs have neither S nor T primitive mod N;
    # their sum takes S mod one prime and T mod the other
    a, b, n = 1, 6, 221
    c = new_curve(a, b, n)
    pts = [P.xyz for P in enumerate_points(c)]
    mixed, rest = [], []
    for P in pts:
        for Q in pts:
            products = c._law_products(P, Q)
            s, t = c._law_s(products), c._law_t(products)
            neither = math.gcd(*s, n) > 1 and math.gcd(*t, n) > 1
            (mixed if neither else rest).append((P, Q))
    assert mixed
    for P, Q in mixed + random.Random(221).sample(rest, 400):
        R = c.add_xyz(P, Q)
        for p in (13, 17):
            want = affine_add(a, b, p, _to_affine(tuple(v % p for v in P)), _to_affine(tuple(v % p for v in Q)))
            assert _to_affine(tuple(v % p for v in R)) == want, (P, Q)


@pytest.mark.parametrize(
    "n,factorization",
    [(221, None), (169, None), (25025, None), (DLP160_P, ((DLP160_P, 1),)), (DLP160_P**2, ((DLP160_P, 2),))],
    ids=["221", "169", "25025", "p160", "p160^2"],
)
def test_laws_equal_the_expanded_polynomials(n, factorization):
    # any triples, on the curve or not: S and T are polynomial identities mod N;
    # a quarter of the pairs are diagonal, where _law_products takes its own branch
    local = random.Random(n)
    while True:
        a, b = local.randrange(n), local.randrange(n)
        if math.gcd(4 * a**3 + 27 * b * b, n) == 1:
            break
    c = new_curve(a, b, n, factorization)
    for i in range(1200):
        P = tuple(local.randrange(n) for _ in range(3))
        Q = P if i % 4 == 0 else tuple(local.randrange(n) for _ in range(3))
        products = c._law_products(P, Q)
        assert c._law_s(products) == expanded_law_s(a, b, n, P, Q), (P, Q)
        assert c._law_t(products) == expanded_law_t(a, b, n, P, Q), (P, Q)


def test_laws_are_evaluated_only_when_needed(monkeypatch):
    c = new_curve(1, 6, 221)
    pts = [P.xyz for P in enumerate_points(c)]
    pairs = random.Random(6).sample([(P, Q) for P in pts for Q in pts if P != Q], 3000)
    s_primitive = {
        pair: all(any(v % p for v in c._law_s(c._law_products(*pair))) for p in (13, 17))
        for pair in pairs
    }
    assert not all(s_primitive.values())
    calls = {"s": 0, "t": 0}

    def counted(key, law):
        def wrapper(self, products):
            calls[key] += 1
            return law(self, products)

        return wrapper

    monkeypatch.setattr(Curve, "_law_s", counted("s", Curve._law_s))
    monkeypatch.setattr(Curve, "_law_t", counted("t", Curve._law_t))
    for P in pts:
        calls.update(s=0, t=0)
        c.add_xyz(P, P)
        assert calls == {"s": 0, "t": 1}, P
    for pair, primitive in s_primitive.items():
        calls.update(s=0, t=0)
        c.add_xyz(*pair)
        assert calls == {"s": 1, "t": 0 if primitive else 1}, pair


def _repeated_addition(c, k, P):
    step = P if k >= 0 else c.neg_xyz(P)
    acc = (0, 1, 0)
    for _ in range(abs(k)):
        acc = c.add_xyz(acc, step)
    return acc


@pytest.mark.parametrize("a,b,n", [(1, 6, 221), (7, 3, 169)])
def test_scalar_xyz_matches_repeated_addition(a, b, n):
    c = new_curve(a, b, n)
    pts = [P.xyz for P in enumerate_points(c)]
    over_infinity = [P for P in pts if P[2] != 1]
    affine = [P for P in pts if P[2] == 1]
    local = random.Random(n)
    sample = local.sample(over_infinity, 6) + local.sample(affine, 6)
    x, y, z = sample[-1]
    unit = 2  # gcd(2, n) = 1: a non-canonical triple of the same point
    sample.append((unit * x, unit * y, unit * z))
    assert sample[-1] != canonical_triple(*sample[-1], c.modulus)
    for P in sample:
        for k in range(-30, 31):
            assert c.scalar_xyz(k, P) == _repeated_addition(c, k, P), (P, k)


# the ladder's switches: binary below NAF_FROM_BITS bits, width 5 from WIDTH5_FROM_BITS
NAF_FROM_BITS, WIDTH5_FROM_BITS = 24, 106


def _at_bits(local, bits):
    return local.getrandbits(bits - 1) | 1 << (bits - 1)


def test_scalar_xyz_addition_count():
    c = new_curve(7, 3, 169)
    P = (0, 61, 1)
    local = random.Random(64160)
    ks = list(range(1, 70)) + [2**20, 2**20 - 1, 10**12 + 39]
    ks += [2**23 - 1, 2**23, 2**24 - 1, 2**105 + 1, 2**106 - 1, 2**106 + 1, DLP160_P]
    ks += [_at_bits(local, bits) for bits in (23, 24, 32, 64, 64, 64, 105, 106, 160, 160, 160)]
    for k in ks:
        ADDITIONS.reset()
        c.scalar_xyz(k, P)
        want = ladder_additions(k, NAF_FROM_BITS, WIDTH5_FROM_BITS)
        if k.bit_length() < NAF_FROM_BITS:
            assert want == k.bit_length() - 1 + bin(k).count("1") - 1, k
        assert ADDITIONS.value == want, k


def _unit_multiple(c, P, local):
    """P scaled by a random unit other than 1: a non-canonical triple of the same point."""
    u = next(u for u in iter(lambda: local.randrange(2, c.n), None) if math.gcd(u, c.n) == 1)
    return tuple(u * v % c.n for v in P)


@pytest.mark.parametrize("a,b,n", [(1, 6, 221), (1, 1, 175), (7, 3, 169)])
def test_raw_addition_canonicalizes_to_the_canonical_sum(a, b, n):
    # 221 = 13 * 17 has pairs that take S mod one prime and T mod the other;
    # 175 = 5^2 * 7 and 169 = 13^2 have points over infinity mod p^2
    c = new_curve(a, b, n)
    local = random.Random(n)
    pts = [P.xyz for P in enumerate_points(c)]
    pairs = [(P, Q) for P in pts for Q in pts]
    pairs = local.sample(pairs, 600) + [(P, P) for P in pts] + [(P, c.neg_xyz(P)) for P in pts]
    mixed = 0  # pairs whose S is primitive mod one prime and not the other
    for P, Q in pairs:
        want = c.add_xyz(P, Q)
        for u, v in ((P, Q), (_unit_multiple(c, P, local), _unit_multiple(c, Q, local))):
            raw = c.add_xyz(u, v, canonical=False)
            assert c.on_curve_triple(raw), (u, v)
            assert canonical_triple(*raw, c.modulus) == want == c.add_xyz(u, v), (u, v)
        s = c._law_s(c._law_products(P, Q))
        mixed += len({any(x % p for x in s) for p, _, _ in c.modulus.parts}) == 2
    if n == 221:
        assert mixed


def _canonical_ladder(c, k, P):
    """k P by left-to-right double-and-add from O, every addition canonical."""
    if k < 0:
        k, P = -k, c.neg_xyz(P)
    acc = (0, 1, 0)
    for bit in bin(k)[2:]:
        acc = c.add_xyz(acc, acc)
        if bit == "1":
            acc = c.add_xyz(acc, P)
    return acc


def test_scalar_xyz_matches_a_canonical_ladder_on_the_160_bit_curve():
    p = DLP160_P
    fp = new_curve(DLP160_A, DLP160_B, p, factorization=((p, 1),))
    lifted = new_curve(DLP160_A, DLP160_B, p * p, factorization=((p, 2),))
    base = fp.point(*DLP160_BASE)
    local = random.Random(160)
    ks = [0, 1, 2, 3, -1, -2, -5, p, p - 1, -p, 3 * p, (2**40 + 1) * p] + [local.getrandbits(160) for _ in range(3)]
    ks.append(-local.getrandbits(160))
    ks += [sign * _at_bits(local, bits) for bits in (23, 24, 105, 106) for sign in (1, -1)]
    for c, P in ((fp, base.xyz), (lifted, lift_point(fp, base, lifted).xyz)):
        for Q in (P, _unit_multiple(c, P, local)):
            for k in ks:
                assert c.scalar_xyz(k, Q) == _canonical_ladder(c, k, Q), (c, Q, k)


@pytest.mark.parametrize("a,b,n", [(1, 6, 221), (1, 1, 175), (7, 3, 169)])
def test_scalar_xyz_ladder_edges_on_small_orders(a, b, n, monkeypatch):
    # every point has small order here, so long scalars wrap many times:
    # partial sums hit O and equal +-(a table entry) under another raw
    # triple, where S vanishes and T must serve.  221 = 13 * 17 and 175 =
    # 5^2 * 7 mix S and T; 175 and 169 = 13^2 have points over infinity mod p^2.
    c = new_curve(a, b, n)
    local = random.Random(n)
    pts = enumerate_points(c)
    order = {P.xyz: point_order(P, len(pts)) for P in pts}
    small = sorted(order, key=order.get)[:8]  # O first
    over_infinity = [P for P in order if P != (0, 1, 0) and math.gcd(P[2], n) > 1][:2]
    sample = small + over_infinity + local.sample(sorted(set(order) - set(small)), 4)
    assert over_infinity
    # raw ladder additions with O, of two triples of one point, and taking S mod one prime, T mod another
    seen = {"O": 0, "same point": 0} | ({"mixed": 0} if n != 169 else {})
    add_xyz = Curve.add_xyz

    def watched(self, p1, p2, canonical=True):
        if not canonical:
            q1, q2 = canonical_triple(*p1, c.modulus), canonical_triple(*p2, c.modulus)
            seen["O"] += (0, 1, 0) in (q1, q2)
            seen["same point"] += p1 != p2 and q1 == q2
            if n != 169 and p1 != p2:
                s = c._law_s(c._law_products(p1, p2))
                seen["mixed"] += len({any(v % q for v in s) for q, _, _ in c.modulus.parts}) == 2
        return add_xyz(self, p1, p2, canonical=canonical)

    monkeypatch.setattr(Curve, "add_xyz", watched)
    lengths = (NAF_FROM_BITS - 1, NAF_FROM_BITS, WIDTH5_FROM_BITS - 1, WIDTH5_FROM_BITS, 160)
    for P in sample:
        Q = _unit_multiple(c, P, local)
        ks = [sign * _at_bits(local, bits) for bits in lengths for sign in (1, -1)]
        ks += [order[P] * _at_bits(local, bits) for bits in (40, 120)]  # multiples of the order
        got = [c.scalar_xyz(k, Q) for k in ks]
        assert got == [_canonical_ladder(c, k, Q) for k in ks], P
        assert got[-2:] == [(0, 1, 0)] * 2
    assert all(seen.values()), seen


def test_scalar_xyz_inverts_once_per_prime(monkeypatch):
    import znec.projective

    inverted = []

    def counted(base, exp, mod):
        inverted.append(mod)
        return pow(base, exp, mod)

    # canonical_triple is the only code that inverts (tests/test_scaling_path.py)
    monkeypatch.setattr(znec.projective, "pow", counted, raising=False)
    for c, P in ((new_curve(DLP160_A, DLP160_B, DLP160_P, factorization=((DLP160_P, 1),)), DLP160_BASE),
                 (new_curve(1, 6, 221), (3, 6, 1))):
        once = sorted(pe for _, pe, _ in c.modulus.parts)
        for k in (2, 3, 2**64 + 1, -(2**64 + 1)):
            inverted.clear()
            c.scalar_xyz(k, P)
            assert sorted(inverted) == once, (c, k)
        point = c.point(*P)
        other = 3 * point
        for name, op in (("P - Q", lambda: point - other), ("-P", lambda: -other)):
            inverted.clear()
            op()
            assert sorted(inverted) == once, (c, name)


def test_point_order_and_lift_point_reject_wrong_types():
    c = new_curve(1, 6, 13)
    with pytest.raises(ZnecError):
        point_order((2, 4, 1), 13)
    for target in (2, None, Modulus(169), new_curve(1, 7, 169)):
        with pytest.raises(ZnecError):
            lift_point(c, c.point(2, 4), target)


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
    got = {pt.xyz for pt in enumerate_points(c)}
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
    n5 = len(enumerate_points(c5))
    assert len(enumerate_points(c25)) == 5 * n5
    c7 = new_curve(1, 1, 7)
    assert len(enumerate_points(c35)) == n5 * len(enumerate_points(c7))


def test_reduction_is_a_homomorphism():
    c = new_curve(1, 1, 175)
    pts = [p for p in enumerate_points(c)]
    for m in (Modulus(5), Modulus(25), Modulus(7)):
        cm = c.reduced(m)
        assert cm == new_curve(1, 1, m.n) and hash(cm) == hash(new_curve(1, 1, m.n))
        for _ in range(40):
            P, Q = rng.choice(pts), rng.choice(pts)
            R, S = (P + Q).reduced(cm), P.reduced(cm) + Q.reduced(cm)
            assert R == S and hash(R) == hash(S)
    with pytest.raises(ZnecError, match="11 does not divide 175"):
        c.reduced(Modulus(11))


def test_point_validation():
    c = new_curve(1, 1, 5)
    with pytest.raises(PointNotOnCurve):
        c.point(1, 1)
    assert c.on_curve_triple((0, 1, 1))
    assert not c.on_curve_triple((1, 1, 1))


def test_both_laws_vanish_only_off_curve():
    c = new_curve(1, 1, 5)
    with pytest.raises(BothLawsVanish) as info:
        c.add_xyz((0, 0, 1), (0, 0, 1))  # (0,0,1) is not on E_{1,1}
    assert "5" in str(info.value)


def test_on_curve_pairs_never_trip_both_laws():
    for a, b, n in [(2, 4, 5), (1, 6, 13), (1, 1, 35)]:
        c = new_curve(a, b, n)
        pts = enumerate_points(c)
        for P in pts:
            for Q in pts:
                c.add_xyz(P.xyz, Q.xyz)  # must not raise


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
    assert point_order(c.identity(), 1) == 1
    for wrong in (1, 13, 2 * 13 * 5, 0, -169):  # a multiple below 1 is no bound on the order
        with pytest.raises(ZnecError):
            point_order(c.point(0, 61), wrong)
    with pytest.raises(ZnecError):
        point_order(c.identity(), 0)
    c3 = new_curve(2, 3, 97)  # 100 = 2^2 * 5^2 points
    ADDITIONS.reset()
    assert point_order(c3.point(0, 10), 100) == 50
    # 25P (6) and one doubling to O, then 4P (2) and two steps by 5 (3 each)
    assert ADDITIONS.value == 15
