import ast
import collections
import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from znec import cli, modring, structure
from znec.curve import ADDITIONS, Curve, new_curve
from znec.errors import BudgetExceeded, NotAnomalous, SelfCheckFailed, ZnecError
from znec.infinity import lift_point
from znec.modring import factorize, is_prime
from znec.structure import (
    CYCLIC,
    NON_ANOMALOUS,
    SPLIT,
    _add_fp,
    _bsgs,
    _count_cost,
    _count_shanks_mestre,
    _legendre_count,
    _sqrt_mod_prime,
    anomalous_type,
    classify,
    count_points_fp,
    group_structure_fp,
    is_anomalous,
    phi_map,
)
from znec.reference import DLP160_A, DLP160_B, DLP160_P
import enumeration
from enumeration import brute_force_structure, enumerate_points, invariant_factors
from oracles import (
    affine_add,
    anomalous_type_by_multiple,
    count_fp,
    field_group_invariants,
    field_points,
    shanks_mestre_by_orders,
)

rng = random.Random(0xABE1)


def _random_field_curve(p):
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p:
            return new_curve(a, b, p)


def test_invariant_factors_merge():
    assert invariant_factors([11, 13, 13, 11, 7]) == (143, 1001)
    assert invariant_factors([]) == ()
    assert invariant_factors([4, 2, 3]) == (2, 12)
    assert invariant_factors([5, 5, 5]) == (5, 5, 5)


def test_invariant_factors_reject_a_composite_entry():
    for entries in ([6], [5, 6, 25]):
        with pytest.raises(ZnecError, match=r"\b6\b"):
            invariant_factors(entries)


def test_chain_matches_the_per_prime_regrouping():
    # _chain folds whole orders by gcd/lcm; the oracle sorts each prime's exponents
    r = random.Random(28)
    seen = {"one": 0, "repeat": 0, "shared prime": 0}
    for _ in range(3000):
        values = [math.prod(l ** r.choice((0, 0, 1, 2, 3)) for l in (3, 5, 7)) for _ in range(4)]
        orders = r.choices(values, k=r.randrange(9))
        seen["one"] += 1 in orders
        seen["repeat"] += len(set(orders)) < len(orders)
        seen["shared prime"] += any(math.gcd(u, v) > 1 for u, v in itertools.combinations(set(orders), 2))
        split = [q**k for d in orders if d > 1 for q, k in factorize(d)]
        assert structure._chain(orders) == invariant_factors(split), orders
    assert min(seen.values()) > 100, seen


def test_enumeration_imports_no_private_name_from_structure():
    # the brute-force oracle builds its own chain; it may still Hensel-lift with infinity._hensel_lift
    tree = ast.parse(Path(enumeration.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "znec.structure"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 37])
def test_count_matches_pair_scan(p):
    for _ in range(6):
        c = _random_field_curve(p)
        assert count_points_fp(c) == count_fp(c.a, c.b, p)


def test_count_known_values():
    assert count_points_fp(new_curve(7, 3, 13)) == 13
    assert count_points_fp(new_curve(1, 6, 13)) == 13
    assert count_points_fp(new_curve(0, 15, 157)) == 169


def test_count_budget():
    with pytest.raises(BudgetExceeded):
        count_points_fp(new_curve(1, 1, 2**89 - 1))


def _in_hasse_interval(count, p):
    return (p + 1 - count) ** 2 <= 4 * p


def _seeded_points(a, b, p, k, seed):
    """k points of y^2 = x^3 + ax + b over F_p for p = 3 mod 4, square roots by Euler."""
    assert p % 4 == 3
    r = random.Random(seed)
    pts = []
    while len(pts) < k:
        x = r.randrange(p)
        rhs = (x**3 + a * x + b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            pts.append((x, y, 1))
    return pts


def test_count_40_bit_primes_by_certificate(monkeypatch):
    monkeypatch.delenv("ZNEC_BUDGET", raising=False)
    p1, p2 = 2**40 - 213, 2**40 - 285  # the two largest primes below 2^40 that are 3 mod 4
    counts = []
    for p in (p1, p2):
        curve = new_curve(2, 7, p)
        count = count_points_fp(curve)
        assert _in_hasse_interval(count, p)
        d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
        twist = new_curve(2 * d * d, 7 * d**3, p)
        for xyz in _seeded_points(curve.a, curve.b, p, 3, p):
            assert curve.scalar_xyz(count, xyz) == (0, 1, 0)
        for xyz in _seeded_points(twist.a, twist.b, p, 3, p):
            assert twist.scalar_xyz(2 * p + 2 - count, xyz) == (0, 1, 0)
        counts.append(count)
    g = classify(new_curve(2, 7, p1 * p2, factorization=((p2, 1), (p1, 1))))
    assert g.order == counts[0] * counts[1]


def _shanks_mestre_agrees(a, b, p):
    return _count_shanks_mestre(a, b, p) == _legendre_count(a, b, p)


def test_shanks_mestre_matches_legendre_every_prime_to_2000():
    r = random.Random(0x5EED)
    for p in (q for q in range(231, 2000) if is_prime(q)):
        for _ in range(3):
            while True:
                a, b = r.randrange(p), r.randrange(p)
                if (4 * a**3 + 27 * b**2) % p:
                    break
            assert _shanks_mestre_agrees(a, b, p), (a, b, p)


@pytest.mark.parametrize("p", [233, 239, 241])
def test_shanks_mestre_matches_legendre_j0_and_small_b(p):
    curves = {(0, b) for b in range(p)} | {(a, b) for a in range(p) for b in (0, 1, 2)}
    for a, b in sorted(curves):
        if (4 * a**3 + 27 * b**2) % p:
            assert _shanks_mestre_agrees(a, b, p), (a, b, p)


def test_shanks_mestre_twist_decides_full_torsion():
    # E_{0,14}(F_307) is F_17 + F_17: four multiples of its exponent 17 lie
    # in the Hasse interval, so the twist has to pick 289
    p = 307
    assert sum(1 for m in range(0, 2 * p + 3, 17) if _in_hasse_interval(m, p)) == 4
    assert group_structure_fp(new_curve(0, 14, p)).shape == (17, 17)
    assert _count_shanks_mestre(0, 14, p) == _legendre_count(0, 14, p) == 289


def test_shanks_mestre_out_of_draws_names_the_candidates_left(monkeypatch):
    # one draw on E_{0,14}(F_307) leaves the four multiples of its exponent 17
    monkeypatch.setattr(structure, "_DRAWS", 1)
    with pytest.raises(SelfCheckFailed, match=r"candidates left \[289, 306, 323, 340\]$"):
        _count_shanks_mestre(0, 14, 307)


def test_shanks_mestre_out_of_candidates_fails(monkeypatch):
    # a BSGS that matches nothing empties the candidates at the first draw
    monkeypatch.setattr(structure, "_bsgs", lambda *args: range(0))
    with pytest.raises(SelfCheckFailed, match=r"could not pin \|E_\{1,1\}\(F_2003\)\|: candidates left \[\]$"):
        _count_shanks_mestre(1, 1, 2003)


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from([q for q in range(230, 20001) if is_prime(q)]), st.integers(0, 2**32), st.integers(0, 2**32))
def test_shanks_mestre_property(p, a, b):
    a, b = a % p, b % p
    assume((4 * a**3 + 27 * b**2) % p)
    count = _count_shanks_mestre(a, b, p)
    assert count == _legendre_count(a, b, p)
    assert _in_hasse_interval(count, p)


def test_count_above_crossover_repeats_its_additions():
    spent = []
    for _ in range(2):
        structure._count_fp.cache_clear()
        ADDITIONS.reset()
        count_points_fp(new_curve(5, 8, 100003))
        spent.append(ADDITIONS.reset())
    # the count by lcms of point orders, a point_order call after each BSGS match, took 111
    assert spent[0] == spent[1] == 67


def test_count_above_crossover_proves_no_prime_again(monkeypatch):
    # new_curve proved 100003 prime; the Shanks-Mestre count builds F_p on that proof
    c = new_curve(5, 8, 100003)
    want = _legendre_count(5, 8, 100003)
    structure._count_fp.cache_clear()
    monkeypatch.setattr(modring, "is_prime", lambda n: pytest.fail(f"is_prime({n}) ran again"))
    assert count_points_fp(c) == want


def test_shanks_mestre_keeps_the_count_and_draws_of_the_order_rule(monkeypatch):
    # the kept candidates are those the lcm rule allows, so every count is
    # the rule's; with the parity the cubic's roots give, it also takes
    # exactly as many draws as the rule does
    drawn = []
    draws = structure._draws

    def counted(*curves):
        for c, pt in draws(*curves):
            drawn.append(pt)
            yield c, pt

    monkeypatch.setattr(structure, "_draws", counted)
    r = random.Random(0x0DD5)
    curves = []
    for p in (q for q in range(231, 2000) if is_prime(q)):
        for _ in range(3):
            while True:
                a, b = r.randrange(p), r.randrange(p)
                if (4 * a**3 + 27 * b**2) % p:
                    break
            curves.append((a, b, p))
    for p in (233, 239, 241):
        sweep = {(0, b) for b in range(p)} | {(a, b) for a in range(p) for b in (0, 1, 2)}
        curves += [(a, b, p) for a, b in sorted(sweep) if (4 * a**3 + 27 * b**2) % p]
    for a, b, p in curves:
        drawn.clear()
        count = _count_shanks_mestre(a, b, p)
        assert count == shanks_mestre_by_orders(a, b, p)[0], (a, b, p)
        assert (count, len(drawn)) == shanks_mestre_by_orders(a, b, p, parity=True), (a, b, p)


def test_non_square_discriminant_means_one_root():
    # Stickelberger: a squarefree cubic over F_p has 3 - r irreducible
    # factors of even count exactly when its discriminant is a square, so
    # x^3 + a x + b has one root in F_p exactly when -(4a^3 + 27b^2) is not
    for p in (q for q in range(5, 100) if is_prime(q)):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            roots = collections.Counter((x**3 + a * x) % p for x in range(p))  # x^3 + a x = -b
            for b in range(p):
                disc = -(4 * a**3 + 27 * b * b) % p
                if disc:
                    assert (disc not in squares) == (roots[-b % p] == 1), (a, b, p)


def test_bsgs_finds_every_match():
    # every point P on four small curves, every n0 mod its order, both signs
    # of step, against the list of k < count with (n0 + k step) P = O, over
    # counts on both sides of the baby-step bound s = isqrt(count // 2) + 1;
    # n0 near 3p makes the giant steps start far from 0
    cases = set()
    for a, b, p in ((12, 0, 13), (1, 1, 19), (2, 3, 23), (3, 4, 31)):
        for pt in field_points(a, b, p):
            if pt is None or pt[1] > p // 2:  # -P matches as P does
                continue
            multiples = [None, pt]  # multiples[k] = k P, up to the order of P
            while multiples[-1] is not None:
                multiples.append(affine_add(a, b, p, multiples[-1], pt))
            order = len(multiples) - 1
            for step in (1, -1, 2, -3, order, -order):
                for n0 in range(3 * p, 3 * p + order):
                    for count in (1, 2, 3, 4, 5, 8, 13, 21, 34, 55, 89):
                        want = [k for k in range(count) if (n0 + k * step) % order == 0]
                        got = list(_bsgs(a, p, pt, n0, step, count))
                        assert got == want, (a, b, p, pt, n0, step, count)
                        s = math.isqrt(count // 2) + 1
                        d = order // math.gcd(step, order)
                        kind = "d < s" if d < s else "d <= 2s+1" if d <= 2 * s + 1 else "d > 2s+1"
                        cases.add("g = O" if d == 1 else kind)
                        t = multiples[n0 % order]
                        cases.add("t = O" if t is None else "Y = 0" if t[1] == 0 else "t affine")
                        cases.add(("count < 4" if count < 4 else "count >= 4", min(len(want), 2)))
    assert cases == {
        "g = O", "d < s", "d <= 2s+1", "d > 2s+1", "t = O", "Y = 0", "t affine",
        *((small, m) for small in ("count < 4", "count >= 4") for m in (0, 1, 2)),
    }


def test_affine_step_matches_the_oracle_on_every_pair():
    # over F_11, y^2 = x^3 - x has full 2-torsion and y^2 = x^3 + x one point
    # of order 2; y^2 = x^3 + x + 1 over F_19 has none
    cases = set()
    for a, b, p in ((10, 0, 11), (1, 0, 11), (1, 1, 19)):
        pts = field_points(a, b, p)
        for u in pts:
            for v in pts:
                ADDITIONS.reset()
                assert _add_fp(a, p, u, v) == affine_add(a, b, p, u, v), (a, b, p, u, v)
                assert ADDITIONS.reset() == 1
                if u is None or v is None:
                    cases.add("O")
                elif u == v:
                    cases.add("P = Q, y = 0" if u[1] == 0 else "P = Q")
                elif u[0] == v[0]:
                    cases.add("P = -Q")
                else:
                    cases.add("chord")
    assert cases == {"O", "P = Q", "P = Q, y = 0", "P = -Q", "chord"}


def test_count_takes_no_projective_step(monkeypatch):
    # every F_p step in structure is affine: the Shanks-Mestre count on
    # (a, b, p) alone, building no Curve and no Modulus, and the shape proof
    # and the anomalous cofactor, whose projective steps are all mod p^e, e > 1
    def refuse(*args, **kwargs):
        pytest.fail("a projective step over F_p, a Curve or a Modulus inside the count")

    def refusing_over_a_prime(law):
        def guarded(self, *args, **kwargs):
            if self.modulus.factorization == ((self.n, 1),):
                refuse()
            return law(self, *args, **kwargs)

        return guarded

    monkeypatch.setattr(Curve, "add_xyz", refusing_over_a_prime(Curve.add_xyz))
    monkeypatch.setattr(Curve, "scalar_xyz", refusing_over_a_prime(Curve.scalar_xyz))
    with monkeypatch.context() as m:
        m.setattr(Curve, "__init__", refuse)
        m.setattr(modring.Modulus, "_fill", refuse)
        for a, b, p in ((5, 8, 2003), (2, 7, 2011), (0, 1, 100003), (1, 0, 262139)):
            assert _count_shanks_mestre(a, b, p) == _legendre_count(a, b, p), (a, b, p)
    assert group_structure_fp(new_curve(0, 15, 157)).shape == (13, 13)
    assert group_structure_fp(new_curve(9120, 2181, 13627)).shape == (6906, 2)
    assert anomalous_type(new_curve(3, 0, 25)) == SPLIT
    assert anomalous_type(new_curve(3, 5, 25)) == CYCLIC


def test_counts_in_the_workload_range_stay_pinned():
    # 200 seeded curves with 2e4 <= p <= 3e5, the classify-count range, where
    # the Legendre cross-check is too slow: one digest of every count, so a
    # change to any of them fails here
    r = random.Random(0xC0DE)
    digest = hashlib.sha256()
    for _ in range(200):
        while not is_prime(p := r.randrange(20_000, 300_001)):
            pass
        a, b = r.randrange(p), r.randrange(p)
        if (4 * a**3 + 27 * b * b) % p:
            digest.update(f"{a} {b} {p} {structure._count_fp(a, b, p)}\n".encode())
    assert digest.hexdigest() == "ed718b4e2f2af38fc26a95eb41663cbcf08aeac9ac4d2a41a9815341c30ca6cf"


def test_bsgs_steps_stay_within_the_count_cost(monkeypatch):
    # _count_cost charges each draw 2 isqrt(w) + 4 + 2 (bitlen(p) + bitlen(w))
    # steps, w = isqrt(4p); one draw's BSGS, its start ladders included, must
    # not spend more: at every prime just above the crossover, on curves
    # whose discriminant is a square and on curves whose is not
    spent = []
    bsgs = structure._bsgs

    def counted(*args):
        before = ADDITIONS.value
        out = bsgs(*args)
        spent.append(ADDITIONS.value - before)
        return out

    monkeypatch.setattr(structure, "_bsgs", counted)
    r = random.Random(0xB0D6)
    curves = []
    for p in (q for q in range(2001, 2600) if is_prime(q)):
        residuosities = set()
        while len(residuosities) < 2:
            a, b = r.randrange(p), r.randrange(p)
            disc = -(4 * a**3 + 27 * b * b) % p
            if disc and (square := pow(disc, (p - 1) // 2, p) == 1) not in residuosities:
                residuosities.add(square)
                curves.append((a, b, p))
    for p in (2003, 100003, 10**9 + 7, 2**40 - 87):
        curves += [(a, b, p) for a, b in ((5, 8), (2, 7), (0, 1))]
    for a, b, p in curves:
        spent.clear()
        _count_shanks_mestre(a, b, p)
        assert 0 < max(spent) <= _count_cost(p) // structure._DRAWS, (a, b, p, spent)


def test_is_anomalous():
    assert is_anomalous(new_curve(7, 3, 13))
    assert is_anomalous(new_curve(1, 6, 13))
    assert not is_anomalous(new_curve(0, 15, 157))
    assert not is_anomalous(new_curve(1, 1, 5))


def test_is_anomalous_at_160_bits_without_counting(monkeypatch):
    # a count over this p is priced at about 1.5e14 steps; one point of order p decides
    monkeypatch.setenv("ZNEC_BUDGET", "10")
    assert is_anomalous(new_curve(DLP160_A, DLP160_B, DLP160_P))
    assert not is_anomalous(new_curve(DLP160_A, DLP160_B + 1, DLP160_P))
    with pytest.raises(BudgetExceeded):
        count_points_fp(new_curve(DLP160_A, DLP160_B, DLP160_P))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_is_anomalous_agrees_with_the_count_on_every_curve(p):
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p:
                c = new_curve(a, b, p)
                assert is_anomalous(c) == (count_points_fp(c) == p), (a, b, p)


def test_sqrt_mod_prime_matches_a_table_of_squares():
    # every a mod p, 5 <= p < 200; p = 1 mod 8 takes more than one Tonelli-Shanks round
    primes = [p for p in range(5, 200) if all(p % d for d in range(2, p))]
    assert {17, 41, 73, 97, 113, 193} <= {p for p in primes if p % 8 == 1}
    for p in primes:
        squares = {y * y % p for y in range(p)}
        for a in range(p):
            r = _sqrt_mod_prime(a, p)
            if a in squares:
                assert r is not None and 0 <= r < p and r * r % p == a, (a, p, r)
            else:
                assert r is None, (a, p, r)
        assert _sqrt_mod_prime(0, p) == 0


@pytest.mark.parametrize("p, s", [(65537, 16), (100069, 2), (299983, 1)])
def test_sqrt_mod_prime_at_workload_sizes(p, s):
    # 2^s exactly divides p - 1: 65537 takes the deepest Tonelli-Shanks loop below 3e5, 100069 is
    # 5 mod 8 and 299983 is 3 mod 4.  A None must be a non-residue by Euler's criterion.
    assert is_prime(p) and (p - 1) % 2**s == 0 and (p - 1) // 2**s % 2 == 1
    seeded = random.Random(p)
    nones = 0
    for a in (seeded.randrange(p) for _ in range(2000)):
        r = _sqrt_mod_prime(a, p)
        if r is None:
            assert pow(a, (p - 1) // 2, p) == p - 1, (a, p)
            nones += 1
        else:
            assert 0 <= r < p and r * r % p == a, (a, p, r)
    assert 900 < nones < 1100


def test_draws_take_the_curves_in_turn():
    p, coeffs = 100003, ((5, 8), (2, 7))
    curves = [new_curve(a, b, p) for a, b in coeffs]
    pairs = list(structure._draws(p, *coeffs))
    assert [i for i, _ in pairs] == [0, 1] * (structure._DRAWS // 2)
    assert all(curves[i].point(x, y).xyz == (x, y, 1) for i, (x, y) in pairs)


def test_a_curve_draws_the_same_points_after_other_curves_draw():
    p = 100003
    fresh = list(structure._draws(p, (5, 8)))
    group_structure_fp(new_curve(2, 7, 1009))
    anomalous_type(new_curve(7, 3, 169))
    other = structure._draws(p, (2, 7))
    interleaved = [pt for (_, pt), _ in zip(structure._draws(p, (5, 8)), other)]
    assert len(fresh) == structure._DRAWS
    assert interleaved == [pt for _, pt in fresh]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 19, 23])
def test_field_structure_matches_order_oracle(p):
    for _ in range(5):
        c = _random_field_curve(p)
        fd = group_structure_fp(c)
        n1, n2 = fd.shape
        assert n1 * n2 == fd.order
        assert n1 % n2 == 0
        assert n2 == 1 or (p - 1) % n2 == 0
        want = field_group_invariants(c.a, c.b, p)
        got = tuple(d for d in (n2, n1) if d > 1)
        assert got == want, (c.a, c.b, p)


def test_field_structure_full_torsion_witnesses():
    assert group_structure_fp(new_curve(0, 15, 157)).shape == (13, 13)
    assert group_structure_fp(new_curve(0, 11, 31)).shape == (5, 5)


def test_field_structure_matches_brute_force_where_gcd_bound_is_open():
    # every curve over F_p, 5 <= p < 30, that needs points to decide n2:
    # some l with l^2 | q and l | p - 1
    curves = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                c = new_curve(a, b, p)
                q = count_points_fp(c)
                if not any(q % (l * l) == 0 and (p - 1) % l == 0 for l in range(2, p)):
                    continue
                n1, n2 = group_structure_fp(c).shape
                assert tuple(d for d in (n2, n1) if d > 1) == brute_force_structure(c).factors, (a, b, p)
                curves += 1
    assert curves == 940


def test_field_structure_large_fields():
    # full 101- and 102-torsion, which only the pairing can certify; on
    # E_{0,2681} no single pairing of two successive draws has order 102
    assert group_structure_fp(new_curve(0, 3, 10303)).shape == (101, 101)
    assert group_structure_fp(new_curve(0, 2681, 10303)).shape == (102, 102)
    p = 10007
    for _ in range(3):
        c = _random_field_curve(p)
        fd = group_structure_fp(c)
        n1, n2 = fd.shape
        assert n1 * n2 == fd.order == p + 1 - fd.trace
        assert n1 % n2 == 0 and (n2 == 1 or (p - 1) % n2 == 0)


def test_field_structure_ignores_call_history():
    # the points drawn depend on the curve alone, so the work repeats exactly
    c = new_curve(9120, 2181, 13627)
    structure._count_fp.cache_clear()
    count_points_fp(c)
    ADDITIONS.reset()
    assert group_structure_fp(c).shape == (6906, 2)
    fresh = ADDITIONS.reset()
    assert group_structure_fp(new_curve(1, 7, 13627)).shape == (6892, 2)
    ADDITIONS.reset()
    assert group_structure_fp(c).shape == (6906, 2)
    assert ADDITIONS.reset() == fresh > 0


def test_field_structure_without_certificate_fails(monkeypatch):
    # the (13, 13) certificate pairs two draws, so one draw cannot prove it
    monkeypatch.setattr(structure, "_DRAWS", 1)
    with pytest.raises(SelfCheckFailed, match=r"the 13-part of E_\{0,15\}\(Z/157\) in 1 draws: lam 13, mu 1$"):
        group_structure_fp(new_curve(0, 15, 157))


def test_field_structure_with_a_pairing_that_does_not_die_fails(monkeypatch):
    # f_S(R) = 2 and f_R(S) = 1 make e_13(R, S) = -2, and (-2)^13 = 129 mod 157
    values = iter([2, 1])
    monkeypatch.setattr(structure, "_miller", lambda *args: next(values))
    with pytest.raises(SelfCheckFailed, match=r"^a Weil pairing on E_\{0,15\}\(Z/157\) does not die under 13$"):
        group_structure_fp(new_curve(0, 15, 157))


def _open_primes(p, q):
    """The l that the gcd bound leaves open: l^2 | q, l | p - 1 and l | t - 2."""
    t = p + 1 - q
    return [l for l, k in factorize(q) if k > 1 and (p - 1) % l == 0 and (t - 2) % l == 0]


@pytest.mark.parametrize(
    "a, b, p, shape, additions",
    [
        (0, 2681, 10303, (102, 102), 97),  # l = 2, 3, 17 open; 122 when every draw took its full order
        (9120, 2181, 13627, (6906, 2), 40),  # l = 2 open; 124 when every draw took its full order
    ],
)
def test_field_structure_additions_are_pinned(a, b, p, shape, additions):
    # the l-primary certificate multiplies each draw by q / l^a and then by l
    c = new_curve(a, b, p)
    count_points_fp(c)
    ADDITIONS.reset()
    assert group_structure_fp(c).shape == shape
    assert ADDITIONS.reset() == additions


def test_field_structure_matches_brute_force_where_two_primes_are_open():
    # every curve over F_p, 30 < p < 60, whose l-primary certificate has
    # two or more l to prove
    curves = 0
    for p in (31, 37, 41, 43, 47, 53, 59):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                c = new_curve(a, b, p)
                if len(_open_primes(p, count_points_fp(c))) < 2:
                    continue
                n1, n2 = group_structure_fp(c).shape
                assert tuple(d for d in (n2, n1) if d > 1) == brute_force_structure(c).factors, (a, b, p)
                curves += 1
    assert curves == 327


@pytest.mark.parametrize("a, b, p", [(0, 2681, 10303), (9120, 2181, 13627), (0, 15, 157), (0, 11, 31)])
def test_field_structure_rejects_a_wrong_count(monkeypatch, a, b, p):
    # every wrong q in the Hasse interval that leaves some l open must fail
    # a check of the certificate; none may come back as a shape
    c = new_curve(a, b, p)
    q = count_points_fp(c)
    w = math.isqrt(4 * p)
    wrong = [m for m in range(p + 1 - w, p + 2 + w) if m != q and _open_primes(p, m)]
    assert len(wrong) >= 6
    for m in wrong:
        monkeypatch.setattr(structure, "count_points_fp", lambda _, m=m: m)
        with pytest.raises(ZnecError):
            group_structure_fp(c)


def test_open_primes_come_from_the_gcd_with_p_minus_1():
    # structure factors gcd(q, p - 1), not q; it must leave open exactly the l of _open_primes:
    # every q in the Hasse window for p < 2000, and 64 seeded q in it for 200 seeded p in [2e4, 3e5]
    seeded = random.Random(34)
    cases = [(p, range(p + 1 - math.isqrt(4 * p), p + 2 + math.isqrt(4 * p))) for p in range(5, 2000) if is_prime(p)]
    for _ in range(200):
        p = next(n for n in itertools.count(seeded.randrange(20_000, 300_000)) if is_prime(n))
        cases.append((p, seeded.sample(range(p + 1 - math.isqrt(4 * p), p + 2 + math.isqrt(4 * p)), 64)))
    opened = 0
    for p, window in cases:
        for q in window:
            expected = _open_primes(p, q)
            assert structure._open_primes(p, q) == expected, (p, q)
            opened += bool(expected)
    assert opened > 10_000


def test_anomalous_type_fixtures():
    assert anomalous_type(new_curve(7, 3, 169)) == CYCLIC
    assert anomalous_type(new_curve(1, 6, 169)) == SPLIT
    with pytest.raises(NotAnomalous):
        anomalous_type(new_curve(1, 1, 25))
    assert anomalous_type(new_curve(7, 3, 13)) == CYCLIC  # e = 1 degenerate


def test_anomalous_type_both_cases_occur_among_lifts():
    base_a, base_b, p = 3, 2, 5  # anomalous over F_5
    types = {anomalous_type(new_curve(base_a, base_b + 5 * t, 25)) for t in range(5)}
    assert types == {CYCLIC, SPLIT}


def test_classify_fixtures():
    g = classify(new_curve(7, 3, 169))
    assert g.factors == (169,) and g.describe() == "Z/169"
    assert g.local[0].case == CYCLIC and g.local[0].fp_order == 13
    g = classify(new_curve(1, 6, 169))
    assert g.factors == (13, 13) and g.describe() == "Z/13 ⊕ Z/13"
    assert g.local[0].case == SPLIT
    g = classify(new_curve(167707, 21664, 187187))
    assert g.factors == (11,) * 5 and g.rank == 5
    assert [loc.case for loc in g.local] == [NON_ANOMALOUS, SPLIT, NON_ANOMALOUS, NON_ANOMALOUS]
    g = classify(new_curve(63707931, 239467091, 659902243))
    assert g.factors == (13,) * 8 and g.rank == 8


def test_classify_prime_modulus_is_field_structure():
    c = new_curve(2, 4, 5)
    g = classify(c)
    n1, n2 = group_structure_fp(c).shape
    assert g.factors == tuple(d for d in (n2, n1) if d > 1)
    assert g.order == count_points_fp(c)
    for field_only in (count_points_fp, group_structure_fp):  # a curve mod 5^2 is not over a field
        with pytest.raises(ZnecError, match=r"prime modulus required, got 5\^2"):
            field_only(new_curve(2, 4, 25))


def test_classify_local_rank_bounds():
    for a, b, n in [(7, 3, 169), (1, 6, 169), (167707, 21664, 187187), (1, 1, 1225)]:
        for loc in classify(new_curve(a, b, n)).local:
            non_kernel = [d for d in loc.factors if d % loc.p or loc.e == 1]
            assert len(loc.factors) <= 3  # field part (<= 2) plus kernel factor
            assert len(non_kernel) <= 2


def test_classify_crt_merge():
    for _ in range(6):
        n1 = rng.choice([5, 7, 25, 13])
        n2 = rng.choice([11, 49, 17, 169])
        if math.gcd(n1, n2) != 1:
            continue
        while True:
            a, b = rng.randrange(n1 * n2), rng.randrange(n1 * n2)
            if math.gcd(4 * a**3 + 27 * b**2, n1 * n2) == 1:
                break
        whole = classify(new_curve(a, b, n1 * n2))
        parts = classify(new_curve(a % n1, b % n1, n1)), classify(new_curve(a % n2, b % n2, n2))
        pool = [d for g in parts for loc in g.local for d in loc.factors]
        assert whole.factors == invariant_factors(
            [q**k for d in pool for q, k in factorize(d)]
        )
        assert whole.order == parts[0].order * parts[1].order


def test_non_anomalous_local_structure_is_field_plus_kernel():
    for p, e in [(5, 3), (7, 2), (13, 2)]:
        while True:
            c = _random_field_curve(p)
            if not is_anomalous(c):
                break
        lifted = new_curve(c.a, c.b, p**e)
        g = classify(lifted)
        n1, n2 = group_structure_fp(c).shape
        want = tuple(sorted(d for d in (n1, n2, p ** (e - 1)) if d > 1))
        assert tuple(sorted(g.local[0].factors)) == want


@pytest.mark.parametrize("a,b,n,factors", [(7, 3, 169, (169,)), (1, 6, 169, (13, 13))])
def test_brute_force_fixtures(a, b, n, factors):
    assert brute_force_structure(new_curve(a, b, n)).factors == factors


def test_brute_force_matches_field_oracle():
    for p in (5, 7, 11, 13):
        for _ in range(3):
            c = _random_field_curve(p)
            assert brute_force_structure(c).factors == field_group_invariants(c.a, c.b, p)


def test_phi_map_is_homomorphism_and_injective_when_q_not_p():
    for p in (5, 7):
        while True:
            c0 = _random_field_curve(p)
            if not is_anomalous(c0):
                break
        c = new_curve(c0.a, c0.b, p**3)
        pts = enumerate_points(c)
        table = {pt.xyz: phi_map(c, pt) for pt in pts}
        images = {(first.xyz, second) for first, second in table.values()}
        assert len(images) == len(pts)  # injective since q != p
        for _ in range(150):
            P, Q = rng.choice(pts), rng.choice(pts)
            f1, s1 = table[P.xyz]
            f2, s2 = table[Q.xyz]
            fs, ss = table[(P + Q).xyz]
            assert f1 + f2 == fs
            assert (s1 + s2) % p**2 == ss


def test_phi_map_not_injective_on_anomalous_curve():
    c = new_curve(7, 3, 169)  # q = p = 13
    pts = enumerate_points(c)
    images = {(first.xyz, second) for first, second in (phi_map(c, pt) for pt in pts)}
    assert len(images) < len(pts)


def test_phi_map_identity_and_bounds():
    c = new_curve(1, 1, 125)
    first, second = phi_map(c, c.identity())
    assert first.is_identity() and second == 0
    assert all(0 <= phi_map(c, pt)[1] < 25 for pt in enumerate_points(c))
    with pytest.raises(ValueError):
        phi_map(new_curve(1, 1, 5**6), new_curve(1, 1, 5**6).identity())


def test_classify_agrees_with_brute_force_spot():
    for a, b, n in [(1, 1, 35), (2, 4, 25), (1, 1, 7**3), (4, 1, 5 * 13)]:
        assert classify(new_curve(a, b, n)).factors == brute_force_structure(new_curve(a, b, n)).factors


def test_trace_one_mod_p_without_anomalous_base():
    # |E_{3,0}(F_5)| = 10: trace -4 = 1 mod 5, so 5 divides the field
    # order even though the curve is not anomalous (possible only at
    # p = 5, since p - 1 <= 2*sqrt(p) fails beyond it); the 5-Sylow of
    # the lift may then be cyclic, not F_5 + Z/5^(e-1)
    assert count_points_fp(new_curve(3, 0, 5)) == 10
    assert not is_anomalous(new_curve(3, 0, 5))
    g = classify(new_curve(3, 5, 25))
    assert g.factors == (50,)
    assert (g.local[0].case, g.local[0].fp_order) == (CYCLIC, 10)
    g = classify(new_curve(3, 0, 25))
    assert g.factors == (5, 10)
    assert g.local[0].case == SPLIT
    assert classify(new_curve(3, 5, 125)).factors == (250,)
    assert classify(new_curve(3, 0, 125)).factors == (5, 50)
    assert classify(new_curve(3, 5, 625)).factors == (1250,)


def test_trace_one_mod_p_lifts_agree_with_enumeration():
    cyclic = 0
    total = 0
    for a in range(25):
        for b in range(25):
            if (4 * a**3 + 27 * b**2) % 5 == 0:
                continue
            if count_points_fp(new_curve(a % 5, b % 5, 5)) != 10:
                continue
            c = new_curve(a, b, 25)
            g = classify(c)
            assert g.factors == brute_force_structure(c).factors, (a, b)
            total += 1
            cyclic += g.local[0].case == CYCLIC
    assert total == 25
    assert cyclic == 20  # same (p-1)/p heuristic as the anomalous case


def test_anomalous_type_agrees_with_the_order_of_the_lift():
    # every b-lift mod p^2 and p^3 of every base over F_p with p | |E(F_p)|
    curves = [
        new_curve(a, b + p * t, p**e)
        for p in (5, 7, 11)
        for a in range(p)
        for b in range(p)
        if (4 * a**3 + 27 * b**2) % p and count_fp(a, b, p) % p == 0
        for e in (2, 3)
        for t in range(p)
    ]
    assert len(curves) == 196
    types = set()
    for c in curves:
        start = ADDITIONS.value
        expected = anomalous_type_by_multiple(c)
        middle = ADDITIONS.value
        assert anomalous_type(c) == expected, c
        assert ADDITIONS.value - middle == middle - start, c  # Theta takes the same multiple
        types.add(expected)
    assert types == {CYCLIC, SPLIT}


def test_split_lifts_are_the_zeros_of_an_affine_theta():
    # for an anomalous base (a0, b0) and its first drawn point P, v(t) =
    # X(p P_t) / p mod p, P_t the Hensel lift of P to E_{A, b0 + p t} mod p^2,
    # is affine in t, and the lift is split exactly where v(t) = 0
    cases = 0
    for p in (q for q in range(5, 24) if is_prime(q)):
        for a0, b0 in itertools.product(range(p), repeat=2):
            if (4 * a0**3 + 27 * b0 * b0) % p == 0 or count_fp(a0, b0, p) != p:
                continue
            fp = new_curve(a0, b0, p)
            point = fp.point(*next(structure._draws(p, (a0, b0)))[1])
            for a in (a0, a0 + p):
                v = []
                for t in range(p):
                    c = new_curve(a, b0 + p * t, p * p)
                    x, y, z = c.scalar_xyz(p, lift_point(fp, point, c).xyz)
                    assert (x % p, y, z) == (0, 1, 0), c  # over infinity
                    v.append(x // p)
                    assert (anomalous_type(c) == SPLIT) == (v[t] == 0), c
                    cases += 1
                assert all(v[t] == (v[0] + t * (v[1] - v[0])) % p for t in range(p)), (a, b0, p)
    assert cases == 2580


def test_anomalous_type_requires_p_dividing_field_order():
    with pytest.raises(NotAnomalous):
        anomalous_type(new_curve(1, 1, 25))  # 9 points over F_5
    assert anomalous_type(new_curve(3, 5, 25)) == CYCLIC
    assert anomalous_type(new_curve(3, 0, 25)) == SPLIT


def test_anomalous_type_with_every_draw_dying_under_the_cofactor_fails(monkeypatch, capsys):
    # E_{3,0}(F_5) has 10 points, and its 2-torsion point (0, 0) dies under the cofactor 2
    monkeypatch.setattr(structure, "_draws", lambda p, *coeffs: ((0, (0, 0)) for _ in range(structure._DRAWS)))
    message = "40 points of E_{3,0}(Z/5) all die under the cofactor 2"
    with pytest.raises(SelfCheckFailed) as info:
        anomalous_type(new_curve(3, 0, 25))
    assert str(info.value) == message
    assert cli.main(["structure", "--a", "3", "--b", "0", "--n", "25"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"znec structure: self-check failed: {message}\n")


def test_anomalous_type_respects_counting_budget(monkeypatch):
    monkeypatch.setenv("ZNEC_BUDGET", "100")
    c = new_curve(1, 1, 101**2)
    with pytest.raises(BudgetExceeded):
        count_points_fp(c.component(101, 1))
    with pytest.raises(BudgetExceeded):
        anomalous_type(c)
