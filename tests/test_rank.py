import pytest

from znec import modring, rank
from znec.curve import new_curve
from znec.errors import BudgetExceeded, NoCurveOfOrderP, SelfCheckFailed, ZnecError
from znec.rank import (
    CHI_ABSENT,
    CHI_ASSUMED,
    CHI_WITNESSED,
    _curve_of_order_p,
    _split_curve_mod_p2,
    chi_candidates,
    chi_p,
    construct_max_rank_curve,
    hasse_primes,
    rank_bound,
)
from znec.structure import CYCLIC, FieldCurveData, count_points_fp, group_structure_fp

from oracles import count_fp, field_group_invariants, split_curve_mod_p2_by_all_b

HASSE = {
    5: (2, 3, 5, 7),
    7: (3, 5, 7, 11, 13),
    11: (7, 11, 13, 17),
    13: (7, 11, 13, 17, 19),
    101: (83, 89, 97, 101, 103, 107, 109, 113),
}

CHI = {
    5: (2, (31, 0, 11)),
    7: (2, (43, 0, 3)),
    11: (0, None),
    13: (2, (157, 0, 15)),
    17: (2, (307, 0, 14)),
}

CONSTRUCTIONS = {
    5: (4278, 3452, 5425, 5, 7, (2, 3)),
    7: (54782, 200856, 1506505, 7, 8, (3,)),
    11: (167707, 21664, 187187, 5, 5, ()),
    13: (63707931, 239467091, 659902243, 8, 8, ()),
}


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


@pytest.mark.parametrize("p,expected", sorted(HASSE.items()))
def test_hasse_primes_frozen(p, expected):
    assert hasse_primes(p) == expected


def test_hasse_primes_against_sieve():
    primes = _sieve(1300)
    for p in (5, 7, 11, 13, 101, 997, 1009):
        window = tuple(q for q in primes if (q - p - 1) ** 2 <= 4 * p)
        assert hasse_primes(p) == window
    with pytest.raises(ValueError):
        hasse_primes(15)


def test_chi_candidates_at_most_one():
    # 3 divides exactly one of p^2 - p + 1, p^2 + p + 1 when p > 3
    for p in _sieve(10_000):
        if p <= 3:
            continue
        divisible = [(p * p - p + 1) % 3 == 0, (p * p + p + 1) % 3 == 0]
        assert divisible.count(True) == 1
        cands = chi_candidates(p)
        assert len(cands) <= 1
        for q in cands:
            assert q % p == 1  # full p-torsion needs p | q - 1


@pytest.mark.parametrize("p", sorted(CHI))
def test_chi_fixtures(p):
    assert chi_p(p) == CHI[p]


@pytest.mark.parametrize("p", [p for p in sorted(CHI) if CHI[p][0]])
def test_chi_witness_is_lex_smallest_with_full_torsion(p):
    chi, (q, a, b) = CHI[p]
    assert count_fp(a, b, q) == p * p
    assert field_group_invariants(a, b, q) == (p, p)
    for aa in range(a + 1):
        for bb in range(q if aa < a else b):
            if (4 * aa**3 + 27 * bb**2) % q == 0:
                continue
            earlier = count_fp(aa, bb, q) == p * p and field_group_invariants(aa, bb, q) == (p, p)
            assert not earlier, (aa, bb)


def test_chi_validation_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        chi_p(3)
    with pytest.raises(ValueError):
        chi_p(9)
    monkeypatch.setenv("ZNEC_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        chi_p(13)


def test_chi_counts_at_most_six_twists(monkeypatch):
    calls, real = [], rank.count_points_fp
    monkeypatch.setattr(rank, "count_points_fp", lambda c: calls.append((c.a, c.b, c.n)) or real(c))
    assert chi_p(379) == (2, (143263, 0, 39))
    assert 1 <= len(calls) <= 6
    assert all(a == 0 and q == 143263 for a, _, q in calls)
    report = rank_bound(379)
    assert (report.chi_status, report.chi_witness) == (CHI_WITNESSED, (143263, 0, 39))


def test_chi_witness_sweep_below_1000():
    swept = 0
    for p in _sieve(1000):
        if p < 5 or not chi_candidates(p):
            continue
        chi, (q, a, b) = chi_p(p)
        c = new_curve(a, b, q)
        assert (chi, q, a) == (2, chi_candidates(p)[0], 0)
        assert count_points_fp(c) == p * p
        assert group_structure_fp(c).shape == (p, p)
        swept += 1
    assert swept == 40


def test_chi_witnessed_for_every_candidate_below_3000():
    # a count above the crossover costs O(q^(1/4)), so no witness here is out of budget
    swept = 0
    for p in _sieve(3000):
        if p < 5 or not chi_candidates(p):
            continue
        report = rank_bound(p)
        q, a, b = report.chi_witness
        assert (report.chi_status, q, a) == (CHI_WITNESSED, chi_candidates(p)[0], 0)
        assert group_structure_fp(new_curve(a, b, q)).shape == (p, p)
        swept += 1
    assert swept == 96


def test_chi_witness_near_1e5():
    assert chi_p(100049) == (2, (10009902451, 0, 18))
    c = new_curve(0, 18, 10009902451, factorization=((10009902451, 1),))
    assert group_structure_fp(c).shape == (100049, 100049)
    assert rank_bound(100049).chi_status == CHI_WITNESSED


def test_chi_breaks_with_theory_fail_the_self_check(monkeypatch):
    # a j = 0 curve with p^2 points but the wrong shape
    monkeypatch.setattr(rank, "group_structure_fp", lambda c: FieldCurveData(157, 169, -11, (169, 1)))
    with pytest.raises(SelfCheckFailed, match="shape"):
        chi_p(13)
    monkeypatch.undo()
    # no sextic twist with p^2 points: each of the six classes is counted once
    counted = []
    monkeypatch.setattr(rank, "count_points_fp", lambda c: counted.append(c.b) or 0)
    with pytest.raises(SelfCheckFailed, match="sextic"):
        chi_p(13)
    assert len({pow(b, 26, 157) for b in counted}) == len(counted) == 6


def test_split_curve_search_exhausted_is_a_self_check(monkeypatch):
    monkeypatch.setattr(rank, "anomalous_type", lambda c: CYCLIC)
    with pytest.raises(SelfCheckFailed):
        _split_curve_mod_p2(5)


def _outcome(walk, p):
    try:
        return walk(p)
    except ZnecError as exc:
        return type(exc)


def test_split_row_walk_matches_the_walk_over_every_b(monkeypatch):
    # same candidates in the same order, so the same curve, the same charges and the same exceptions
    for p in _sieve(199)[2:]:
        assert _outcome(_split_curve_mod_p2, p) == _outcome(split_curve_mod_p2_by_all_b, p), p
    monkeypatch.setenv("ZNEC_BUDGET", "40")
    outcomes = {p: _outcome(_split_curve_mod_p2, p) for p in (5, 7, 11, 13, 17, 19, 23)}
    assert outcomes == {p: _outcome(split_curve_mod_p2_by_all_b, p) for p in outcomes}
    assert BudgetExceeded in outcomes.values() and any(isinstance(o, tuple) for o in outcomes.values())


def test_searches_prove_each_prime_once(monkeypatch):
    proved, real = [], modring.is_prime
    monkeypatch.setattr(modring, "is_prime", lambda n: proved.append(n) or real(n))
    got = _split_curve_mod_p2(307)
    assert proved == [307]  # the walk over every B proved p once per candidate: 130 times
    assert got == split_curve_mod_p2_by_all_b(307)
    proved.clear()
    assert chi_p(379) == (2, (143263, 0, 39))
    assert proved.count(143263) == 1  # the six twists share one Modulus


@pytest.mark.parametrize("p", sorted(CHI))
def test_rank_bound_reports(p):
    report = rank_bound(p)
    chi, witness = CHI[p]
    window = HASSE.get(p) or tuple(q for q in _sieve(4 * p) if (q - p - 1) ** 2 <= 4 * p)
    assert report.hasse_primes == window
    assert report.h_p == len(window)
    assert report.chi_p == chi
    assert report.bound == len(window) + chi + 1
    assert report.chi_witness == witness
    assert report.chi_status == (CHI_WITNESSED if chi else CHI_ABSENT)


def test_rank_bound_budget_fallback(monkeypatch):
    monkeypatch.setenv("ZNEC_BUDGET", "10")
    report = rank_bound(13)
    assert (report.chi_p, report.chi_witness, report.chi_status) == (2, None, CHI_ASSUMED)
    assert report.bound == 8  # still valid, just not witnessed


def test_rank_bound_as_json():
    j = rank_bound(13).as_json()
    assert j["p"] == "13"
    assert j["hasse_primes"] == ["7", "11", "13", "17", "19"]
    assert j["chi_witness"] == {"q": "157", "a": "0", "b": "15"}
    assert (j["h_p"], j["chi_p"], j["bound"], j["chi_status"]) == (5, 2, 8, "witnessed")
    assert rank_bound(11).as_json()["chi_witness"] is None


@pytest.mark.parametrize("p", sorted(CONSTRUCTIONS))
def test_construct_max_rank_curve(p):
    a, b, n, rank, bound, skipped = CONSTRUCTIONS[p]
    built = construct_max_rank_curve(p)
    assert (built.a, built.b, built.n) == (a, b, n)
    assert (built.rank, built.bound, built.skipped) == (rank, bound, skipped)
    assert built.sharp == (rank == bound)
    assert built.structure.factors == (p,) * rank  # a p-group, all factors p
    for modulus, a_i, b_i, role in built.pieces:
        assert a % modulus == a_i and b % modulus == b_i
        assert str(modulus if modulus != p * p else p) in role


def test_construct_sharp_only_when_no_small_hasse_primes():
    # q in {2, 3} cannot divide N, so their Hasse-window slots are lost
    assert construct_max_rank_curve(11).sharp
    assert construct_max_rank_curve(13).sharp
    assert not construct_max_rank_curve(5).sharp
    assert not construct_max_rank_curve(7).sharp


def test_construct_pieces_roles():
    built = construct_max_rank_curve(13)
    roles = [role for _, _, _, role in built.pieces]
    assert roles == [
        "order-13 curve over F_7",
        "order-13 curve over F_11",
        "order-13 curve over F_17",
        "order-13 curve over F_19",
        "anomalous split mod 13^2",
        "full 13-torsion over F_157",
    ]
    j = built.as_json()
    assert j["n"] == "659902243" and j["sharp"] is True
    assert len(j["pieces"]) == 6


def test_curve_of_order_p_outside_hasse(monkeypatch):
    # 23 points over F_7 violates Hasse, and no search should start
    with pytest.raises(NoCurveOfOrderP):
        _curve_of_order_p(7, 23)
    a, b = _curve_of_order_p(7, 5)
    assert count_fp(a, b, 7) == 5
    tried = 1
    for aa in range(a + 1):
        for bb in range(7 if aa < a else b):
            if (4 * aa**3 + 27 * bb**2) % 7 != 0:
                assert count_fp(aa, bb, 7) != 5
                tried += 1
    # each nonsingular candidate is charged one count over F_7, 7 steps
    monkeypatch.setenv("ZNEC_BUDGET", str(7 * tried))
    assert _curve_of_order_p(7, 5) == (a, b)
    monkeypatch.setenv("ZNEC_BUDGET", str(7 * tried - 1))
    with pytest.raises(BudgetExceeded, match="order-5 search over F_7"):
        _curve_of_order_p(7, 5)


def test_curve_of_order_p_walked_out_inside_hasse_fails(monkeypatch):
    # every order in the Hasse window occurs over a prime field, so a walk
    # that finds none is a fault of the code, not of the input
    monkeypatch.setattr(rank, "_count_fp", lambda a, b, q: 0)
    with pytest.raises(SelfCheckFailed, match=r"^no curve over F_7 has 5 points$"):
        _curve_of_order_p(7, 5)
