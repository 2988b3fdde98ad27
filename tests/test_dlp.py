import random

import pytest

from znec import dlp, modring
from znec.curve import ADDITIONS, new_curve
from znec.errors import (
    LiftRetryExhausted,
    NotAnomalous,
    NotCyclic,
    ThetaZero,
    ZnecError,
)
from znec.infinity import kernel_generator
from znec.structure import CYCLIC, anomalous_type, count_points_fp, is_anomalous
from enumeration import enumerate_points
from oracles import ladder_additions

rng = random.Random(0xD109)

# anomalous base curves, lex-smallest over each field
ANOMALOUS = {5: (3, 2), 7: (0, 5), 13: (1, 6)}

P160 = 730750818665451459112596905638433048232067471723
A160 = 425706413842211054102700238164133538302169176474
B160 = 203362936548826936673264444982866339953265530166
PX160, PY160 = 1, 310536468939899693718962354338996655381367569020
QX160, QY160 = 3, 38292783053156441019740319553956376819943854515
THETA_P160 = 343088892565802863386490109374548044078624360215
THETA_Q160 = 470974712001084540433398653921983741661987449793
N160 = 113690975836469390483838646646828917131453128585


def _curve160():
    return new_curve(A160, B160, P160, factorization=((P160, 1),))


def _cyclic_anomalous_mod_p2(p):
    # all B-shifts of a j = 0 base can be split, so scan A-shifts too
    a0, b0 = ANOMALOUS[p]
    for s in range(p):
        for t in range(p):
            c = new_curve(a0 + p * s, b0 + p * t, p * p, factorization=((p, 2),))
            if anomalous_type(c) == CYCLIC:
                return c
    raise AssertionError(f"no cyclic lift of E_{{{a0},{b0}}} mod {p}^2")


def test_anomalous_base_curves_are_lex_smallest():
    for p, (a, b) in ANOMALOUS.items():
        assert count_points_fp(new_curve(a, b, p)) == p
        for aa in range(p):
            for bb in range(p):
                if (aa, bb) == (a, b):
                    break
                if (4 * aa**3 + 27 * bb**2) % p == 0:
                    continue
                assert count_points_fp(new_curve(aa, bb, p)) != p
            else:
                continue
            break


@pytest.mark.parametrize("p", [5, 7, 13])
def test_lift_point_roundtrip(p):
    a, b = ANOMALOUS[p]
    c = new_curve(a, b, p)
    lifted_curve = new_curve(a, b, p**3, factorization=((p, 3),))
    for pt in enumerate_points(c):
        lift = dlp.lift_point(c, pt, lifted_curve)
        assert lift.curve == lifted_curve
        assert lifted_curve.on_curve_triple(lift.xyz)
        assert lift.reduced(c) == pt
        if not pt.is_identity():
            assert lift.xyz[0] == pt.xyz[0]  # X pinned, Y corrected


def test_lift_point_identity_and_validation():
    c = new_curve(3, 2, 5)
    assert dlp.lift_point(c, c.identity(), new_curve(3, 2, 625)).is_identity()
    assert dlp.lift_point(c, c.point(1, 4), c) == c.point(1, 4)
    with pytest.raises(ZnecError):
        dlp.lift_point(c, (1, 2, 1), new_curve(3, 2, 25))
    with pytest.raises(ValueError):
        dlp.lift_point(new_curve(1, 1, 25), new_curve(1, 1, 25).identity(), new_curve(1, 1, 125))
    with pytest.raises(ValueError):
        dlp.lift_point(c, c.point(1, 4), new_curve(1, 1, 25))



def test_prime_field_entry_points_name_the_prime_power():
    c = new_curve(3, 2, 25)
    with pytest.raises(ZnecError, match=r"^prime modulus required, got 5\^2$"):
        dlp.DlpInstance(c, c.identity(), c.identity())
    with pytest.raises(ZnecError, match=r"^prime modulus required, got 5\^2$"):
        dlp.lift_point(c, c.identity(), new_curve(3, 2, 125))


def test_lift_point_two_torsion_branch():
    # E_{1,0}(F_5) has the 2-torsion point (2, 0); lift on X instead of Y
    c = new_curve(1, 0, 5)
    pt = c.point(2, 0)
    lift = dlp.lift_point(c, pt, new_curve(1, 0, 125))
    x, y, z = lift.xyz
    assert y == 0 and z == 1 and x % 5 == 2
    assert (x**3 + x) % 125 == 0
    assert (2 * lift).is_identity()


def test_lift_newton_step_formula():
    # one Newton step mod p^2: Y' = P_y + alpha p, alpha = (1+A+B-P_y^2)/(2 p P_y)
    c = _curve160()
    lifted = new_curve(A160, B160, P160 * P160, factorization=((P160, 2),))
    lift = dlp.lift_point(c, c.point(PX160, PY160), lifted)
    alpha = (1 + A160 + B160 - PY160 * PY160) // P160 * pow(2 * PY160, -1, P160) % P160
    assert lift.xyz[1] == PY160 + alpha * P160


def test_theta_kills_kernel_generator():
    c = new_curve(7, 3, 169)
    gen = kernel_generator(c)
    assert gen.xyz == (13, 1, 0)
    assert dlp.theta(c, gen) == 0
    assert dlp.theta(c, c.identity()) == 0


def test_theta_surjective_homomorphism_with_kernel_pi():
    for p in (5, 7, 13):
        c = _cyclic_anomalous_mod_p2(p)
        pts = enumerate_points(c)
        assert len(pts) == p * p
        table = {pt.xyz: dlp.theta(c, pt) for pt in pts}
        assert set(table.values()) == set(range(p))  # surjective
        for _ in range(200):
            P, Q = rng.choice(pts), rng.choice(pts)
            assert (table[P.xyz] + table[Q.xyz]) % p == table[(P + Q).xyz]
        gen = kernel_generator(c)
        kernel = {table_pt for table_pt, v in table.items() if v == 0}
        multiples = set()
        acc = c.identity()
        for _ in range(p):
            multiples.add(acc.xyz)
            acc = acc + gen
        assert kernel == multiples  # ker Theta = <(p : 1 : f(p))>


def test_theta_well_defined_on_fibers():
    p = 7
    c2 = _cyclic_anomalous_mod_p2(p)
    base = new_curve(c2.a % p, c2.b % p, p)
    fibers = {}
    for pt in enumerate_points(c2):
        fibers.setdefault(pt.reduced(base).xyz, set()).add(dlp.theta(c2, pt))
    assert all(len(values) == 1 for values in fibers.values())


def test_theta_zero_on_split_curve():
    c = new_curve(1, 6, 169)
    assert all(dlp.theta(c, pt) == 0 for pt in enumerate_points(c))


def test_theta_not_cyclic_on_non_anomalous():
    c = new_curve(1, 1, 25)  # |E(F_5)| = 9
    pts = [pt for pt in enumerate_points(c) if not pt.is_identity()]
    with pytest.raises(NotCyclic):
        for pt in pts:
            dlp.theta(c, pt)
    with pytest.raises(ValueError):
        dlp.theta(new_curve(3, 2, 5), new_curve(3, 2, 5).point(1, 4))  # e = 1


def test_theta_160bit_values():
    lifted = new_curve(A160, B160, P160 * P160, factorization=((P160, 2),))
    c = _curve160()
    lp = dlp.lift_point(c, c.point(PX160, PY160), lifted)
    lq = dlp.lift_point(c, c.point(QX160, QY160), lifted)
    assert dlp.theta(lifted, lp) == THETA_P160
    assert dlp.theta(lifted, lq) == THETA_Q160


def test_instance_validation():
    c = new_curve(1, 6, 13)
    P = c.point(2, 4)
    with pytest.raises(NotAnomalous):
        dlp.DlpInstance(new_curve(1, 1, 13), new_curve(1, 1, 13).point(1, 4), new_curve(1, 1, 13).point(1, 4))
    with pytest.raises(ThetaZero):
        dlp.DlpInstance(c, c.identity(), P)
    with pytest.raises(ValueError):
        dlp.DlpInstance(c, P, c.identity())
    with pytest.raises(ValueError):
        dlp.DlpInstance(new_curve(7, 3, 169), new_curve(7, 3, 169).point(0, 61), new_curve(7, 3, 169).point(0, 61))


def test_p5_certificate_needs_exact_count():
    # |E_{0,2}(F_5)| could be a multiple of 5 without being 5; the instance
    # check must count at p = 5 rather than trust an order-5 point
    for a in range(5):
        for b in range(5):
            if (4 * a**3 + 27 * b**2) % 5 == 0:
                continue
            c = new_curve(a, b, 5)
            q = count_points_fp(c)
            if q == 10:
                pt = next(pt for pt in enumerate_points(c) if not pt.is_identity() and (5 * pt).is_identity())
                with pytest.raises(NotAnomalous):
                    dlp.DlpInstance(c, pt, pt)
                return
    raise AssertionError("no order-10 curve over F_5 found")


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_lift_certificate_agrees_with_the_count(p):
    # pP^ over infinity mod p^2 is the instance's only test for p >= 7;
    # it must reject exactly the curves that do not have p points
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = new_curve(a, b, p)
            anomalous = count_points_fp(c) == p
            for P in enumerate_points(c):
                if P.is_identity():
                    continue
                try:
                    dlp.DlpInstance(c, P, P)
                except NotAnomalous:
                    assert not anomalous, (a, b, P)
                else:
                    assert anomalous, (a, b, P)


def test_not_anomalous_names_its_witness():
    c = new_curve(1, 1, 13)
    P = c.point(1, 4)
    with pytest.raises(NotAnomalous, match="13") as err:
        dlp.DlpInstance(c, P, P)
    assert "p·P̃ not over infinity mod p²" in str(err.value) and str(P) in str(err.value)
    c = new_curve(3, 0, 5)  # |E(F_5)| = 10, so 5P = O for the points of order 5
    assert count_points_fp(c) == 10
    P = next(pt for pt in enumerate_points(c) if not pt.is_identity() and (5 * pt).is_identity())
    with pytest.raises(NotAnomalous, match="count ≠ p at p = 5") as err:
        dlp.DlpInstance(c, P, P)
    assert str(P) in str(err.value)


@pytest.mark.parametrize("p", [5, 7])
def test_solve_exhaustive_small(p):
    a, b = ANOMALOUS[p]
    c = new_curve(a, b, p)
    P = next(pt for pt in enumerate_points(c) if not pt.is_identity())
    for k in range(1, p):
        assert dlp.solve_anomalous_dlp(dlp.DlpInstance(c, P, k * P)) == k


def test_solve_160bit_roundtrip():
    c = _curve160()
    P = c.point(PX160, PY160)
    assert dlp.solve_anomalous_dlp(dlp.DlpInstance(c, P, c.point(QX160, QY160))) == N160
    for _ in range(3):
        k = rng.randrange(1, P160)
        ADDITIONS.reset()
        assert dlp.solve_anomalous_dlp(dlp.DlpInstance(c, P, k * P)) == k % P160
        assert ADDITIONS.value < 2000  # O(log p) group operations


def test_bundled_solve_makes_three_ladders():
    # the instance's lift certificate is the solve's first Theta: one ladder
    # by p mod p^2 for the base, one for the target, one by N for the check
    c = _curve160()
    ADDITIONS.reset()
    assert dlp.solve_anomalous_dlp(dlp.DlpInstance(c, c.point(PX160, PY160), c.point(QX160, QY160))) == N160
    assert ADDITIONS.value == 2 * ladder_additions(P160, 24, 106) + ladder_additions(N160, 24, 106) == 554
    assert ADDITIONS.value < 2000


@pytest.mark.parametrize("p", [5, 7, 13])
def test_solve_perturbs_past_split_lift(p):
    # a base curve whose verbatim lift mod p^2 is split must still solve,
    # via the (A, B + p) retry
    found = None
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            if count_points_fp(new_curve(a, b, p)) != p:
                continue
            lift = new_curve(a, b, p * p, factorization=((p, 2),))
            if anomalous_type(lift) != CYCLIC:
                found = (a, b)
                break
        if found:
            break
    assert found, f"every verbatim lift mod {p}^2 is cyclic"
    c = new_curve(*found, p)
    P = next(pt for pt in enumerate_points(c) if not pt.is_identity())
    for k in range(1, p):
        assert dlp.solve_anomalous_dlp(dlp.DlpInstance(c, P, k * P)) == k


def test_solve_retry_exhausted(monkeypatch):
    c = new_curve(3, 2, 5)
    P = c.point(1, 4)
    inst = dlp.DlpInstance(c, P, P)
    monkeypatch.setattr(dlp, "theta", lambda curve, pt: 0)
    with pytest.raises(LiftRetryExhausted):
        dlp.solve_anomalous_dlp(inst)


def test_solve_reuses_the_instance_prime(monkeypatch):
    # p was proved prime when the instance curve was built; every lift's
    # p^2 modulus reuses that proof instead of running is_prime again
    c = _curve160()
    inst = dlp.DlpInstance(c, c.point(PX160, PY160), c.point(QX160, QY160))
    tested = []
    is_prime = modring.is_prime
    monkeypatch.setattr(modring, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert dlp.solve_anomalous_dlp(inst) == N160
    moduli = []
    monkeypatch.setattr(dlp, "theta", lambda curve, pt: moduli.append(curve.modulus) or 0)
    inst = dlp.DlpInstance(c, c.point(PX160, PY160), c.point(QX160, QY160))
    with pytest.raises(LiftRetryExhausted):
        dlp.solve_anomalous_dlp(inst)
    assert tested == []
    assert len(moduli) == 3 and all(m is moduli[0] for m in moduli)
    assert moduli[0].factorization == ((P160, 2),)
