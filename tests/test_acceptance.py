"""Acceptance gate: one test per shipped guarantee, with runtime limits.

Each test prints a single summary line so a verbose run reads as a
checklist.  Everything here recomputes from scratch; nothing is trusted
from the bundled reference tables.
"""

import math
import random
import time
import warnings
from collections import Counter
from itertools import combinations_with_replacement

from znec.curve import ADDITIONS, new_curve, point_order
from znec.dlp import DlpInstance, lift_point, solve_anomalous_dlp, theta
from znec.errors import SingularCurve
from znec.infinity import compute_f, kernel_generator
from znec.modring import Modulus, crt_ints
from znec.rank import rank_bound
from znec.structure import (
    CYCLIC,
    anomalous_type,
    classify,
    count_points_fp,
    group_structure_fp,
    phi_map,
)
from enumeration import brute_force_structure, enumerate_points, infinity_sum_check

rng = random.Random(0xACCE97ED)

P160 = 730750818665451459112596905638433048232067471723
A160 = 425706413842211054102700238164133538302169176474
B160 = 203362936548826936673264444982866339953265530166
PY160 = 310536468939899693718962354338996655381367569020
QY160 = 38292783053156441019740319553956376819943854515
THETA_P160 = 343088892565802863386490109374548044078624360215
THETA_Q160 = 470974712001084540433398653921983741661987449793
N160 = 113690975836469390483838646646828917131453128585


def _done(num, detail):
    print(f"criterion {num:02d} PASS: {detail}")


def _random_nonsingular(p, e):
    n = p**e
    while True:
        a, b = rng.randrange(n), rng.randrange(n)
        if (4 * a * a * a + 27 * b * b) % p:
            return new_curve(a, b, n, factorization=((p, e),))


def _lex_anomalous_base(p):
    for a in range(p):
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p == 0:
                continue
            if count_points_fp(new_curve(a, b, p)) == p:
                return a, b
    raise AssertionError(f"no anomalous curve over F_{p}")


def test_criterion_01_prime_square_structures():
    t0 = time.perf_counter()
    cyc = new_curve(7, 3, 169)
    assert classify(cyc).factors == (169,)
    assert point_order(cyc.point(0, 61), 169) == 169

    spl = new_curve(1, 6, 169)
    assert classify(spl).factors == (13, 13)
    P, G = spl.point(2, 4), spl.point(13, 1, 0)
    assert point_order(P, 169) == 13
    assert point_order(G, 169) == 13
    combos = set()
    walk_p = spl.identity()
    for _ in range(13):
        walk = walk_p
        for _ in range(13):
            combos.add(walk.xyz)
            walk = walk + G
        walk_p = walk_p + P
    assert combos == {pt.xyz for pt in enumerate_points(spl)}
    assert len(combos) == 169

    dt = time.perf_counter() - t0
    assert dt < 1.0
    _done(1, f"Z/169 and Z/13+Z/13 with stated generators in {dt:.2f}s")


def test_criterion_02_composite_sharpness_fixtures():
    t0 = time.perf_counter()
    assert classify(new_curve(167707, 21664, 187187)).factors == (11,) * 5
    assert classify(new_curve(63707931, 239467091, 659902243)).factors == (13,) * 8
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _done(2, f"(Z/11)^5 and (Z/13)^8 fixtures in {dt:.2f}s")


def test_criterion_03_rank_bounds():
    t0 = time.perf_counter()
    r11 = rank_bound(11)
    assert (r11.bound, r11.chi_p, r11.chi_witness) == (5, 0, None)
    r13 = rank_bound(13)
    assert (r13.bound, r13.chi_p) == (8, 2)
    q, a, b = r13.chi_witness
    assert (q, a, b) == (157, 0, 15)
    assert group_structure_fp(new_curve(a, b, q)).shape == (13, 13)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _done(3, f"bounds 5 and 8 with (13,13) witness over F_157 in {dt:.2f}s")


def test_criterion_04_attack_bit_exact():
    t0 = time.perf_counter()
    c = new_curve(A160, B160, P160, factorization=((P160, 1),))
    P, Q = c.point(1, PY160), c.point(3, QY160)
    lifted = new_curve(A160, B160, P160 * P160, factorization=((P160, 2),))
    assert theta(lifted, lift_point(c, P, lifted)) == THETA_P160
    assert theta(lifted, lift_point(c, Q, lifted)) == THETA_Q160

    ADDITIONS.reset()
    n = solve_anomalous_dlp(DlpInstance(c, P, Q))
    adds = ADDITIONS.value
    assert n == N160
    assert (n * P).xyz == Q.xyz
    assert adds < 2000
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _done(4, f"160-bit log recovered with {adds} additions in {dt:.2f}s")


def test_criterion_05_structure_versus_enumeration_sweep():
    # all (A, B) up to N = 30, a fixed 10x10 corner beyond, ~10^4 curves
    t0 = time.perf_counter()
    curves = 0
    for n in range(2, 301):
        if math.gcd(n, 6) != 1:
            continue
        limit = n if n <= 30 else 10
        for a in range(limit):
            for b in range(limit):
                try:
                    c = new_curve(a, b, n)
                except SingularCurve:
                    continue
                assert classify(c).factors == brute_force_structure(c).factors, (a, b, n)
                curves += 1
    dt = time.perf_counter() - t0
    assert curves > 10_000
    assert dt < 300.0
    _done(5, f"{curves} curves agree with enumeration in {dt:.1f}s")


def test_criterion_06_cardinality_law():
    t0 = time.perf_counter()
    checked = 0
    for p in (5, 7, 11, 13):
        for e in (1, 2, 3):
            for _ in range(5):
                c = _random_nonsingular(p, e)
                base = new_curve(c.a % p, c.b % p, p)
                q = count_points_fp(base)
                pts = enumerate_points(c)
                assert len(pts) == p ** (e - 1) * q
                fibers = Counter(pt.reduced(base).xyz for pt in pts)
                assert len(fibers) == q
                assert set(fibers.values()) == {p ** (e - 1)}
                checked += 1
    _done(6, f"|E| = p^(e-1) q with uniform fibers on {checked} curves in {time.perf_counter() - t0:.1f}s")


def test_criterion_07_infinity_polynomial_closed_form():
    t0 = time.perf_counter()
    for p in (5, 7):
        n = p**10
        for _ in range(5):
            c = _random_nonsingular(p, 10)
            coeffs = compute_f(c).coefficients()
            expected = [0] * 10
            expected[3], expected[7], expected[9] = 1, c.a % n, c.b % n
            assert list(coeffs) == expected
            for _ in range(1_000):
                x1 = p * rng.randrange(p**9)
                x2 = p * rng.randrange(p**9)
                infinity_sum_check(c, x1, x2)  # raises on any violation
    _done(7, f"f = X^3+AX^7+BX^9 at e=10 and 10^4 infinity sums in {time.perf_counter() - t0:.1f}s")


def test_criterion_08_kernel_generator_order():
    t0 = time.perf_counter()
    for p in (5, 7, 11, 13):
        for e in (1, 2, 3, 4):
            for _ in range(3):
                c = _random_nonsingular(p, e)
                gen = kernel_generator(c)
                assert point_order(gen, p ** (e - 1) if e > 1 else 1) == p ** (e - 1)
    _done(8, f"ord(p : 1 : f(p)) = p^(e-1) for p <= 13, e <= 4 in {time.perf_counter() - t0:.1f}s")


def _lex_curve_with_p_coprime_order(p, e):
    for a in range(p):
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p == 0:
                continue
            if count_points_fp(new_curve(a, b, p)) % p:
                return new_curve(a, b, p**e, factorization=((p, e),))
    raise AssertionError(f"no curve over F_{p} with order coprime to {p}")


def _lex_cyclic_anomalous(p, e):
    a0, b0 = _lex_anomalous_base(p)
    for s in range(p):
        for t in range(p):
            c = new_curve(a0 + p * s, b0 + p * t, p**e, factorization=((p, e),))
            if anomalous_type(c) == CYCLIC:
                return c
    raise AssertionError(f"no cyclic lift of E_{{{a0},{b0}}} mod {p}^{e}")


def _check_maps_exhaustively(c, p, e, with_theta):
    """One pass over all unordered point pairs, checking every map at once."""
    base = c if e == 1 else c.reduced(Modulus(p, ((p, 1),)))
    base_pts = [pt.xyz for pt in enumerate_points(base)]
    index = {xyz: i for i, xyz in enumerate(base_pts)}
    base_add = [
        [index[base.add_xyz(r, s)] for s in base_pts] for r in base_pts
    ]

    points = enumerate_points(c)
    pts = [pt.xyz for pt in points]
    pi = {}
    phi2 = {}
    th = {}
    for pt in points:
        first, second = phi_map(c, pt)
        pi[pt.xyz] = index[first.xyz]
        phi2[pt.xyz] = second
        assert first.xyz == pt.reduced(base).xyz  # Phi_1 is the reduction
        if with_theta:
            th[pt.xyz] = theta(c, pt)

    pe1 = p ** (e - 1)
    add = c.add_xyz
    for P, Q in combinations_with_replacement(pts, 2):
        R = add(P, Q)
        assert base_add[pi[P]][pi[Q]] == pi[R]
        assert (phi2[P] + phi2[Q]) % pe1 == phi2[R]
        if with_theta:
            assert (th[P] + th[Q]) % p == th[R]

    q = len(base_pts)
    if q % p:
        assert len({(pi[x], phi2[x]) for x in pts}) == len(pts)  # Phi bijective
    if with_theta:
        assert set(th.values()) == set(range(p))  # Theta surjective
        gen = kernel_generator(c)
        multiples, walk = set(), (0, 1, 0)
        for _ in range(pe1):
            multiples.add(walk)
            walk = add(walk, gen.xyz)
        assert {x for x in pts if th[x] == 0} == multiples  # ker Theta
    return len(pts)


def test_criterion_09_homomorphism_suites():
    t0 = time.perf_counter()
    # commutativity and associativity on CRT-glued samples
    glued = new_curve(167707, 21664, 187187)
    moduli = [pe for _, pe, _ in glued.modulus.parts]
    component_points = [
        [pt.xyz for pt in enumerate_points(glued.reduced(Modulus(pe)))] for pe in moduli
    ]
    samples = []
    for _ in range(60):
        picks = [rng.choice(col) for col in component_points]
        x, _ = crt_ints([(t[0], m) for t, m in zip(picks, moduli)])
        y, _ = crt_ints([(t[1], m) for t, m in zip(picks, moduli)])
        z, _ = crt_ints([(t[2], m) for t, m in zip(picks, moduli)])
        samples.append((x, y, z))
    for _ in range(200):
        P, Q, R = (rng.choice(samples) for _ in range(3))
        assert glued.add_xyz(P, Q) == glued.add_xyz(Q, P)
        assert glued.add_xyz(glued.add_xyz(P, Q), R) == glued.add_xyz(P, glued.add_xyz(Q, R))

    # pi, Phi, Theta on every point pair of representative curves
    pairs = 0
    for p in (5, 7, 11, 13):
        for e in (1, 2, 3):
            n_pts = _check_maps_exhaustively(_lex_curve_with_p_coprime_order(p, e), p, e, with_theta=False)
            pairs += n_pts * (n_pts + 1) // 2
            if e >= 2:
                n_pts = _check_maps_exhaustively(_lex_cyclic_anomalous(p, e), p, e, with_theta=True)
                pairs += n_pts * (n_pts + 1) // 2
    dt = time.perf_counter() - t0
    _done(9, f"pi/Phi/Theta additive on {pairs} point pairs in {dt:.1f}s")


def test_criterion_10_dlp_sweep():
    t0 = time.perf_counter()
    for p in (5, 7, 13):
        a, b = _lex_anomalous_base(p)
        c = new_curve(a, b, p)
        P = next(pt for pt in enumerate_points(c) if not pt.is_identity())
        for k in range(1, p):
            assert solve_anomalous_dlp(DlpInstance(c, P, k * P)) == k
    _done(10, f"all discrete logs recovered for p in (5, 7, 13) in {time.perf_counter() - t0:.1f}s")


def test_criterion_11_cyclic_fraction_statistical():
    t0 = time.perf_counter()
    notes = []
    for p in (5, 7, 13):
        cyclic = total = 0
        for a0 in range(p):
            for b0 in range(p):
                if (4 * a0**3 + 27 * b0**2) % p == 0:
                    continue
                if count_points_fp(new_curve(a0, b0, p)) != p:
                    continue
                for s in range(p):
                    for t in range(p):
                        c = new_curve(a0 + p * s, b0 + p * t, p * p, factorization=((p, 2),))
                        total += 1
                        cyclic += anomalous_type(c) == CYCLIC
        expected = (p - 1) / p
        observed = cyclic / total
        sigma = math.sqrt(expected * (1 - expected) / total)
        notes.append(f"p={p}: {cyclic}/{total} cyclic (expected {expected:.3f}, got {observed:.3f})")
        if abs(observed - expected) > 3 * sigma:
            warnings.warn(
                f"cyclic fraction for p={p} is {observed:.4f}, more than 3 sigma "
                f"from (p-1)/p = {expected:.4f} over {total} curves",
                stacklevel=1,
            )
    _done(11, "; ".join(notes) + f" in {time.perf_counter() - t0:.1f}s")
