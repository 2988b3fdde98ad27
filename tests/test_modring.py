import math
import random

import pytest

from znec import modring
from znec.curve import new_curve
from znec.errors import NotPrimePower, NotPrimitive, ZnecError
from znec.modring import (
    Modulus,
    _MR_EXACT,
    _introot,
    _perfect_power,
    _strong_lucas,
    crt_ints,
    factorize,
    is_prime,
)
from znec.projective import canonical_triple
from enumeration import vp_int
from oracles import crt_pairs

rng = random.Random(0xC0FFEE)


def _sieve_primes(limit):
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


def test_is_prime_matches_sieve_below_20000():
    primes = set(_sieve_primes(20000))
    for n in range(20000):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large_values():
    assert is_prime(730750818665451459112596905638433048232067471723)
    assert not is_prime(730750818665451459112596905638433048232067471723 ** 2)
    assert is_prime(2**127 - 1)
    assert not is_prime(2**128 - 1)


def test_introot():
    for n in (0, 1, 7, 26, 27, 28, 10**18, 10**18 + 1):
        for k in (1, 2, 3, 5, 7):
            r = _introot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k, r)


def test_perfect_power_detection():
    assert _perfect_power(49) == (7, 2)
    assert _perfect_power(3**7) == (3, 7)
    assert _perfect_power(6**4) == (36, 2)
    assert _perfect_power(91) is None
    p = 730750818665451459112596905638433048232067471723
    assert _perfect_power(p * p) == (p, 2)


def test_factorize_known():
    assert factorize(187187) == ((7, 1), (11, 2), (13, 1), (17, 1))
    assert factorize(659902243) == ((7, 1), (11, 1), (13, 2), (17, 1), (19, 1), (157, 1))
    assert factorize(2) == ((2, 1),)
    with pytest.raises(ValueError):
        factorize(1)


def test_factorize_random_roundtrip():
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        fact = factorize(n)
        assert math.prod(p**e for p, e in fact) == n
        assert all(is_prime(p) for p, _ in fact)
        assert list(fact) == sorted(fact)


def test_is_prime_and_factorize_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    r = random.Random(0x5E1F)
    primes31 = [sympy.nextprime(2**31 + r.randrange(2**24)) for _ in range(6)]
    cases = [r.randrange(2, 2**48) for _ in range(300)]
    # Carmichael numbers: small ones, and Chernick's (6k+1)(12k+1)(18k+1)
    cases += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    cases += [
        (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        for k in range(1, 400)
        if all(sympy.isprime(m * k + 1) for m in (6, 12, 18))
    ]
    # strong pseudoprimes to many small bases, with and without all twelve
    cases += [3215031751, 3825123056546413051, 318665857834031151167461]
    # the least strong pseudoprime to all thirteen bases, where Baillie-PSW takes over
    cases += [_MR_EXACT, _MR_EXACT - 2, sympy.nextprime(_MR_EXACT), sympy.prevprime(_MR_EXACT)]
    # prime powers, and semiprimes with two 31-bit factors near 2^62
    cases += [q**k for q in (3, 101, 65537, primes31[0]) for k in (2, 3, 5)]
    cases += [primes31[i] * primes31[i + 1] for i in range(0, 6, 2)]
    cases += [sympy.prevprime(2**62), sympy.nextprime(2**62), 2**61 - 1]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n
        assert factorize(n) == tuple(sorted(sympy.factorint(n).items())), n


def test_baillie_psw_rejects_the_pseudoprimes_of_each_half():
    # 1287836182261 * 2575672364521 passes the strong test to every base up to
    # 41, so base 2 alone lets it through; the Lucas half must reject it
    assert _MR_EXACT == 1287836182261 * 2575672364521
    assert not is_prime(_MR_EXACT)
    assert not is_prime(_MR_EXACT * 1000003)
    assert is_prime(2**89 - 1)
    # the least strong Lucas pseudoprimes (OEIS A217255) pass the Lucas half,
    # so is_prime must not rest on it alone
    for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519):
        assert _strong_lucas(n), n
        assert not is_prime(n), n
    assert not any(_strong_lucas(n) for n in (45, 91, 1105, 2047, 3277, 4033))


def test_each_jaeschke_bound_needs_its_bases():
    # psi_k is composite and a strong pseudoprime to the first k bases, so
    # those bases are exact below psi_k and not at it (OEIS A014233)
    sympy = pytest.importorskip("sympy")
    mr = pytest.importorskip("sympy.ntheory.primetest").mr
    r = random.Random(14)
    for psi, k in modring._MR_PSI:
        assert not sympy.isprime(psi) and mr(psi, modring._MR_BASES[:k]), psi
        assert not is_prime(psi), psi
        cases = [sympy.prevprime(psi), sympy.nextprime(psi), psi - 2, psi + 2]
        cases += [r.randrange(lo, hi) | 1 for lo, hi in ((psi // 2, psi), (psi, 2 * psi)) for _ in range(200)]
        for n in cases:
            assert is_prime(n) == sympy.isprime(n), n


def test_strong_lucas_agrees_with_sympy():
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    for n in range(43, 30000, 2):
        if math.isqrt(n) ** 2 != n:
            assert _strong_lucas(n) == primetest.is_strong_lucas_prp(n), n


def test_factorize_big_prime_square_is_fast():
    # rho would never find this factor; the perfect-power path must
    p = 2**89 - 1
    assert factorize(p * p * p) == ((p, 3),)


def test_modulus_validation():
    m = Modulus(45)
    assert m.factorization == ((3, 2), (5, 1))
    assert Modulus(45, ((3, 2), (5, 1))) == m
    assert hash(Modulus(45, ((3, 2), (5, 1)))) == hash(m)
    with pytest.raises(ValueError):
        Modulus(45, ((3, 1), (5, 1)))
    with pytest.raises(ValueError):
        Modulus(0)
    assert Modulus(343, ((7, 3),)).parts == ((7, 343, 1),)
    assert Modulus(45).parts == ((3, 9, 10), (5, 5, 36))  # 10 = 1 mod 9, 0 mod 5; 36 the other way
    with pytest.raises(NotPrimePower):
        Modulus(45).as_prime_power()
    assert Modulus(25, ((5, 2),)).as_prime_power() == (5, 2)


def test_as_prime_is_the_prime_modulus_check():
    assert Modulus(13).as_prime() == 13
    with pytest.raises(ZnecError, match=r"^prime modulus required, got 5\^2$"):
        Modulus(25).as_prime()
    with pytest.raises(NotPrimePower):
        Modulus(45).as_prime()


def test_component_reuses_the_prime_its_modulus_proved(monkeypatch):
    # Modulus.component builds p^e for a prime p of its own factorization,
    # at any exponent, from the proof it already holds
    p = 2**89 - 1
    m = Modulus(p, ((p, 1),))
    mixed = Modulus(5 * 49 * p, ((5, 1), (7, 2), (p, 1)))
    wants = {(q, e): Modulus(q**e, ((q, e),)) for q, e in ((p, 1), (p, 2), (p, 5), (7, 1), (7, 3), (5, 2))}
    bad = ((m, 3, 1), (mixed, 11, 1), (mixed, 35, 1), (mixed, 1, 1), (m, p, 0), (mixed, 7, -1))
    monkeypatch.setattr(modring, "is_prime", lambda n: pytest.fail(f"is_prime({n}) ran again"))
    for (q, e), want in wants.items():
        for source in (m, wants[(p, 2)], mixed) if q == p else (mixed,):
            got = source.component(q, e)
            assert (got.n, got.factorization, got.parts) == (want.n, want.factorization, want.parts)
            assert got.parts == ((q, q**e, 1),)
    for modulus, q, e in bad:  # not a prime of the modulus, or no exponent >= 1
        with pytest.raises(ZnecError):
            modulus.component(q, e)


@pytest.mark.parametrize(
    "n, factorization",
    [
        (1225, ((35, 2),)),  # composite "prime"
        (25, ((5, 1), (5, 1))),  # repeated prime
        (7, ((7, 1), (11, 0))),  # zero exponent
        (49**4, ((49, 4),)),  # prime power passed as the prime
        (45, ((3, 1), (5, 1))),  # does not multiply to N
    ],
)
def test_modulus_rejects_malformed_factorization(n, factorization):
    with pytest.raises(ZnecError):
        Modulus(n, factorization)


def test_new_curve_rejects_malformed_factorization():
    # each of these used to classify silently, as Z/1435 and Z/9 + Z/9
    with pytest.raises(ZnecError):
        new_curve(1, 6, 1225, factorization=((35, 2),))
    with pytest.raises(ZnecError):
        new_curve(1, 6, 25, factorization=((5, 1), (5, 1)))


def test_vp():
    assert vp_int(75, 5, 3) == 2
    assert vp_int(0, 5, 3) == 3  # vp(0) capped at e
    assert vp_int(50, 5, 4) == 2
    assert vp_int(0, 7, 6) == 6


def test_crt_matches_oracle():
    for _ in range(50):
        moduli = rng.sample([5, 7, 9, 11, 13, 16, 17], k=rng.randrange(2, 5))
        pairs = [(rng.randrange(m), m) for m in moduli]
        assert crt_ints(pairs) == crt_pairs(pairs)
    with pytest.raises(ValueError):
        crt_ints([(1, 6), (2, 15)])


def test_crt_idempotents_glue_like_crt_ints():
    # canonical_triple scales and glues in one pass; it must agree with
    # canonicalizing each component alone and gluing the results by crt_ints,
    # also when the chart (Z, else Y, else X) differs from prime to prime
    local = random.Random(0x1DE)
    primes = [5, 7, 11, 13, 17, 19, 23, 10007]
    for _ in range(60):
        factorization = tuple((q, local.randrange(1, 4)) for q in local.sample(primes, local.randrange(1, 5)))
        m = Modulus(math.prod(q**e for q, e in factorization), factorization)
        assert [(q, pe) for q, pe, _ in m.parts] == [(q, q**e) for q, e in m.factorization]
        pes = [pe for _, pe, _ in m.parts]
        for _, own, eps in m.parts:
            assert 0 <= eps < m.n
            assert [eps % pe for pe in pes] == [int(pe == own) for pe in pes]
        for _ in range(4):
            shift = local.randrange(3)
            wants, coords = [], []
            for i, (q, e) in enumerate(m.factorization):
                pe = q**e
                unit = local.randrange(pe // q) * q + local.randrange(1, q)
                x, y, z = (local.randrange(pe // q) * q for _ in range(3))
                chart = (i + shift) % 3  # 0: Z a unit; 1: Z = 0 mod q, Y a unit; 2: only X a unit
                if chart == 0:
                    x, y, z = local.randrange(pe), local.randrange(pe), unit
                elif chart == 1:
                    x, y = local.randrange(pe), unit
                else:
                    x = unit
                want = canonical_triple(x, y, z, Modulus(pe, ((q, e),)))
                assert want[2 - chart] == 1
                wants.append(want)
                coords.append((x, y, z))
            triple = (crt_ints([(t[k], pe) for t, pe in zip(coords, pes)])[0] for k in range(3))
            glued = tuple(crt_ints([(t[k], pe) for t, pe in zip(wants, pes)])[0] for k in range(3))
            assert canonical_triple(*triple, m) == glued


def test_primitivity():
    m = Modulus(35)
    for triple, gcd in (((5, 15, 0), 5), ((0, 0, 0), 35)):
        with pytest.raises(NotPrimitive) as info:
            canonical_triple(*triple, m)
        assert (info.value.modulus, info.value.gcd) == (35, gcd)

