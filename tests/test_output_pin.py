"""SHA-256 pins on scalar_xyz and add_xyz outputs: a refactor must not change one byte.

The scalar_xyz sample is generated here from a fixed seed: 300 curves
over N with 3-5 primes below 200 and exponents up to 3, each with a
non-canonical representative of an affine point and a signed 64-bit
scalar, then ten 160-bit scalars on the bundled anomalous curve over F_p
and over Z/p^2.  Its digest was recorded from the code before scalar
multiplication kept its running sum in raw coordinates.

The add_xyz sample is every pair of seven multiples of a point (O, a
non-canonical P, 2P ... 6P) on 200 seeded curves over N with 1-4 primes
below 200 and exponents up to 2, added both canonically and raw.  Its
digest was recorded from the code before the per-prime law choice and
the scaling were split between add_xyz and canonical_triple.  Any change
to an output triple, to its canonical form or to a sample changes a
digest.

The classify sample is 256 seeded curves over N = p1^e p2 with p1, p2
primes in [2e4, 3e5] and e in {1, 2}, the sizes of the classify-count
benchmark.  Its digest and its total ADDITIONS were recorded from the
code before the F_p square root took one power and the open l of the
shape proof came from gcd(q, p - 1), so any change to the F_p layer must
keep both its outputs and its steps.
"""

import hashlib
import itertools
import math
import random

from znec.curve import ADDITIONS, new_curve
from znec.infinity import _hensel_lift
from znec.reference import DLP160_A, DLP160_B, DLP160_BASE, DLP160_P
from znec import structure

PRIMES = [p for p in range(5, 200) if all(p % d for d in range(2, p))]
ADD_DIGEST = "87f088c03ee1f8d10c574cfcf670f8ad849ab02b4f54f822a44bd597a97529bc"
SCALAR_DIGEST = "237a51803e0a55b1822a3eb72df6fd82c7a512f44ce3b8857ebf2e5a29c0170b"
CLASSIFY_DIGEST = "e3b80fa991161c3a9a30a0f434818d4e69af19f1d6b4c75ae9afe8a85f7b1f08"
CLASSIFY_ADDITIONS = 47169


def _composite_sample(rng, count, primes=(3, 5), exponents=3):
    """(curve, triple, k) with the triple a unit multiple of an affine point on the curve."""
    sample = []
    while len(sample) < count:
        fac = [(p, rng.randint(1, exponents)) for p in rng.sample(PRIMES, rng.randint(*primes))]
        n = 1
        for p, e in fac:
            n *= p**e
        a, x, y, u = (rng.randrange(n) for _ in range(4))
        b = (y * y - x**3 - a * x) % n
        if any((4 * a**3 + 27 * b * b) % p == 0 or u % p == 0 for p, _ in fac):
            continue
        c = new_curve(a, b, n, factorization=tuple(fac))
        k = rng.choice((-1, 1)) * rng.getrandbits(64)
        sample.append((c, (u * x % n, u * y % n, u), k))
    return sample


def _dlp160_sample(rng, count):
    p = DLP160_P
    fp = new_curve(DLP160_A, DLP160_B, p, factorization=((p, 1),))
    lifted = new_curve(DLP160_A, DLP160_B, p * p, factorization=((p, 2),))
    base2 = _hensel_lift(DLP160_A, DLP160_B, DLP160_BASE[0], DLP160_BASE[1], p, 2) + (1,)
    ks = [rng.getrandbits(160) for _ in range(count)]
    return [(fp, DLP160_BASE, k) for k in ks] + [(lifted, base2, k) for k in ks]


def test_scalar_xyz_outputs_match_the_recorded_digest():
    rng = random.Random(20201)
    h = hashlib.sha256()
    for c, xyz, k in _composite_sample(rng, 300) + _dlp160_sample(rng, 10):
        h.update(repr((c.n, c.a, c.b, xyz, k, c.scalar_xyz(k, xyz))).encode())
    assert h.hexdigest() == SCALAR_DIGEST


def test_add_xyz_outputs_match_the_recorded_digest():
    rng = random.Random(20202)
    h = hashlib.sha256()
    mixed = 0  # pairs whose S is primitive mod one prime of N and not mod another
    for c, xyz, _ in _composite_sample(rng, 200, primes=(1, 4), exponents=2):
        multiples = [c.scalar_xyz(k, xyz) for k in range(7)]
        multiples[1] = xyz
        for P in multiples:
            for Q in multiples:
                for canonical in (True, False):
                    h.update(repr((c.n, c.a, c.b, P, Q, c.add_xyz(P, Q, canonical=canonical))).encode())
                if P != Q:
                    s = c._law_s(c._law_products(P, Q))
                    mixed += len({any(v % p for v in s) for p, _, _ in c.modulus.parts}) == 2
    assert mixed
    assert h.hexdigest() == ADD_DIGEST


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _classify_sample(rng, count):
    """count curves over N = p1^e p2, p1 != p2 primes in [2e4, 3e5], nonsingular mod both."""
    sample = []
    while len(sample) < count:
        p1, p2 = (next(q for q in itertools.count(rng.randrange(20_000, 300_000)) if _is_prime(q)) for _ in range(2))
        if p1 == p2 or p1 > 300_000 or p2 > 300_000:
            continue
        fac = ((p1, 1 + len(sample) % 2), (p2, 1))
        n = p1 ** fac[0][1] * p2
        a, b = rng.randrange(n), rng.randrange(n)
        if any((4 * a**3 + 27 * b * b) % p == 0 for p, _ in fac):
            continue
        sample.append(new_curve(a, b, n, factorization=fac))
    return sample


def test_classify_outputs_and_additions_match_the_recorded_pins():
    sample = _classify_sample(random.Random(20203), 256)
    h = hashlib.sha256()
    structure._count_fp.cache_clear()  # a count cached by an earlier test would skip its steps
    ADDITIONS.reset()
    for c in sample:
        h.update(repr((c.n, c.a, c.b, structure.classify(c).as_json())).encode())
    assert (h.hexdigest(), ADDITIONS.reset()) == (CLASSIFY_DIGEST, CLASSIFY_ADDITIONS)
