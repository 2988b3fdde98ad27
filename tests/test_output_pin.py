"""A SHA-256 pin on scalar_xyz outputs: a speedup must not change one byte.

The sample is generated here from a fixed seed: 300 curves over N with
3-5 primes below 200 and exponents up to 3, each with a non-canonical
representative of an affine point and a signed 64-bit scalar, then ten
160-bit scalars on the bundled anomalous curve over F_p and over Z/p^2.
The digest was recorded from the code before scalar multiplication kept
its running sum in raw coordinates; any change to an output triple, to
its canonical form or to the sample itself changes it.
"""

import hashlib
import random

from znec.curve import _hensel_lift, new_curve
from znec.reference import DLP160_A, DLP160_B, DLP160_BASE, DLP160_P

PRIMES = [p for p in range(5, 200) if all(p % d for d in range(2, p))]
DIGEST = "237a51803e0a55b1822a3eb72df6fd82c7a512f44ce3b8857ebf2e5a29c0170b"


def _composite_sample(rng, count):
    """(curve, triple, k) with the triple a unit multiple of an affine point on the curve."""
    sample = []
    while len(sample) < count:
        fac = [(p, rng.randint(1, 3)) for p in rng.sample(PRIMES, rng.randint(3, 5))]
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
    assert h.hexdigest() == DIGEST
