"""Seeded inputs, timed operations and output checks for each workload.

A workload is four methods.  ``inputs(seed)`` yields plain tuples forever,
the same tuples for the same seed.  ``prepare(inp)`` builds the library
objects outside the timed region, ``run(prepared)`` is the one timed call
into znec, and ``check(inp, prepared, out)`` verifies its output.  Checks
use the arithmetic in this file, which shares no code with znec, wherever
an independent answer is cheap.

Each workload also fixes ``block``, the ops in one full stratified draw
of its inputs; ``min_ops``, the fewest ops a timed run makes (at least
100, so p90 has ten samples beyond it); and ``trace_ops``, the fixed ops
of a traced run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys

import znec
import znec.cli
from znec import reference as ref

# --- arithmetic independent of znec -----------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve primes: exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def affine_add(P, Q, a: int, p: int):
    """Chord-and-tangent addition on y^2 = x^3 + ax + b over F_p; None is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def affine_mul(k: int, P, a: int, p: int):
    acc = None
    for bit in bin(k)[2:]:
        acc = affine_add(acc, acc, a, p)
        if bit == "1":
            acc = affine_add(acc, P, a, p)
    return acc


def _plant_curve(rng: random.Random, n: int) -> tuple[int, int, int, int]:
    """(a, b, x, y) with (x : y : 1) on E_{a,b}(Z/nZ), resampled until nonsingular."""
    while True:
        a, x, y = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        b = (y * y - x * x * x - a * x) % n
        if math.gcd(4 * a * a * a + 27 * b * b, n) == 1:
            return a, b, x, y


# --- workloads -----------------------------------------------------------------


class Dlp160:
    """solve_anomalous_dlp(DlpInstance(...)) on the bundled 160-bit curve.

    The op is what the demo and ``znec dlp`` time: building the instance
    (which certifies |E| = p by one scalar multiplication) and solving it.
    """

    trace_ops, block, min_ops = 60, 10, 100

    def __init__(self):
        p = ref.DLP160_P
        self.curve = znec.new_curve(ref.DLP160_A, ref.DLP160_B, p, factorization=((p, 1),))
        self.base = self.curve.point(*ref.DLP160_BASE)

    def inputs(self, seed):
        rng = random.Random(f"dlp160/{seed}")
        p, base = ref.DLP160_P, ref.DLP160_BASE[:2]
        while True:
            n = rng.randrange(1, p)
            yield (n,) + affine_mul(n, base, ref.DLP160_A, p)

    def prepare(self, inp):
        return self.curve.point(inp[1], inp[2])

    def run(self, target):
        return znec.solve_anomalous_dlp(znec.DlpInstance(self.curve, self.base, target))

    def check(self, inp, target, out) -> bool:
        return out == inp[0]


class ClassifyCount:
    """classify on N = p1^e * p2 with p1, p2 around 2e4..3e5.

    Each prime is the first prime at or above a log-uniform draw from one
    of 16 strata.  Every block of 16 ops uses each stratum once per prime,
    and every 16 blocks use each pair of strata once, with e alternating
    1, 2.  So every seed sees nearly the same spread of sizes, and the
    latency percentiles do not hinge on a few lucky draws.
    """

    trace_ops, block, min_ops = 40, 16, 256  # one full grid of stratum pairs
    LO, HI = 20_000, 300_000

    def _prime(self, rng: random.Random, stratum: int) -> int:
        u = (stratum + rng.random()) / self.block
        return next_prime(int(self.LO * (self.HI / self.LO) ** u))

    def inputs(self, seed):
        rng = random.Random(f"classify-count/{seed}")
        m, i = self.block, 0
        while True:
            first, second = rng.sample(range(m), m), rng.sample(range(m), m)
            for shift in rng.sample(range(m), m):
                pairs = [(first[j], second[(j + shift) % m]) for j in range(m)]
                rng.shuffle(pairs)
                for s1, s2 in pairs:
                    p1, p2 = self._prime(rng, s1), self._prime(rng, s2)
                    if p2 == p1:
                        p2 = next_prime(p2 + 1)
                    e = 1 + i % 2
                    i += 1
                    a, b, x, y = _plant_curve(rng, p1**e * p2)
                    yield a, b, tuple(sorted(((p1, e), (p2, 1)))), x, y

    def prepare(self, inp):
        a, b, fac = inp[:3]
        return znec.new_curve(a, b, math.prod(q**e for q, e in fac), factorization=fac)

    def run(self, curve):
        return znec.classify(curve)

    def check(self, inp, curve, g) -> bool:
        fac, x, y = inp[2:]
        fs = g.factors
        if not fs or any(hi % lo for lo, hi in zip(fs, fs[1:])):
            return False
        if tuple(sorted((loc.p, loc.e) for loc in g.local)) != fac:
            return False
        if any((loc.p + 1 - loc.fp_order) ** 2 > 4 * loc.p for loc in g.local):
            return False
        if g.order != math.prod(loc.p ** (loc.e - 1) * loc.fp_order for loc in g.local):
            return False
        return curve.scalar_xyz(fs[-1], (x, y, 1)) == (0, 1, 0)


SMALL_PRIMES = tuple(q for q in range(5, 200) if is_prime(q))


class GroupLawComposite:
    """Curve.scalar_xyz(k, P) with a 64-bit k over N with 3-5 primes below 200.

    The prime count cycles 3, 4, 5 and the exponent of one random prime
    cycles 1, 2, 3 over each run of nine ops, so every seed has the same
    mix of component counts.
    """

    trace_ops, block, min_ops = 1000, 36, 108

    def inputs(self, seed):
        rng = random.Random(f"grouplaw-composite/{seed}")
        i = 0
        while True:
            count, e = 3 + i % 3, 1 + (i // 3) % 3
            i += 1
            primes = rng.sample(SMALL_PRIMES, count)
            fac = tuple(sorted((q, e if j == 0 else 1) for j, q in enumerate(primes)))
            a, b, x, y = _plant_curve(rng, math.prod(q**k for q, k in fac))
            yield a, b, fac, x, y, rng.getrandbits(64) | 1 << 63

    def prepare(self, inp):
        a, b, fac, x, y, k = inp
        n = math.prod(q**e for q, e in fac)
        return znec.new_curve(a, b, n, factorization=fac), k, (x, y, 1)

    def run(self, prepared):
        curve, k, xyz = prepared
        return curve.scalar_xyz(k, xyz)

    def check(self, inp, prepared, out) -> bool:
        a, b, fac, x, y, k = inp
        n = prepared[0].n
        X, Y, Z = out
        if (Y * Y * Z - X * X * X - a * X * Z * Z - b * Z * Z * Z) % n:
            return False
        for q, _ in fac:
            want = affine_mul(k, (x % q, y % q), a % q, q)
            if Z % q == 0:
                got = None if Y % q else "not primitive"
            else:
                zi = pow(Z, -1, q)
                got = (X * zi % q, Y * zi % q)
            if got != want:
                return False
        return True


class CliVerify:
    """``python -m znec verify-paper-examples`` as a subprocess.

    Trace runs call ``znec.cli.main`` in process instead, because the
    tracer patches this interpreter's modules only; the untraced half of a
    trace run does the same, so the two stay comparable.
    """

    trace_ops, block, min_ops = 1, 5, 100

    def __init__(self, in_process: bool = False):
        self.in_process = in_process
        src = os.path.dirname(os.path.dirname(os.path.abspath(znec.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)

    def inputs(self, seed):
        while True:
            yield ()

    def prepare(self, inp):
        return None

    def run(self, _):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = znec.cli.main(["verify-paper-examples"])
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "znec", "verify-paper-examples"],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            env=self.env,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    def check(self, inp, _, out) -> bool:
        code, text = out
        lines = text.splitlines()
        return code == 0 and bool(lines) and all(line.startswith("PASS") for line in lines)


WORKLOADS = {
    "dlp160": Dlp160,
    "classify-count": ClassifyCount,
    "grouplaw-composite": GroupLawComposite,
    "cli-verify": CliVerify,
}


def load(name: str, in_process: bool = False):
    if name == "cli-verify":
        return CliVerify(in_process)
    return WORKLOADS[name]()
