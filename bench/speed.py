"""Scale timings to a reference machine speed measured during the run.

On a host shared with other tenants the same Python code runs up to
1.5-2x slower for seconds at a time, so raw wall-clock medians of two
runs a minute apart can differ by 30%.  Every worker therefore samples
a fixed calibration kernel between ops (at least every SAMPLE_EVERY_S)
and scales each timing by REF_S / k, where k is the running median of
the kernel samples taken around it.  A scaled time reads as "ms at the
speed where the kernel takes REF_S".

The kernel is pure Python and shares no code with znec: a scalar
multiplication over F_(2^127 - 1) by chord-and-tangent (big integers,
modular inverses) and a Legendre-symbol point count over F_7919 (small
integers, a table lookup), the two instruction mixes of the workloads.
No change to znec can move it, so scaled times still compare commits.
"""

from __future__ import annotations

import statistics
import time

from workloads import affine_mul

REF_S = 0.005
SAMPLE_EVERY_S = 0.1
WINDOW = 9  # kernel samples in the running median
SETUP_SAMPLES = 5  # kernel samples that scale one set-up time

_P = 2**127 - 1  # a prime = 3 mod 4, so square roots are one pow()
_A, _B = 2, 3
_X = next(x for x in range(1, 100) if pow(x**3 + _A * x + _B, (_P - 1) // 2, _P) == 1)
_BASE = (_X, pow(_X**3 + _A * _X + _B, (_P + 1) // 4, _P))
_Q = 7919
_SQUARES = bytearray(_Q)
for _y in range(_Q // 2 + 1):
    _SQUARES[_y * _y % _Q] = 1


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    start = time.perf_counter()
    affine_mul(0xDEADBEEFCAFEBABE1234567, _BASE, _A, _P)
    count = 1
    for x in range(_Q):
        r = (x * x * x + 5 * x + 7) % _Q
        count += 1 if r == 0 else 2 * _SQUARES[r]
    return time.perf_counter() - start


class Sampler:
    """Kernel samples taken between ops, and the speed factor of each op."""

    def __init__(self):
        self.samples = [kernel_s()]
        self._last = time.perf_counter()
        self._sample_of_op: list[int] = []

    def before_op(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(kernel_s())
            self._last = time.perf_counter()
        self._sample_of_op.append(len(self.samples) - 1)

    def factors(self) -> list[float]:
        """REF_S over the running median of the samples around each op."""
        half = WINDOW // 2
        per_sample = [
            REF_S / statistics.median(self.samples[max(0, i - half) : i + half + 1])
            for i in range(len(self.samples))
        ]
        return [per_sample[i] for i in self._sample_of_op]


def scaled_setup(setup_s: float) -> float:
    """Set-up time scaled by the kernel's median over a few runs just after set-up."""
    return setup_s * REF_S / statistics.median(kernel_s() for _ in range(SETUP_SAMPLES))
