"""Fast self-test of the benchmark: python3 -m pytest -q bench/test_bench.py

Checks that a seed fixes the inputs, that the generators only produce
valid inputs, that every check accepts a true answer and rejects a wrong
one, that the timed loop counts wrong answers and raised errors as
failures, and that traced counts repeat exactly for a fixed seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDED = ("dlp160", "classify-count", "grouplaw-composite")


def _take(name: str, seed, count: int = 20) -> list:
    return list(itertools.islice(workloads.load(name).inputs(seed), count))


@pytest.mark.parametrize("name", SEEDED)
def test_same_seed_same_inputs(name):
    assert _take(name, 7) == _take(name, 7)
    assert _take(name, 7) != _take(name, 8)


@pytest.mark.parametrize("name", ("classify-count", "grouplaw-composite"))
def test_generated_curves_are_valid(name):
    for a, b, fac, x, y, *_ in _take(name, 3, 64):
        n = math.prod(q**e for q, e in fac)
        assert all(workloads.is_prime(q) for q, _ in fac)
        assert len({q for q, _ in fac}) == len(fac)
        assert math.gcd(6, n) == 1
        assert math.gcd(4 * a**3 + 27 * b * b, n) == 1
        assert (y * y - x**3 - a * x - b) % n == 0


def test_dlp_targets_are_planted_multiples():
    wl = workloads.load("dlp160")
    for n, qx, qy in _take("dlp160", 5, 3):
        assert wl.curve.scalar_xyz(n, wl.base.xyz) == (qx, qy, 1)


def _wrong(out):
    """A plausible but wrong output of the same shape."""
    if isinstance(out, int):
        return out + 1
    if isinstance(out, tuple) and len(out) == 3:
        return (0, 1, 0) if out != (0, 1, 0) else (0, 0, 1)
    return type(out)(out.n, out.factors[:-1] + (out.factors[-1] * 2,), out.local)


@pytest.mark.parametrize("name", SEEDED)
def test_checks_accept_right_and_reject_wrong(name):
    wl = workloads.load(name)
    inp = _take(name, 1, 1)[0]
    prepared = wl.prepare(inp)
    out = wl.run(prepared)
    assert wl.check(inp, prepared, out)
    assert not wl.check(inp, prepared, _wrong(out))


def test_cli_check_rejects_failures():
    check = workloads.load("cli-verify").check
    assert check((), None, (0, "PASS  a: got 1\nPASS  b: got 2\n"))
    assert not check((), None, (2, "PASS  a: got 1\nFAIL  b: got 3, want 2\n"))
    assert not check((), None, (0, "PASS  a: got 1\nFAIL  b: got 3, want 2\n"))
    assert not check((), None, (0, ""))


class _Sabotaged:
    """A workload whose every other op answers wrongly and every third raises."""

    def __init__(self, inner):
        self.inner, self.block, self.min_ops, self.calls = inner, 1, 12, 0
        self.inputs, self.prepare, self.check = inner.inputs, inner.prepare, inner.check

    def run(self, prepared):
        self.calls += 1
        if self.calls % 3 == 0:
            raise RuntimeError("sabotaged")
        out = self.inner.run(prepared)
        return _wrong(out) if self.calls % 2 == 0 else out


def test_wrong_answers_and_errors_are_counted(capsys):
    latencies, factors, failed = worker.measure(_Sabotaged(workloads.load("grouplaw-composite")), 2, 0)
    assert len(latencies) == len(factors) == 12
    assert failed == sum(1 for i in range(1, 13) if i % 2 == 0 or i % 3 == 0)
    assert "sabotaged" in capsys.readouterr().err


def test_tracer_restores_every_patched_name():
    import znec.curve
    import znec.projective

    before = (znec.curve.Curve.add_xyz, znec.projective.crt_ints, znec.structure.classify)
    with tracer.Tracer() as t:
        assert znec.curve.Curve.add_xyz is not before[0]
        znec.classify(znec.new_curve(7, 3, 169))
    assert (znec.curve.Curve.add_xyz, znec.projective.crt_ints, znec.structure.classify) == before
    assert t.calls["structure.classify"] == 1 and t.calls["curve.add_xyz"] > 0


def test_tracer_counts_additions_across_counter_resets():
    c = workloads.znec.new_curve(1, 6, 13)
    with tracer.Tracer() as t:
        c.scalar_xyz(5, (2, 4, 1))
        workloads.znec.ADDITIONS.reset()  # as verify_all does mid-command
        c.scalar_xyz(5, (2, 4, 1))
    assert t.additions() == t.calls["curve.add_xyz"] > 0


COUNTS = ("curve.additions_per_op", "dlp.theta_per_solve")


def _counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {
        k: m["value"] for k, m in metrics.items()
        if k.endswith((".calls", "_hit_ratio")) or k in COUNTS
    }


def test_traced_counts_repeat_exactly():
    # classify-count draws from znec's module-level sampler, so it is the
    # workload whose counts would drift if a process did not start fresh.
    first = _counts("classify-count", 5)
    assert first == _counts("classify-count", 5)
    assert first["curve.add_xyz.calls"] > 0 and first["structure.classify.calls"] == 40
