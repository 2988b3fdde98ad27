"""Benchmark for znec: end-to-end metrics per workload, or per-layer ones traced.

    python3 bench/run.py --workload dlp160 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, untraced then traced

Each measurement runs in a fresh ``bench/worker.py`` process against the
sources in ``src/``.  Times are scaled to a reference machine speed that
is measured during the run (see ``bench/speed.py``); the unscaled values
are printed too, above the result line.  An untraced run sets the
workload up SETUP_REPEATS times in separate processes plus once more
before its timed loop, and reports the median set-up time.  A traced run
makes the workload's fixed ops once untraced and once traced, each in
its own process, and reports the layer spans, the counts and the tracing
overhead.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_REPEATS = 6
RUN_LIMIT_S = 170  # every run must end within 180 s


def _worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one worker process in its own session; kill the whole session on overrun."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--deadline-s", str(max(deadline - time.monotonic() - 10, 1))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} {workload}: worker overran the run limit") from None
    finally:
        if proc.returncode is None:  # overran, or we are being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} {workload}: worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [_worker("setup", workload, seed, seconds, deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    run = _worker("run", workload, seed, seconds, deadline)
    setups.append(run["setup_s"])
    attempted, failed = run["attempted"], run["failed"]
    for name, value in run["raw"].items():
        print(f"{workload:20s} {'unscaled ' + name:42s} {value:>16.6g}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "throughput_ops_s": _metric(run["throughput_ops_s"], "1/s"),
            "latency_p50_ms": _metric(run["latency_p50_ms"], "ms"),
            "latency_p90_ms": _metric(run["latency_p90_ms"], "ms"),
            "ok_frac": _metric(1 - failed / attempted, "frac"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MiB"),
        },
    }


def traced(workload: str, seed: int, deadline: float) -> dict:
    plain = _worker("trace-off", workload, seed, 0, deadline)
    spans = _worker("trace-on", workload, seed, 0, deadline)
    metrics = {}
    for label, layer in spans["layers"].items():
        metrics[f"{label}.calls"] = _metric(layer["calls"], "count")
        metrics[f"{label}.self_s"] = _metric(layer["self_s"], "s")
        metrics[f"{label}.share"] = _metric(layer["self_s"] / spans["raw_busy_s"], "frac")
    solves = spans["layers"]["dlp.solve_anomalous_dlp"]["calls"]
    thetas = spans["layers"]["dlp.theta"]["calls"]
    metrics["curve.additions_per_op"] = _metric(spans["additions_per_op"], "count")
    metrics["dlp.theta_per_solve"] = _metric(thetas / solves if solves else 0.0, "ratio")
    for key, ratio in spans["ratios"].items():
        metrics[key] = _metric(ratio, "ratio")
    metrics["process.import_s"] = _metric(plain["import_s"], "s")
    metrics["trace.overhead_frac"] = _metric(spans["busy_s"] / plain["busy_s"] - 1, "frac")
    failed = plain["failed"] + spans["failed"]
    return {
        "correct": failed == 0,
        "attempted": plain["attempted"] + spans["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def _print(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:20s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:20s} attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through _worker, which kills its session


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both, for --workload all)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "znec", "__init__.py")):
        print(f"bench: no znec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    everything = args.workload == "all"
    if args.trace is not None:
        modes = [args.trace]
    else:
        modes = [0, 1] if everything else [0]
    results = []
    for workload in names if everything else [args.workload]:
        for trace in modes:
            deadline = time.monotonic() + RUN_LIMIT_S
            try:
                result = (traced(workload, args.seed, deadline) if trace
                          else end_to_end(workload, args.seed, args.seconds, deadline))
            except RuntimeError as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 1
            _print(workload, result)
            results.append((workload, result))
    if len(results) > 1:
        # One line of the same shape, each metric name prefixed by its
        # workload (end-to-end and per-layer names never collide).
        result = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}/{name}": m for w, r in results for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
