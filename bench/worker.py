"""One benchmark process: set up a workload, then run it one of three ways.

  --mode setup      set up only and report setup_s
  --mode run        set up, then a closed loop (one client, no threads) of
                    timed ops for --seconds of op time and at least min_ops
  --mode trace-off  import, then the workload's fixed trace_ops ops, untraced
  --mode trace-on   the same ops with every layer function wrapped in spans

Every mode starts in a fresh interpreter, so znec's module-level state
(the ``structure._rng`` sampler, the ``lru_cache``s, ``ADDITIONS``) starts
the same on every run.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

_ERROR = object()


def _time_op(workload, prepared):
    """(output or _ERROR, seconds) for one call into the library."""
    start = time.perf_counter()
    try:
        out = workload.run(prepared)
    except Exception:
        out = _ERROR
        traceback.print_exc(file=sys.stderr)
    return out, time.perf_counter() - start


def _passes(workload, inp, prepared, out) -> bool:
    if out is _ERROR:
        return False
    try:
        return bool(workload.check(inp, prepared, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def measure(workload, seed, seconds: float, deadline: float = float("inf")):
    """Time whole blocks of ops until `seconds` of op time and the workload's min_ops.

    Returns (latencies, factors, failed): raw seconds per op, the speed
    factor for each op (see speed.py), and the number of ops that raised
    or failed their check.
    Inputs are drawn and prepared, outputs checked and the speed kernel
    sampled between the timed calls, so only time inside the library
    counts.
    """
    import speed

    latencies: list[float] = []
    sampler = speed.Sampler()
    failed = busy = 0
    for inp in workload.inputs(seed):
        sampler.before_op()
        prepared = workload.prepare(inp)
        out, dt = _time_op(workload, prepared)
        latencies.append(dt)
        busy += dt
        failed += not _passes(workload, inp, prepared, out)
        done = busy >= seconds and len(latencies) >= workload.min_ops
        if (done and len(latencies) % workload.block == 0) or time.perf_counter() > deadline:
            break
    return latencies, sampler.factors(), failed


def summarize(latencies: list[float], block: int) -> dict:
    """Latency percentiles over all ops; throughput as a median over blocks.

    A block is one full stratified draw of the workload's inputs, so every
    block costs the same in expectation, and the median over blocks is not
    moved by a few slow ops the way a mean would be.
    """
    blocks = [sum(latencies[i : i + block]) for i in range(0, len(latencies) - block + 1, block)]
    # Fewer ops than a block, or than two, only when the deadline cut a run.
    throughput = block / statistics.median(blocks) if blocks else len(latencies) / sum(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "throughput_ops_s": throughput,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }


def _fixed_ops(workload, seed, traced: bool) -> dict:
    """Run the first trace_ops inputs; counts come from the traced variant.

    ``busy_s`` is scaled to reference speed, so the two variants compare
    across processes; the span times stay unscaled.
    """
    import speed
    from tracer import TRACED, Tracer, cache_counts

    batch = []
    for inp in workload.inputs(seed):
        if len(batch) == workload.trace_ops:
            break
        batch.append((inp, workload.prepare(inp)))
    tracer = Tracer() if traced else contextlib.nullcontext()
    caches_before = cache_counts()
    latencies, outputs = [], []
    sampler = speed.Sampler()
    with tracer:
        for _, prepared in batch:
            sampler.before_op()
            out, dt = _time_op(workload, prepared)
            latencies.append(dt)
            outputs.append(out)
    failed = sum(not _passes(workload, inp, prep, out) for (inp, prep), out in zip(batch, outputs))
    scaled_busy = sum(t * f for t, f in zip(latencies, sampler.factors()))
    result = {"attempted": len(batch), "failed": failed, "busy_s": scaled_busy, "raw_busy_s": sum(latencies)}
    if not traced:
        return result
    ratios = {}
    for key, (hits, misses) in cache_counts().items():
        h, m = hits - caches_before[key][0], misses - caches_before[key][1]
        ratios[key] = h / (h + m) if h + m else 0.0
    result["layers"] = {
        label: {"calls": tracer.calls[label], "self_s": tracer.self_s[label]} for label in TRACED
    }
    result["additions_per_op"] = tracer.additions() / len(batch)
    result["ratios"] = ratios
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace-off", "trace-on"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--deadline-s", type=float, default=150.0, help="stop timing ops after this wall time")
    args = parser.parse_args(argv)

    # One CPU for the worker and the znec processes it starts, so the speed
    # kernel samples the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import_start = time.perf_counter()
    import znec

    import_s = time.perf_counter() - import_start
    if not os.path.abspath(znec.__file__).startswith(src + os.sep):
        print(f"znec imported from {znec.__file__}, not from {src}", file=sys.stderr)
        return 2
    import speed
    import workloads

    tracing = args.mode.startswith("trace")
    workload = workloads.load(args.workload, in_process=tracing)
    if not tracing:
        # Warm-up on a fixed input puts lazy imports and first-call costs in
        # set-up.  Trace runs skip it: their counts describe a fresh process,
        # as the in-process cli-verify call must to match the subprocess.
        workload.run(workload.prepare(next(workload.inputs("warmup"))))
    setup_s = time.perf_counter() - _T0

    if args.mode == "setup":
        result = {"setup_s": speed.scaled_setup(setup_s)}
    elif args.mode == "run":
        latencies, factors, failed = measure(workload, args.seed, args.seconds, deadline=_T0 + args.deadline_s)
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        scaled = [t * f for t, f in zip(latencies, factors)]
        result = {
            "attempted": len(latencies),
            "failed": failed,
            **summarize(scaled, workload.block),
            "setup_s": speed.scaled_setup(setup_s),
            "peak_rss_mb": usage / 1024,  # ru_maxrss is in KiB on Linux
            "raw": {**summarize(latencies, workload.block), "setup_s": setup_s},
        }
    else:
        result = _fixed_ops(workload, args.seed, traced=args.mode == "trace-on")
        result["import_s"] = import_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
