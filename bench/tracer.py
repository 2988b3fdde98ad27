"""Spans around znec's layer functions, recorded from outside the library.

Each traced function is replaced by a wrapper in every module namespace
that holds it (``canonical_triple`` lives in both ``znec.projective`` and
``znec.curve``), so calls are caught whichever module makes them.  The
two ``crt_ints`` entries are the exception: they patch one namespace each,
which splits CRT gluing into canonicalization (projective) and mixed-law
selection plus enumeration (curve).  Self time is a span's duration minus
the durations of the traced spans it encloses.
"""

from __future__ import annotations

import functools
import sys
import time

import znec
import znec.cli
import znec.reference

# label -> (module, attribute path, namespaces to patch or None for all)
TRACED = {
    "curve.add_xyz": ("znec.curve", "Curve.add_xyz", None),
    "curve.scalar_xyz": ("znec.curve", "Curve.scalar_xyz", None),
    "projective.canonical_triple": ("znec.projective", "canonical_triple", None),
    "projective.crt_ints": ("znec.modring", "crt_ints", ("znec.projective",)),
    "curve.crt_ints": ("znec.modring", "crt_ints", ("znec.curve",)),
    "modring.factorize": ("znec.modring", "factorize", None),
    "structure.count_points_fp": ("znec.structure", "count_points_fp", None),
    "structure.group_structure_fp": ("znec.structure", "group_structure_fp", None),
    "structure.anomalous_type": ("znec.structure", "anomalous_type", None),
    "structure.classify": ("znec.structure", "classify", None),
    "infinity.compute_f": ("znec.infinity", "compute_f", None),
    "dlp.lift_point": ("znec.dlp", "lift_point", None),
    "dlp.theta": ("znec.dlp", "theta", None),
    "dlp.solve_anomalous_dlp": ("znec.dlp", "solve_anomalous_dlp", None),
    "rank.rank_bound": ("znec.rank", "rank_bound", None),
    "rank.construct_max_rank_curve": ("znec.rank", "construct_max_rank_curve", None),
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    It also keeps what ``ADDITIONS.reset()`` clears while it is installed
    (``verify_all`` resets the counter mid-command), so ``additions()``
    counts every addition made under the tracer.
    """

    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self._open: list[float] = []  # traced-child time of each open span
        self._patched: list[tuple[object, str, object]] = []
        self._additions_start = 0
        self._additions_cleared = 0

    def additions(self) -> int:
        return znec.ADDITIONS.value - self._additions_start + self._additions_cleared

    def _count_cleared(self, reset):
        def counted_reset(counter):
            cleared = reset(counter)
            self._additions_cleared += cleared
            return cleared

        return counted_reset

    def _wrap(self, label: str, fn):
        calls, self_s, open_spans, clock = self.calls, self.self_s, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[label] += 1
                self_s[label] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        counter = type(znec.ADDITIONS)
        self._patch(counter, "reset", self._count_cleared(counter.reset))
        self._additions_start = znec.ADDITIONS.value
        modules = [m for key, m in sys.modules.items() if key == "znec" or key.startswith("znec.")]
        for label, (module, path, namespaces) in TRACED.items():
            owner, name = _resolve(module, path)
            original = getattr(owner, name)
            wrapper = self._wrap(label, original)
            if namespaces is not None:
                for ns in namespaces:
                    self._patch(sys.modules[ns], name, wrapper)
                continue
            if owner not in modules:  # a method: patch the class
                self._patch(owner, name, wrapper)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of the library caches whose ratios the trace reports."""
    caches = {
        "structure.count_cache_hit_ratio": znec.structure._count_fp,
        "structure.square_table_hit_ratio": znec.structure._square_table,
        "modring.factorize_cache_hit_ratio": znec.modring.factorize,
    }
    return {key: (fn.cache_info().hits, fn.cache_info().misses) for key, fn in caches.items()}
