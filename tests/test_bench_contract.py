"""Every layer the benchmark traces still exists under the name it looks up.

bench/tracer.py resolves each traced function by module and attribute
name; a rename in the library would otherwise first show up as a failed
benchmark run.
"""

import os

import znec

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_resolves_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    add_xyz = znec.Curve.add_xyz
    with tracer.Tracer() as t:
        assert znec.Curve.add_xyz is not add_xyz
    assert znec.Curve.add_xyz is add_xyz
    assert t.calls == dict.fromkeys(tracer.TRACED, 0)
    tracer.cache_counts()  # looks up the three lru_cache'd functions by name
