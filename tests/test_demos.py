"""Each demo runs as a script against this checkout's sources and prints what it promises."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo -> one line of its output (compared stripped) that does not depend on timing
KNOWN_LINES = {
    "anomalous_attack.py": "log    = 113690975836469390483838646646828917131453128585",
    "group_structure_tour.py": "p = 5, e = 2: split          |E(F_p)| =     10 local Z/2 + Z/5 + Z/5",
    "points_at_infinity.py": "kernel generator (7 : 1 : 343) has order 343",
    "rank_records.py": "p = 13: Hasse primes (7, 11, 13, 17, 19), H_p = 5, chi_p = 2, bound = 8",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(KNOWN_LINES)


@pytest.mark.parametrize("demo", sorted(KNOWN_LINES))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert KNOWN_LINES[demo] in [line.strip() for line in proc.stdout.splitlines()], proc.stdout
