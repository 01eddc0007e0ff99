"""tools/peak_walk.py: per-closure memory peaks of one benchmark step.

The script exits 1 unless its step peak is within 1 KiB of perfbench's
`worker.measure_memory`, so a run that exits 0 has taken its probes' own
bytes out of every reading.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, closure", [
    ("bidir-long", "attend.<locals>.route"),
    ("lm-train", "cross_entropy_mean.<locals>.route"),
])
def test_walk_matches_the_benchmark_peak_and_names_its_closure(name, closure):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "peak_walk.py"), name],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("held after the forward: ")
    assert any(line.startswith(closure) for line in lines[2:-2])
    assert f"set by {closure} " in lines[-2], lines[-2]
