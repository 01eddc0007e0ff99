"""Every benchmark workload passes its own output checks after one unit of its loop.

The benchmark (`perfbench/`, workloads listed in BENCHMARK.json) judges a run
incorrect when any of its checks fails. This runs each workload the way its
timed loop does, once, and reads the same checks, so a change that would
make the benchmark report incorrect outputs fails here first. Nothing under
`perfbench/` is changed.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from tracing import StepClock  # noqa: E402
from workloads import make_workload  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_unit_passes_every_check(name):
    workload = make_workload(name, 901)
    workload.build()
    clock = StepClock()
    workload.run_unit(clock, with_forward=True)
    assert clock.durations
    checks = workload.checks()
    assert checks
    failed = [(check, detail) for check, passed, detail in checks if not passed]
    assert not failed, failed
