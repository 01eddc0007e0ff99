"""Every benchmark workload passes its own output checks after one unit of its loop.

The benchmark (`perfbench/`, workloads listed in BENCHMARK.json) judges a run
incorrect when any of its checks fails. This runs each workload the way its
timed loop does, once, and reads the same checks, so a change that would
make the benchmark report incorrect outputs fails here first. Between the two
it runs what a benchmark run does with the library patched: one unit under
the tracer, and the untimed memory and counter steps. Those patch every
`TRACED_OPS` name, the workload's traced layers, `autodiff.gradients`,
`tensor.track_peak_bytes` and `tensor.count_flops_runtime`, so a change that
renames or reshapes one of them fails here too. Nothing under `perfbench/`
is changed.
"""

import json
import sys
from pathlib import Path

import pytest

from lsattn import tensor

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import worker  # noqa: E402
from tracing import StepClock, Tracer  # noqa: E402
from workloads import make_workload  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# Graph nodes of one step, and the most its tracemalloc peak may read (bytes):
# 2% above the 8,045,636 of lm-train, measured once `gradients` consumed the
# graph it walks, and 0.1% above the 47,045,156 of bidir-long. That peak falls
# in attend's backward while v's window gradient is formed
# (`tools/peak_walk.py bidir-long`): the 40.46 MB the graph holds after the
# forward, less attend's output and v's window rows, both dropped by then
# (2 x 4.19 MB), plus the gradient in flight (4.19 MB), dP (6.29 MB), v's
# window-gradient blocks (4.20 MB) and one run of their product (0.26 MB).
# The nodes are those of `test_lm.py::test_training_step_graph_nodes` (108: one
# bias add per FFN product, 2 blocks x 2, plus the head's, on 103 ops and
# leaves) and of one dual-LN layer with both branches, 32 as counted in
# `test_multi_head.py::test_layer_graph_has_no_parameter_only_ops`.
STEP_MEMORY = {"lm-train": (108, 1.02 * 8_045_636),
               "bidir-long": (32, 1.001 * 47_045_156)}


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_unit_passes_every_check(name):
    workload = make_workload(name, 901)
    workload.build()
    clock = StepClock()
    workload.run_unit(clock, with_forward=True)
    assert clock.durations

    tracer = Tracer()
    tracer.install(workload.trace_layers(), tensor)
    try:
        workload.run_unit(StepClock(), with_forward=False)
    finally:
        tracer.uninstall()
    traced = tracer.totals()
    assert {layer for _, _, layer, _ in workload.trace_layers()} <= set(traced)
    assert traced["tensor.matmul"]["calls"] and traced["tensor.matmul.bwd"]["calls"]

    memory = worker.measure_memory(workload)
    for key in ("tracemalloc_peak_bytes", "peak_bytes", "matmul_macs", "layer_norm_flops",
                "graph_nodes"):
        assert memory[key] > 0, key
    nodes, peak_bound = STEP_MEMORY[name]
    assert memory["graph_nodes"] == nodes
    assert memory["tracemalloc_peak_bytes"] <= peak_bound, memory["tracemalloc_peak_bytes"]
    # `track_peak_bytes` reads tracemalloc too: the two steps agree but for
    # Python objects.
    share = memory["peak_bytes"] / memory["tracemalloc_peak_bytes"]
    assert 0.99 <= share <= 1.01, share

    checks = workload.checks()
    assert checks
    failed = [(check, detail) for check, passed, detail in checks if not passed]
    assert not failed, failed
