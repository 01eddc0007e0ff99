"""One benchmark run of one workload, in a fresh process.

Started by run.py with BLAS pinned to one thread before numpy loads:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

from the root of a checkout. Imports lsattn from ./src only. Prints one JSON
object on its last stdout line; progress and errors go to stderr.

A run is: set-up (import, build parameters and inputs several times, warm
up until minor page faults and full collections settle), then the measured
loop, then untimed memory and counter steps, then the output checks.
Garbage collection is left on and never forced, because users pay for it
on every step.
"""

import ctypes
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

_STARTED = time.perf_counter()
import numpy as np  # noqa: E402
import lsattn  # noqa: E402
from lsattn import tensor  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

from tracing import REPORTED_OPS, ProcessCounters, StepClock, Tracer  # noqa: E402
from workloads import GraphCounter, make_workload  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BUILDS = 3
WARMUP_MAX_S = 30.0
# Warm-up runs at least the workload's min_warmup_steps, then ends once the
# last three steps each fault at most this share of the worst warm-up step
# (and at least QUIET_FLOOR faults are allowed).
QUIET_SHARE = 0.01
QUIET_FLOOR = 64
# Full collections settle after two have run; a workload that runs none in
# this many steps has no full-collection pauses to settle.
GC_SETTLE_STEPS = 20
TAIL_BEYOND = 10


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles it."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()} {kind.strip()}"] = size.strip()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_runtime": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
    }


def warm_up(workload) -> dict:
    clock = StepClock()
    started = time.perf_counter()
    with ProcessCounters() as counters:
        while True:
            workload.run_unit(clock, with_forward=True)
            faults = clock.minflt
            quiet = max(QUIET_FLOOR, QUIET_SHARE * max(faults))
            faults_settled = len(faults) >= workload.min_warmup_steps and \
                all(f <= quiet for f in faults[-3:])
            gc_settled = counters.gc_gen2 >= 2 or len(faults) >= GC_SETTLE_STEPS
            settled = faults_settled and gc_settled
            if settled or time.perf_counter() - started > WARMUP_MAX_S:
                break
    return {"seconds": time.perf_counter() - started, "steps": len(clock.durations),
            "settled": settled, "full_collections": counters.gc_gen2}


def run_loop(workload, seconds: float, clock: StepClock, with_forward: bool) -> tuple[list[float], int]:
    """Closed loop of units until `seconds` pass; returns forward times and failures."""
    forward: list[float] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        try:
            forward += workload.run_unit(clock, with_forward)
        except Exception:
            traceback.print_exc()
            return forward, 1
    return forward, 0


@contextmanager
def tracemalloc_peak(out: dict):
    tracemalloc.start()
    try:
        yield
    finally:
        out["tracemalloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@contextmanager
def tensor_counters(out: dict):
    with tensor.track_peak_bytes() as tracker, tensor.count_flops_runtime() as counter:
        yield
    out.update(peak_bytes=tracker.peak, matmul_macs=counter.matmul_macs,
               layer_norm_flops=counter.layer_norm_flops)


def measure_memory(workload) -> dict:
    """Two untimed steps: one under tracemalloc, one under the tensor shims."""
    out: dict = {}
    with GraphCounter() as graph:
        workload.instrumented_steps([lambda: tracemalloc_peak(out), lambda: tensor_counters(out)])
    out["graph_nodes"] = graph.nodes
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float, setup_s: float) -> tuple[dict, dict, dict, int, int]:
    """Step and forward-only times are gated as means, not medians.

    The shared host switches between speed regimes up to ~1.6x apart for
    seconds at a time, and lm-train's short, Python-heavy steps and forward
    passes were bimodal within single runs. A median then jumps between the
    modes with the share of time spent in each, while a mean moves in
    proportion to it. Over five trial sets of lm-train runs, the step means
    (as tokens_per_s) spread 0.08-0.17 against 0.08-0.23 for the medians, and
    the forward means 0.06-0.16 against 0.08-0.28. The medians are still
    reported, outside the gated metrics.
    """
    clock = StepClock()
    forward, failures = run_loop(workload, seconds, clock, with_forward=True)
    steps = clock.durations
    memory = measure_memory(workload)
    pct, tail_s = tail(steps)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "tokens_per_s": metric(workload.tokens_per_step * len(steps) / sum(steps), "tokens/s"),
        "step_ms_tail": metric(1e3 * tail_s, "ms"),
        "fwd_ms_mean": metric(1e3 * statistics.mean(forward), "ms"),
        "peak_mb": metric(memory["tracemalloc_peak_bytes"] / 1e6, "MB"),
    }
    notes = {
        "tokens_per_s": f"{workload.tokens_per_step} tokens per step over {sum(steps):.2f} s "
                        f"of {len(steps)} steps, {statistics.mean(clock.minflt):.0f} minor faults per step",
        "step_ms_tail": f"p{pct:.1f}, {len(steps) - round(pct * len(steps) / 100)} of "
                        f"{len(steps)} steps beyond it",
        "fwd_ms_mean": f"{len(forward)} forward-only passes",
        "peak_mb": "tracemalloc peak over one untimed step",
    }
    extra = {"step_ms_p50": 1e3 * statistics.median(steps),
             "fwd_ms_p50": 1e3 * statistics.median(forward),
             "step_ms": [1e3 * t for t in steps], "step_minflt": clock.minflt,
             "fwd_ms": [1e3 * t for t in forward]}
    return metrics, notes, extra, len(steps) + len(forward), failures


def per_layer(workload, seconds: float, out_dir: Path) -> tuple[dict, dict, dict, int, int]:
    # Phase A: untraced steps with process counters; phase B: traced steps.
    clock_a = StepClock()
    with ProcessCounters() as counters:
        _, failures = run_loop(workload, seconds / 3, clock_a, with_forward=False)
    tracer = Tracer()
    clock_b = StepClock()
    clock_b.on_step = lambda done: setattr(tracer, "current_step", done)
    tracer.install(workload.trace_layers(), tensor)
    try:
        _, failures_b = run_loop(workload, 2 * seconds / 3, clock_b, with_forward=False)
    finally:
        tracer.uninstall()
    failures += failures_b
    memory = measure_memory(workload)
    closed, runtime = workload.flop_counts()

    totals = tracer.totals(exclude_below="lm.evaluate_bpc")
    steps_a, steps_b = len(clock_a.durations), len(clock_b.durations)

    def ms(name: str, key: str = "incl_s") -> float:
        return 1e3 * totals.get(name, {}).get(key, 0.0) / steps_b

    m: dict = {}
    for op in REPORTED_OPS:
        calls = totals.get(f"tensor.{op}", {}).get("calls", 0)
        m[f"tensor.{op}.calls"] = metric(calls / steps_b, "count")
        m[f"tensor.{op}.fwd_ms"] = metric(ms(f"tensor.{op}"), "ms")
        m[f"tensor.{op}.bwd_ms"] = metric(ms(f"tensor.{op}.bwd"), "ms")
    m["tensor.matmul_macs"] = metric(memory["matmul_macs"], "MAC")
    m["tensor.layer_norm_flops"] = metric(memory["layer_norm_flops"], "FLOP")
    m["tensor.peak_bytes"] = metric(memory["peak_bytes"], "bytes")
    m["tensor.peak_bytes_share"] = metric(
        memory["peak_bytes"] / memory["tracemalloc_peak_bytes"], "ratio")
    m["autodiff.gradients_ms"] = metric(ms("autodiff.gradients"), "ms")
    m["autodiff.graph_nodes"] = metric(memory["graph_nodes"], "count")
    forward, val, grads = ms("lm.forward"), ms("lm.val_forward"), ms("autodiff.gradients")
    m["lm.forward_ms"] = metric(forward, "ms")
    m["lm.val_forward_ms"] = metric(val, "ms")
    m["lm.evaluate_bpc_ms"] = metric(ms("lm.evaluate_bpc"), "ms")
    # The rest of an LM step: batch sampling, the SGD update, bookkeeping.
    update = 1e3 * sum(clock_b.durations) / steps_b - forward - val - grads if forward else 0.0
    m["lm.update_ms"] = metric(update, "ms")
    for layer in ("attention.multi_head", "attention.aggregate_head", "causal.aggregate_head"):
        m[f"{layer}.fwd_ms"] = metric(ms(layer), "ms")
        m[f"{layer}.bwd_ms"] = metric(ms(layer, "bwd_attributed_s"), "ms")
    m["attention.dynamic_projection.fwd_ms"] = metric(ms("attention.dynamic_projection"), "ms")
    m["flops.closed_form"] = metric(closed, "FLOP")
    m["flops.runtime"] = metric(runtime, "FLOP")
    m["process.gc_ms"] = metric(1e3 * counters.gc_s / steps_a, "ms")
    m["process.gc_gen2"] = metric(counters.gc_gen2 / steps_a, "count")
    m["process.gc_collected"] = metric(counters.gc_collected / steps_a, "count")
    m["process.minflt"] = metric(counters.minflt / steps_a, "count")
    m["process.wait_ms"] = metric(1e3 * (counters.wall_s - counters.cpu_s) / steps_a, "ms")
    m["process.tracemalloc_peak_bytes"] = metric(memory["tracemalloc_peak_bytes"], "bytes")
    untraced = 1e3 * statistics.median(clock_a.durations)
    traced = 1e3 * statistics.median(clock_b.durations)
    m["trace.untraced_step_ms_p50"] = metric(untraced, "ms")
    m["trace.step_ms_p50"] = metric(traced, "ms")
    m["trace.overhead_ms"] = metric(traced - untraced, "ms")

    spans_path = out_dir / f"{workload.name}-seed{workload.seed}-spans.npz"
    tracer.write(spans_path)
    extra = {"self_ms_per_step": {name: 1e3 * t["self_s"] / steps_b
                                  for name, t in sorted(totals.items())}}
    notes = {
        "trace.overhead_ms": f"traced minus untraced step_ms_p50 ({steps_b} traced, {steps_a} untraced steps)",
        "tensor.peak_bytes_share": "tensor.peak_bytes / process.tracemalloc_peak_bytes",
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return m, notes, extra, steps_a + steps_b, failures


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    if Path(lsattn.__file__).resolve().parent != (ROOT / "src" / "lsattn").resolve():
        print(f"lsattn imported from {lsattn.__file__}, not ./src", file=sys.stderr)
        return 2
    workload = make_workload(name, seed)
    builds = []
    for _ in range(BUILDS):
        started = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - started)
    warm = warm_up(workload)
    setup_s = IMPORT_S + statistics.median(builds) + warm["seconds"]
    print(f"set-up {setup_s:.2f} s, warm-up {warm}", file=sys.stderr)

    out_dir = ROOT / "perfbench" / "out"
    if trace:
        metrics, notes, extra, attempted, failed = per_layer(workload, seconds, out_dir)
    else:
        metrics, notes, extra, attempted, failed = end_to_end(workload, seconds, setup_s)
    try:
        checks = workload.checks()
    except Exception:
        traceback.print_exc()
        checks = [("checks", False, "a check raised")]
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)
    extra["setup"] = {"import_s": IMPORT_S, "build_s": statistics.median(builds), "warm_up": warm}
    extra["error_rate"] = failed / attempted
    if name == "lm-train":
        extra["val_bpc"] = workload.val_bpc[-1][1]
    print(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes,
        "checks": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
        "extra": extra, "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
