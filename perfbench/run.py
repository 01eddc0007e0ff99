"""The lsattn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts one worker process with
OpenBLAS, OpenMP and MKL pinned to one thread before numpy loads, and that
worker drives one workload as a closed loop with a single caller.

Workloads (inputs are generated from --seed):
  lm-train     lm.train on the toy byte LM (n=64, d=32, 2 layers, 2 heads,
               w=2, r=4, l=4, dual LN, batch 8, lr 0.5) over a 40 kB
               long-range-copy corpus; small arrays, so per-op Python
               overhead, the per-group loop in causal, the autodiff graph
               walk and GC dominate.
  bidir-long   one bidirectional long-short layer (2 heads, d=64, w=8, r=32,
               dual LN, n=8192): forward+backward against a fixed cotangent,
               plus a forward-only pass; few large vectorized numpy ops.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, plus the median
step and forward-only times, which are not gated (see worker.end_to_end).
--trace 1 prints the per-layer metrics from a traced run and writes its
spans and self times under perfbench/out/. Every run checks the outputs outside the timed loop.
Human-readable lines come first; the last stdout line is one JSON object
with keys correct, attempted, failed and metrics. The exit code is 0 only
when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 175.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="lsattn benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    return args


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git failed)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (git failed)"


def main(argv: list[str]) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lsattn" / "__init__.py").is_file():
        print("run from the root of an lsattn checkout: src/lsattn is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"--workload must be one of {names}", file=sys.stderr)
        return 2
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **PINNED)
    command = [sys.executable, str(Path(__file__).with_name("worker.py")), args.workload,
               str(args.seed), str(args.seconds), str(args.trace)]
    try:
        done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if done.returncode != 0 or not done.stdout.strip():
        print(f"worker failed with exit code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        print(f"metrics disagree with BENCHMARK.json: {sorted(set(got) ^ set(wanted))}",
              file=sys.stderr)
        return 1
    result["environment"]["git_commit"] = git_commit(root)

    env_block = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in env_block.items():
        print(f"env {key}: {value}")
    for check in result["checks"]:
        print(f"check {check['name']}: {'PASS' if check['passed'] else 'FAIL'} ({check['detail']})")
    setup = result["extra"]["setup"]
    print(f"set-up: import {setup['import_s']:.3f} s, build {setup['build_s']:.3f} s "
          f"(median of several), warm-up {setup['warm_up']}")
    notes = result["notes"]
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    out_dir = root / "perfbench" / "out"
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if "spans" in notes:
        print(f"spans: {notes['spans']}; self times per step: {record.relative_to(root)}")
    for name in ("step_ms_p50", "fwd_ms_p50"):
        if name in result["extra"]:
            print(f"{name} = {result['extra'][name]:.6g} ms  (reported, not gated)")
    if "val_bpc" in result["extra"]:
        print(f"val_bpc = {result['extra']['val_bpc']:.6f} bits/byte  (TrainReport.final_val_bpc)")
    print(f"error_rate = {result['extra']['error_rate']:.6g}  "
          f"({result['failed']} failed of {result['attempted']} attempted)")

    out_dir.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
