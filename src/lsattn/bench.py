"""Scaling sweeps and probe runners with CSV output.

Wall times are medians of repeated single-threaded forward passes after one
warmup run; peak memory is tracked by the tensor allocation shim in a
separate untimed pass, so the numbers never contaminate each other.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .attention import norm_ratio_probe
from .config import LSConfig
from .errors import ConfigError
from .flops import ArchSpec, ReferenceEncoder, count_flops
from .tensor import Rng, Tensor, no_grad, track_peak_bytes

__all__ = ["SweepRow", "run_scaling", "run_norm_probe", "write_csv", "THREADS_ENV"]

THREADS_ENV = "LSATTN_THREADS"


def _check_single_threaded() -> None:
    value = os.environ.get(THREADS_ENV)
    if value is not None and value.strip() != "1":
        raise ConfigError(
            f"{THREADS_ENV}={value!r}: timed sweeps require a single thread; "
            "set it to 1 or leave it unset"
        )


@dataclass(frozen=True)
class SweepRow:
    n: int
    w: int
    r: int
    mode: str
    variant: str
    flops: int
    wall_ms: float
    peak_bytes: int
    status: str = "ok"


def fmt(value: float | int) -> str:
    """Six significant digits for floats; integers verbatim."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.6g}"


def run_scaling(
    seq_lens: Sequence[int],
    variant: str,
    window: int = 8,
    rank: int = 32,
    seg_len: int = 16,
    mode: str = "bidirectional",
    dual_ln: bool = False,
    layers: int = 2,
    model_dim: int = 64,
    heads: int = 2,
    ffn_dim: int = 128,
    reps: int = 5,
    seed: int = 0,
) -> list[SweepRow]:
    """Median forward wall time, peak buffer bytes, and modeled FLOPs per n."""
    _check_single_threaded()
    if reps < 5:
        raise ConfigError("need at least 5 timed repetitions")
    if not seq_lens:
        raise ConfigError("need at least one sequence length")
    if list(seq_lens) != sorted(set(seq_lens)):
        raise ConfigError("sequence lengths must be strictly increasing")
    rows = []
    for n in seq_lens:
        arch = ArchSpec(
            layers=layers, model_dim=model_dim, heads=heads, ffn_dim=ffn_dim,
            seq_len=n, variant=variant, window=window, rank=rank,
            seg_len=seg_len, mode=mode, dual_ln=dual_ln,
        )
        flops = count_flops(arch).total
        try:
            rng = Rng(seed)
            encoder = ReferenceEncoder.build(arch, rng)
            x = Tensor(rng.child(999).normal((n, model_dim)))
            with no_grad():
                encoder.forward(x)  # warmup: caches and allocator steady state
                times = []
                for _ in range(reps):
                    started = time.perf_counter()
                    encoder.forward(x)
                    times.append((time.perf_counter() - started) * 1e3)
                with track_peak_bytes() as tracker:
                    encoder.forward(x)
            rows.append(
                SweepRow(
                    n=n, w=arch.window, r=arch.rank, mode=mode, variant=variant,
                    flops=flops, wall_ms=statistics.median(times),
                    peak_bytes=tracker.peak,
                )
            )
        except MemoryError:
            rows.append(
                SweepRow(
                    n=n, w=window, r=rank, mode=mode, variant=variant,
                    flops=flops, wall_ms=float("nan"), peak_bytes=0, status="oom",
                )
            )
    return rows


def sweep_csv_rows(rows: Iterable[SweepRow]) -> list[list[str]]:
    header = ["n", "w", "r", "mode", "variant", "flops", "wall_ms", "peak_bytes", "status"]
    out = [header]
    for row in rows:
        out.append([
            str(row.n), str(row.w), str(row.r), row.mode, row.variant,
            str(row.flops), fmt(row.wall_ms), str(row.peak_bytes), row.status,
        ])
    return out


def run_norm_probe(
    seq_len: int = 256,
    model_dim: int = 64,
    heads: int = 2,
    window: int = 8,
    rank: int = 8,
    layers: int = 1,
    seeds: Sequence[int] = tuple(range(10)),
    projection: str = "dynamic",
) -> list[list[str]]:
    """CSV rows (layer, seed, key_ratio, value_ratio, dual_ln), both variants."""
    cfg = LSConfig(seq_len=seq_len, model_dim=model_dim, heads=heads,
                   window=window, rank=rank)
    rows = [["layer", "seed", "key_ratio", "value_ratio", "dual_ln"]]
    for layer in range(layers):
        layer_seeds = [layer * 100003 + s for s in seeds]
        for dual in (False, True):
            result = norm_ratio_probe(cfg, layer_seeds, dual_ln=dual,
                                      projection=projection)
            for (_, key_ratio, value_ratio), s in zip(result.per_seed, seeds):
                rows.append([
                    str(layer), str(s), fmt(key_ratio), fmt(value_ratio),
                    "true" if dual else "false",
                ])
    return rows


def write_csv(rows: Iterable[Iterable[str]], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
