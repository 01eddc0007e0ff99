"""Scaling sweeps and probe runners with CSV output.

Wall times are medians of forward passes timed round-robin over the sequence
lengths after one warmup run each; peak memory is read from tracemalloc
(`track_peak_bytes`) in a separate untimed pass, so the numbers never
contaminate each other. BLAS runs with whatever threads the environment gives
it (set OPENBLAS_NUM_THREADS=1 to pin it).
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, TextIO

from .attention import norm_ratio_probe
from .config import LSConfig
from .errors import ConfigError
from .flops import ArchSpec, count_flops, reference_encoder
from .tensor import Rng, Tensor, no_grad, track_peak_bytes

__all__ = ["SweepRow", "run_scaling", "run_norm_probe", "write_csv"]


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


def run_scaling(arch: ArchSpec, seq_lens: Sequence[int], reps: int, seed: int) -> list[SweepRow]:
    """Median forward wall time, peak traced bytes, and modeled FLOPs per n.

    Each sequence length n runs `arch` with seq_len replaced by n. Each of `reps`
    rounds times one forward at every n in turn, so a change of host speed
    reaches all lengths alike; an n that runs out of memory is marked "oom".
    Rows report the window and rank the variant runs (`ArchSpec.attention_config`):
    0 for a disabled branch, and 0 and 0 for full attention.
    """
    if reps < 5:
        raise ConfigError("need at least 5 timed repetitions")
    if not seq_lens:
        raise ConfigError("need at least one sequence length")
    if list(seq_lens) != sorted(set(seq_lens)):
        raise ConfigError("sequence lengths must be strictly increasing")
    rows = {}
    runs = {}  # n -> (encoder forward, x, wall times) while n has not run out of memory
    with no_grad():
        for n in seq_lens:
            arch_n = replace(arch, seq_len=n)
            cfg = arch_n.attention_config()
            w, r = (0, 0) if cfg is None else (cfg.window, cfg.rank)
            rows[n] = SweepRow(n=n, w=w, r=r, mode=arch.mode, variant=arch.variant,
                               flops=count_flops(arch_n).total, wall_ms=float("nan"),
                               peak_bytes=0, status="oom")
            try:
                rng = Rng(seed)
                encoder = reference_encoder(arch_n, rng)
                x = Tensor(rng.child(999).normal((n, arch.model_dim)))
                encoder(x)  # warmup: caches and allocator steady state
                runs[n] = (encoder, x, [])
            except MemoryError:
                pass
        for _ in range(reps):
            for n, (encoder, x, times) in list(runs.items()):
                try:
                    started = time.perf_counter()
                    encoder(x)
                    times.append((time.perf_counter() - started) * 1e3)
                except MemoryError:
                    del runs[n]
        for n, (encoder, x, times) in runs.items():
            try:
                with track_peak_bytes() as tracker:
                    encoder(x)
            except MemoryError:
                continue
            rows[n] = replace(rows[n], wall_ms=statistics.median(times),
                              peak_bytes=tracker.peak, status="ok")
    return list(rows.values())


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
    cfg: LSConfig, layers: int, seeds: Sequence[int], projection: str
) -> list[list[str]]:
    """CSV rows (layer, seed, key_ratio, value_ratio, dual_ln), plain and dual LN.

    cfg.dual_ln is ignored: every layer and seed is probed both ways. Each
    layer is an independent single layer at seeds offset by 100003 * layer,
    not a layer of a stack.
    """
    if layers < 1:
        raise ConfigError(f"norm probe needs at least 1 layer, got {layers}")
    rows = [["layer", "seed", "key_ratio", "value_ratio", "dual_ln"]]
    for layer in range(layers):
        layer_seeds = [layer * 100003 + s for s in seeds]
        for dual in (False, True):
            result = norm_ratio_probe(replace(cfg, dual_ln=dual), layer_seeds, projection)
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
