"""Command line interface: cost tables, scaling sweeps, probes, and training.

Every subcommand writes CSV to --out (stdout by default). Exit codes: 0 on
success, 1 when `check` finds a violated invariant, 2 for unusable flags or
configurations.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .attention import PROJECTIONS
from .bench import fmt, run_norm_probe, run_scaling, sweep_csv_rows, write_csv
from .checks import run_all_checks
from .config import MODES, LSConfig, desk_causal_config
from .errors import ConfigError, DivergenceError, ShapeError
from .flops import PRESETS, VARIANTS, ArchSpec, count_flops, load_preset_file
from .lm import ModelConfig, dualln_ablation, train

USAGE_ERROR = 2
CHECK_FAILURE = 1
DEFAULT_PRESET = "lra-listops"  # what `sweep`, and `flops` without a source, start from

_ARCH_FIELDS = {f.name for f in fields(ArchSpec)}
_LS_FIELDS = {f.name for f in fields(LSConfig)}
_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}


def _given(args, names: set[str]) -> dict:
    """The parsed flags stored under one of `names`.

    Parsers built with argument_default=SUPPRESS leave no attribute for a flag
    that was not given, so a library default stays the only default.
    """
    return {key: value for key, value in vars(args).items() if key in names}


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    """Layer and attention shape flags, stored under their config field names."""
    parser.add_argument("--layers", type=int)
    parser.add_argument("--d", dest="model_dim", type=int, help="model width")
    parser.add_argument("--heads", type=int)
    parser.add_argument("--ffn", dest="ffn_dim", type=int, help="feed-forward width")
    parser.add_argument("--w", dest="window", type=int, help="window segment size")
    parser.add_argument("--r", dest="rank", type=int, help="projection rank")
    parser.add_argument("--l", dest="seg_len", type=int,
                        help="causal projection segment length")


def _add_arch_flags(parser: argparse.ArgumentParser) -> None:
    _add_shape_flags(parser)
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--dual-ln", action="store_true",
                        help="normalize window and projected branches separately")


def _add_lm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--lr", dest="learning_rate", type=float)
    parser.add_argument("--seq-len", dest="seq_len", type=int)
    parser.add_argument("--batch", dest="batch_size", type=int)
    _add_shape_flags(parser)
    parser.add_argument("--out", type=Path, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsattn",
        description="Long-short attention: FLOP tables, scaling sweeps, probes, toy LM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Architecture and LM flags left out leave no attribute (see `_given`).
    only_given = dict(argument_default=argparse.SUPPRESS)

    p_flops = sub.add_parser("flops", help="closed-form FLOP table for one architecture",
                             **only_given)
    source = p_flops.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=sorted(PRESETS), default=DEFAULT_PRESET,
                        help="architecture the other flags override (default %(default)s)")
    source.add_argument("--preset-file", type=Path, default=None,
                        help="key = value file describing the architecture")
    p_flops.add_argument("--variant", choices=VARIANTS)
    p_flops.add_argument("--n", dest="seq_len", type=int, help="sequence length")
    p_flops.add_argument("--docs", type=int)
    _add_arch_flags(p_flops)
    p_flops.add_argument("--out", type=Path, default=None)

    p_sweep = sub.add_parser("sweep", help="wall time / memory / FLOPs over sequence lengths",
                             **only_given)
    p_sweep.add_argument("--n", required=True,
                         help="comma-separated increasing sequence lengths, e.g. 256,512,1024")
    p_sweep.add_argument("--variant", choices=VARIANTS, required=True)
    p_sweep.add_argument("--reps", type=int, default=5)
    p_sweep.add_argument("--seed", type=int, default=0)
    _add_arch_flags(p_sweep)
    p_sweep.add_argument("--out", type=Path, default=None)

    p_norms = sub.add_parser("norms", help="window-vs-projected norm ratios at init")
    p_norms.add_argument("--n", type=int, default=256)
    p_norms.add_argument("--d", type=int, default=64)
    p_norms.add_argument("--heads", type=int, default=2)
    p_norms.add_argument("--w", type=int, default=8)
    p_norms.add_argument("--r", type=int, default=8)
    p_norms.add_argument("--layers", type=int, default=1)
    p_norms.add_argument("--seeds", type=int, default=10)
    p_norms.add_argument("--projection", choices=PROJECTIONS, default=PROJECTIONS[0])
    p_norms.add_argument("--out", type=Path, default=None)

    p_train = sub.add_parser("train", help="train the byte-level LM on a corpus file",
                             **only_given)
    _add_lm_flags(p_train)
    p_train.add_argument("--dropout", type=float)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--no-dual-ln", dest="dual_ln", action="store_false")

    p_ablate = sub.add_parser("ablate", help="paired training runs with and without dual LN",
                              **only_given)
    _add_lm_flags(p_ablate)
    p_ablate.add_argument("--seeds", type=int, default=5)
    p_ablate.set_defaults(steps=250)

    p_check = sub.add_parser("check", help="run the invariant suite; nonzero exit on failure")
    p_check.add_argument("--seed", type=int, default=1)

    return parser


def _check_out(out: Path | None) -> None:
    """Fail before any work if --out cannot be written, without creating or truncating it."""
    if out is None:
        return
    if out.is_dir():
        reason = "Is a directory"
    elif not out.parent.is_dir():
        reason = "No such file or directory"
    elif not os.access(out if out.exists() else out.parent, os.W_OK):
        reason = "Permission denied"
    else:
        return
    raise ConfigError(f"cannot write {out}: {reason}")


def _write_out(rows: list[list[str]], out: Path | None) -> None:
    """Write CSV rows to --out, or to stdout without one; --out is opened only here."""
    if out is None:
        write_csv(rows, sys.stdout)
        return
    try:
        with open(out, "w", newline="") as stream:
            write_csv(rows, stream)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from None


def _cmd_flops(args) -> int:
    base = PRESETS[args.preset] if args.preset_file is None else load_preset_file(args.preset_file)
    report = count_flops(replace(base, **_given(args, _ARCH_FIELDS)))
    rows = [["component", "flops_per_layer"]]
    for name, value in sorted(report.components.items()):
        rows.append([name, str(value)])
    rows.append(["layers", str(report.layers)])
    rows.append(["docs", str(report.docs)])
    rows.append(["total", str(report.total)])
    rows.append(["total_formatted", report.formatted])
    _write_out(rows, args.out)
    return 0


def _cmd_sweep(args) -> int:
    try:
        seq_lens = [int(part) for part in args.n.split(",") if part]
    except ValueError:
        raise ConfigError(f"--n must be comma-separated integers, got {args.n!r}")
    arch = replace(PRESETS[DEFAULT_PRESET], **_given(args, _ARCH_FIELDS))
    _check_out(args.out)
    rows = run_scaling(arch, seq_lens, args.reps, args.seed)
    _write_out(sweep_csv_rows(rows), args.out)
    return 0


def _cmd_norms(args) -> int:
    cfg = LSConfig(seq_len=args.n, model_dim=args.d, heads=args.heads, window=args.w,
                   rank=args.r)
    rows = run_norm_probe(cfg, args.layers, tuple(range(args.seeds)), args.projection)
    _write_out(rows, args.out)
    return 0


def _model_config(args) -> ModelConfig:
    """desk_causal_config() and the ModelConfig defaults, overridden by the given flags."""
    attention = replace(desk_causal_config(), **_given(args, _LS_FIELDS))
    return ModelConfig(attention=attention, **_given(args, _MODEL_FIELDS))


def _read_corpus(path: Path) -> np.ndarray:
    if not path.exists():
        raise ConfigError(f"corpus file {path} does not exist")
    try:
        return np.frombuffer(path.read_bytes(), dtype=np.uint8)
    except OSError as exc:
        raise ConfigError(f"cannot read corpus file {path}: {exc.strerror}") from None


def _cmd_train(args) -> int:
    cfg = _model_config(args)
    corpus = _read_corpus(args.corpus)
    _check_out(args.out)
    _, report = train(cfg, corpus)
    rows = [["step", "train_loss_nats", "val_bpc", "wall_ms"]]
    for step in report.steps:
        rows.append([str(step.step), fmt(step.train_loss_nats),
                     fmt(step.val_bpc), fmt(step.wall_ms)])
    rows.append(["final", "", fmt(report.final_val_bpc), ""])
    _write_out(rows, args.out)
    return 0


def _cmd_ablate(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    cfg = _model_config(args)
    corpus = _read_corpus(args.corpus)
    _check_out(args.out)
    rows = [["seed", "step", "val_bpc_with_dual_ln", "val_bpc_without_dual_ln"]]
    for seed in range(args.seeds):
        with_report, without_report = dualln_ablation(replace(cfg, seed=seed), corpus)
        for a, b in zip(with_report.steps, without_report.steps):
            rows.append([str(seed), str(a.step), fmt(a.val_bpc), fmt(b.val_bpc)])
        rows.append([str(seed), "final", fmt(with_report.final_val_bpc),
                     fmt(without_report.final_val_bpc)])
    _write_out(rows, args.out)
    return 0


def _cmd_check(args) -> int:
    results = run_all_checks(seed=args.seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failed += not result.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return CHECK_FAILURE if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "flops": _cmd_flops,
        "sweep": _cmd_sweep,
        "norms": _cmd_norms,
        "train": _cmd_train,
        "ablate": _cmd_ablate,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ShapeError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run `lsattn {args.command} --help` for usage", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
