"""Self-contained invariant checks behind the `check` CLI subcommand.

Each check re-derives its expectation independently (oracles, closed forms,
finite differences) and reports pass/fail; the CLI exits nonzero if any
check fails. These mirror the heavier pytest suite at a size that runs in
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import (
    aggregate_head,
    dynamic_projection,
    full_attention_head,
    norm_ratio_probe,
)
from .autodiff import finite_diff_check
from .causal import causal_aggregate_head
from .config import LSConfig
from .flops import ArchSpec, count_flops, measured_flops
from .params import init_head_params
from .tensor import Rng, Tensor, masked_softmax, mul, no_grad, tensor_sum

__all__ = ["run_all_checks", "CheckResult"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _oracle_equivalence(seed: int) -> CheckResult:
    worst = 0.0
    for i, n in enumerate((6, 11, 16)):
        cfg = LSConfig(seq_len=n, model_dim=8, heads=1, window=2 * ((n + 1) // 2), rank=0)
        rng = Rng(seed + i)
        p = init_head_params(rng, cfg)
        x = Tensor(rng.child(9).normal((n, 8)))
        gap = np.abs(
            aggregate_head(x, p, cfg).data - full_attention_head(x, p).data
        ).max()
        worst = max(worst, float(gap))
    return CheckResult("oracle-equivalence", worst <= 1e-12, f"max |diff| {worst:.2e}")


def _stochasticity(seed: int) -> CheckResult:
    worst, negative = 0.0, False
    configs = [
        LSConfig(seq_len=12, model_dim=8, heads=1, window=2, rank=3),
        LSConfig(seq_len=12, model_dim=8, heads=1, window=4, rank=2, dual_ln=True),
        LSConfig(seq_len=12, model_dim=8, heads=1, window=2, rank=2, seg_len=4, mode="causal"),
        LSConfig(seq_len=12, model_dim=8, heads=1, window=8, rank=0),
        LSConfig(seq_len=12, model_dim=8, heads=1, window=0, rank=3),
    ]
    for i, cfg in enumerate(configs):
        rng = Rng(seed + 10 * i)
        p = init_head_params(rng, cfg)
        x = Tensor(rng.child(5).normal((12, 8)))
        _, info = aggregate_head(x, p, cfg, return_weights=True)
        worst = max(worst, float(np.abs(info.row_sums() - 1.0).max()))
        # Projection columns are distributions over each projection segment:
        # the whole sequence bidirectionally, seg_len causally (none at rank 0).
        proj = dynamic_projection(x, p, cfg).p.data
        seg = cfg.seg_len if cfg.mode == "causal" else proj.shape[0]
        sums = proj.reshape(proj.shape[0] // seg, seg, cfg.rank).sum(axis=1)
        worst = max(worst, float(np.abs(sums - 1.0).max(initial=0.0)))
        negative |= bool((proj < 0).any())
    return CheckResult(
        "row-column-stochasticity", worst <= 1e-12 and not negative,
        f"max |sum-1| {worst:.2e}, negative weights {negative}",
    )


def _causality(seed: int) -> CheckResult:
    cfg = LSConfig(seq_len=16, model_dim=8, heads=1, window=4, rank=1, seg_len=4, mode="causal")
    for s in range(2):
        rng = Rng(seed + s)
        p = init_head_params(rng, cfg)
        x = Tensor(rng.child(3).normal((16, 8)))
        base = causal_aggregate_head(x, p, cfg).data.copy()
        for t in range(1, 16):
            bumped = Tensor(x.data.copy())
            bumped.data[t:] += 5.0
            out = causal_aggregate_head(bumped, p, cfg).data
            if not np.array_equal(base[:t], out[:t]):
                return CheckResult("causality", False, f"leak at t={t}, seed {seed + s}")
    return CheckResult("causality", True, "bit-identical prefixes under future edits")


def _gradients(seed: int) -> CheckResult:
    worst = 0.0
    configs = [
        LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=2, dual_ln=True),
        LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=1, seg_len=4,
                 mode="causal", dual_ln=True),
    ]
    for i, cfg in enumerate(configs):
        rng = Rng(seed + i)
        p = init_head_params(rng, cfg)
        x = Tensor(rng.child(2).normal((8, 4)), requires_grad=True)
        probe = Tensor(rng.child(3).normal((8, cfg.head_dim)))
        params = [x] + [t for _, t in p.named_parameters()]
        err = finite_diff_check(lambda: tensor_sum(mul(aggregate_head(x, p, cfg), probe)), params)
        worst = max(worst, err)
    return CheckResult("gradient-check", worst < 1e-5, f"max rel err {worst:.2e}")


def _flop_parity(seed: int) -> CheckResult:
    # Every variant in each mode it has, with dual LN wherever it applies.
    ls = ArchSpec(layers=2, model_dim=8, heads=2, ffn_dim=16, seq_len=24,
                  variant="long-short", window=4, rank=2, seg_len=4, dual_ln=True)
    archs = [replace(ls, variant="full", dual_ln=False)] + [
        replace(ls, variant=variant, mode=mode)
        for variant in ("long-short", "window", "projection")
        for mode in ("bidirectional", "causal")
        if not (variant == "projection" and mode == "causal")
    ]
    for arch in archs:
        closed = count_flops(arch).total
        measured = measured_flops(arch, seed=seed)
        if closed != measured:
            return CheckResult(
                "flop-parity", False,
                f"{arch.variant}/{arch.mode}: closed {closed} != measured {measured}",
            )
    return CheckResult("flop-parity", True, "closed form equals runtime counter")


def _norm_ratios(seed: int) -> CheckResult:
    cfg = LSConfig(seq_len=128, model_dim=32, heads=2, window=8, rank=8)
    seeds = [seed + i for i in range(10)]
    plain = norm_ratio_probe(cfg, seeds)
    dual = norm_ratio_probe(replace(cfg, dual_ln=True), seeds)
    ok = plain.key_ratio > 1.05 and abs(dual.key_ratio - 1.0) < 0.02
    return CheckResult(
        "norm-ratios", ok,
        f"plain {plain.key_ratio:.3f} (>1.05), dual {dual.key_ratio:.4f} (~1.0)",
    )


def _softmax_contract(seed: int) -> CheckResult:
    rng = Rng(seed)
    logits = Tensor(rng.normal((6, 9), std=4.0))
    mask = rng.uniform((6, 9)) < 0.5
    mask[:, 0] = True
    out = masked_softmax(logits, mask).data
    row_gap = np.abs(out.sum(-1) - 1.0).max()
    zeros_exact = (out[~mask] == 0.0).all()
    ok = row_gap <= 1e-12 and bool(zeros_exact)
    return CheckResult("masked-softmax", ok, f"row-sum gap {row_gap:.2e}, masked zeros {zeros_exact}")


def run_all_checks(seed: int) -> list[CheckResult]:
    with no_grad():  # the forward-only checks build no graph
        results = [fn(seed) for fn in (_softmax_contract, _oracle_equivalence,
                                       _stochasticity, _causality)]
    return results + [fn(seed) for fn in (_gradients, _flop_parity, _norm_ratios)]
