"""Window-vs-projected embedding norms at initialization."""

from dataclasses import replace

import numpy as np
import pytest

from lsattn import LSConfig, Rng, Tensor, dynamic_projection, init_head_params, matmul, norm_ratio_probe
from lsattn.errors import ConfigError
from lsattn.tensor import count_flops_runtime

PROBE_CFG = LSConfig(seq_len=256, model_dim=64, heads=2, window=8, rank=8)
SEEDS = tuple(range(10))


def test_dualln_pins_ratio_to_one():
    res = norm_ratio_probe(replace(PROBE_CFG, dual_ln=True), SEEDS)
    assert abs(res.key_ratio - 1.0) < 0.02
    assert abs(res.value_ratio - 1.0) < 0.02


def test_without_dualln_window_rows_dominate():
    res = norm_ratio_probe(PROBE_CFG, SEEDS)
    assert res.key_ratio > 1.05
    assert res.value_ratio > 1.05


def test_one_hot_projection_keeps_norms():
    # With rank == seq_len and one-hot weights the projection permutes rows,
    # so the average norms must agree exactly.
    cfg = LSConfig(seq_len=32, model_dim=16, heads=1, window=2, rank=32)
    res = norm_ratio_probe(cfg, SEEDS, projection="identity")
    assert abs(res.key_ratio - 1.0) < 1e-6
    assert abs(res.value_ratio - 1.0) < 1e-6


def test_projected_rows_are_shorter_on_average():
    # Direction behind the ratio: weighted averages of zero-mean rows shrink.
    local_means, projected_means = [], []
    for seed in SEEDS:
        rng = Rng(seed)
        p = init_head_params(rng, PROBE_CFG)
        x = Tensor(rng.child(99).normal((PROBE_CFG.seq_len, PROBE_CFG.model_dim)))
        k = matmul(x, p.wk).data
        kbar = dynamic_projection(x, p, PROBE_CFG).kbar.data
        local_means.append(np.sqrt((k * k).sum(-1)).mean())
        projected_means.append(np.sqrt((kbar * kbar).sum(-1)).mean())
    assert np.mean(projected_means) < np.mean(local_means)


def test_probe_computes_each_product_once():
    # Per seed and head: x@wk, x@wv and x@wp, then the projected keys and
    # values. The dynamic probe reuses its keys and values for the projection.
    cfg = LSConfig(seq_len=128, model_dim=32, heads=2, window=8, rank=8)
    n, d, h, r, dk = cfg.seq_len, cfg.model_dim, cfg.heads, cfg.rank, cfg.head_dim
    per_seed = h * (2 * n * d * dk + n * d * r + 2 * r * n * dk)
    assert per_seed == 393_216
    with count_flops_runtime() as counter:
        norm_ratio_probe(cfg, SEEDS)
    assert counter.matmul_macs == len(SEEDS) * per_seed


def test_probe_requires_enough_seeds():
    with pytest.raises(ConfigError):
        norm_ratio_probe(PROBE_CFG, range(5))
