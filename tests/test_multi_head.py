"""Stacked-head attention against one call per head.

`multi_head` runs every head in one attention call over parameters stacked on
a head axis. The reference here runs each head on its own, joins the outputs
along the width and applies wo, as the per-head definition reads.
"""

import numpy as np
import pytest

from lsattn import (
    LSConfig,
    Rng,
    Tensor,
    aggregate_head,
    causal_aggregate_head,
    concat,
    gradients,
    init_multi_head_params,
    matmul,
    multi_head,
)
from lsattn.tensor import mul, tensor_sum

CONFIGS = {
    "bidirectional": (LSConfig(seq_len=10, model_dim=12, heads=3, window=4, rank=3,
                               dual_ln=True), aggregate_head),
    "causal": (LSConfig(seq_len=12, model_dim=12, heads=3, window=2, rank=2, seg_len=4,
                        mode="causal", dual_ln=True), causal_aggregate_head),
}


def per_head_reference(x, params, head):
    outputs = [head(x, p) for p in params.heads]
    return matmul(concat(outputs, axis=-1), params.wo)


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_stacked_heads_match_one_call_per_head(mode):
    cfg, fn = CONFIGS[mode]
    rng = Rng(11)
    params = init_multi_head_params(rng.child(0), cfg)
    x = Tensor(rng.child(1).normal((2, cfg.seq_len, cfg.model_dim)), requires_grad=True)
    probe = Tensor(rng.child(2).normal((2, cfg.seq_len, cfg.model_dim)))
    leaves = [x] + [t for _, t in params.named_parameters()]
    head = lambda h, p: fn(h, p, cfg)

    results = []
    for forward in (multi_head, per_head_reference):
        out = forward(x, params, head)
        grads = gradients(tensor_sum(mul(out, probe)), leaves)
        results.append((out.data, grads))
    (out, grads), (ref, ref_grads) = results
    assert out.shape == ref.shape == x.shape
    assert np.abs(out - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    for (name, _), g, g_ref in zip([("x", x)] + list(params.named_parameters()),
                                   grads, ref_grads):
        assert np.abs(g_ref).max() > 0, name
        assert np.abs(g - g_ref).max() <= 1e-12 * max(1.0, np.abs(g_ref).max()), name
