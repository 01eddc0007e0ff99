"""Autoregressive attention: causal long-short aggregation and its exact oracle.

A query at position t sees the non-future part of its window segment, the
window-size tokens before that segment, and the projected summaries of all
fully past projection segments (those containing neither t nor any future
token). Each projection segment is projected on its own, so any evaluation
order gives identical results. The aggregation itself is shared with the
bidirectional form (`attention._aggregate`); only the slot layout
(`spans.slot_layout`) differs.
"""

from __future__ import annotations

import math

import numpy as np

from .attention import AttentionWeights, _aggregate, _check_input
from .config import LSConfig
from .params import HeadParams
from .tensor import Tensor, masked_softmax, matmul, scale, transpose_last

__all__ = [
    "causal_aggregate_head",
    "causal_full_attention_oracle",
]


def causal_aggregate_head(
    x: Tensor, p: HeadParams, cfg: LSConfig, return_weights: bool = False
) -> Tensor | tuple[Tensor, AttentionWeights]:
    """Joint softmax over the causal window and all fully past projections.

    Queries whose projection history is empty attend their window only.
    With cfg.dual_ln the two branches are normalized separately before
    mixing.
    """
    return _aggregate(x, p, cfg, return_weights, mode="causal")


def causal_full_attention_oracle(
    x: Tensor, p: HeadParams, return_weights: bool = False
) -> Tensor | tuple[Tensor, AttentionWeights]:
    """Exact attention with future positions excluded; the quality reference."""
    _check_input(x, p, None)
    n = x.shape[-2]
    q, k, v = matmul(x, p.wq), matmul(x, p.wk), matmul(x, p.wv)
    dk = p.wq.shape[-1]
    logits = scale(matmul(q, transpose_last(k)), 1.0 / math.sqrt(dk))
    mask = np.tril(np.ones((n, n), dtype=bool))
    weights = masked_softmax(logits, mask)
    out = matmul(weights, v)
    if return_weights:
        return out, AttentionWeights(weights.data, mask, n)
    return out
