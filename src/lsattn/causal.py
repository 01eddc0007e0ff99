"""Autoregressive attention: the causal long-short entry point and its exact oracle.

A query at position t sees the non-future part of its window segment, the
window-size tokens before that segment, and the projected summaries of all
fully past projection segments (those containing neither t nor any future
token). Each projection segment is projected on its own, so any evaluation
order gives identical results. Both modes run `attention.aggregate_head`,
which takes this slot layout from `spans.slot_layout`; the exact oracle is
`attention`'s exact-attention body with a lower-triangular key mask.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionWeights, _exact_attention, aggregate_head
from .config import LSConfig
from .errors import ConfigError
from .params import HeadParams
from .tensor import Tensor

__all__ = [
    "causal_aggregate_head",
    "causal_full_attention_oracle",
]


def causal_aggregate_head(
    x: Tensor, p: HeadParams, cfg: LSConfig, return_weights: bool = False
) -> Tensor | tuple[Tensor, AttentionWeights]:
    """`aggregate_head` for a causal config; a bidirectional one raises ConfigError.

    Joint softmax over the causal window and all fully past projections.
    Queries whose projection history is empty attend their window only.
    With cfg.dual_ln the two branches are normalized separately before
    mixing.
    """
    if cfg.mode != "causal":
        raise ConfigError("causal aggregation requires a causal configuration")
    return aggregate_head(x, p, cfg, return_weights)


def causal_full_attention_oracle(
    x: Tensor, p: HeadParams, return_weights: bool = False
) -> Tensor | tuple[Tensor, AttentionWeights]:
    """Exact attention with future positions excluded; the quality reference."""
    return _exact_attention(x, p, np.tril, return_weights)
