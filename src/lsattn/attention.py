"""Attention heads, the long-short aggregation, and the block.

`full_attention_head` is exact attention. `aggregate_head` is the one
long-short entry point for both modes: it covers windowed, projected and
combined attention, and reads from cfg.mode which slots each query may see.
`block_forward` is the pre-LN block that runs any per-head attention.

All operations accept inputs of shape (..., n, d) with optional leading batch
axes and return per-head outputs of shape (..., n, head_dim). They take one
head's parameters, or a layer's heads as stored, on a leading axis
(`MultiHeadParams.stacked`), with x given a unit head axis (..., 1, n, d),
which gives (..., h, n, head_dim). Sequences are padded internally to whole
window segments; padded rows never influence real outputs and are dropped
before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import LSConfig
from .errors import ConfigError, ShapeError
from .params import BlockParams, HeadParams, MultiHeadParams, init_multi_head_params
from .spans import slot_layout, window_offset
from .tensor import (
    Rng,
    Tensor,
    add,
    attend,
    concat,
    layer_norm,
    masked_softmax,
    matmul,
    no_grad,
    relu,
    scale,
    slice_axis,
    swap_axes,
    transpose_last,
)

__all__ = [
    "ProjectedKV",
    "AttentionWeights",
    "full_attention_head",
    "multi_head",
    "block_forward",
    "dynamic_projection",
    "aggregate_head",
    "norm_ratio_probe",
    "NormRatioResult",
]

# Projection kinds of `norm_ratio_probe`; the first is the default.
PROJECTIONS = ("dynamic", "identity")


@dataclass
class ProjectedKV:
    """Input-dependent compression of keys and values to `rank` rows.

    k and v are the key and value embeddings x@wk and x@wv of x's own rows.
    pt holds, per projection segment, `rank` distributions over that
    segment's tokens, (..., segments, rank, seg_len); kbar and vbar are the
    correspondingly weighted key and value embeddings.
    """

    pt: Tensor
    kbar: Tensor
    vbar: Tensor
    k: Tensor
    v: Tensor

    @property
    def p(self) -> Tensor:
        """The distributions as columns over all padded tokens, (..., n, rank)."""
        p = transpose_last(self.pt)
        *batch, segments, length, rank = p.shape
        return p.reshape(*batch, segments * length, rank)


@dataclass
class AttentionWeights:
    """Attention weights (..., queries, keys) in query order, with the key mask.

    Rows past seq_len belong to padded queries.
    """

    weights: np.ndarray
    attendable: np.ndarray | None
    seq_len: int

    def row_sums(self) -> np.ndarray:
        """Sum of attendable weights per real query, shape (..., seq_len)."""
        return self.weights.sum(axis=-1)[..., : self.seq_len]


def _check_input(x: Tensor, p: HeadParams, cfg: LSConfig | None) -> None:
    if x.ndim < 2:
        raise ShapeError(f"attention input must be (..., n, d), got {x.shape}")
    if x.shape[-1] != p.wq.shape[-2]:
        raise ShapeError(f"input width {x.shape[-1]} does not match wq {p.wq.shape}")
    if cfg is not None:
        if x.shape[-2] != cfg.seq_len:
            raise ShapeError(f"input length {x.shape[-2]} != config seq_len {cfg.seq_len}")
        if p.wq.shape[-2:] != (cfg.model_dim, cfg.head_dim):
            raise ShapeError("head parameters do not match configuration")


def _pad_rows(x: Tensor, padded_len: int) -> Tensor:
    n = x.shape[-2]
    if padded_len == n:
        return x
    pad = Tensor(np.zeros(x.shape[:-2] + (padded_len - n, x.shape[-1])))
    return concat([x, pad], axis=-2)


def full_attention_head(
    x: Tensor, p: HeadParams, return_weights: bool = False
) -> Tensor | tuple[Tensor, AttentionWeights]:
    """Exact softmax attention of every query over every key."""
    return _exact_attention(x, p, None, return_weights)


def _exact_attention(
    x: Tensor, p: HeadParams, key_mask: Callable[[np.ndarray], np.ndarray] | None,
    return_weights: bool,
) -> Tensor | tuple[Tensor, AttentionWeights]:
    """Exact softmax attention of each query over the keys `key_mask` leaves it.

    `key_mask` maps an all-true (n, n) query-by-key array to the attendable
    mask (`np.tril` for causal attention); None lets every query see every key.
    """
    _check_input(x, p, None)
    n = x.shape[-2]
    mask = None if key_mask is None else key_mask(np.ones((n, n), dtype=bool))
    q, k, v = matmul(x, p.wq), matmul(x, p.wk), matmul(x, p.wv)
    dk = p.wq.shape[-1]
    logits = scale(matmul(q, transpose_last(k)), 1.0 / math.sqrt(dk))
    weights = masked_softmax(logits, mask)
    out = matmul(weights, v)
    if return_weights:
        return out, AttentionWeights(weights.data, mask, n)
    return out


def multi_head(
    x: Tensor,
    p: MultiHeadParams,
    attn: Callable[[Tensor, HeadParams], Tensor],
) -> Tensor:
    """Run `attn` once for all heads, join their outputs along the width, project with wo.

    `attn` gets x with a unit head axis, (..., 1, n, d), and the stacked
    parameters `MultiHeadParams.stacked`, and returns (..., h, n, d_k).
    The long-short kernels return it as a view of an (..., n, h, d_k)
    buffer (`tensor.attend`), so the join is a view too.
    """
    n, d = x.shape[-2:]
    heads = attn(x.reshape(*x.shape[:-2], 1, n, d), p.stacked)
    return matmul(swap_axes(heads, -3, -2).reshape(*x.shape[:-1], -1), p.wo)


def block_forward(
    x: Tensor,
    block: BlockParams,
    attn: Callable[[Tensor, HeadParams], Tensor],
    dropout: Callable[[Tensor], Tensor] = lambda t: t,
) -> Tensor:
    """One pre-LN block: x + attention(LN(x)), then x + FFN(LN(x)).

    The FFN is relu(h @ ffn_in + b_in) @ ffn_out + b_out. `dropout` is applied
    to the attention output and to the FFN hidden layer, in that order.
    """
    normed = layer_norm(x, block.ln_attn.gain, block.ln_attn.bias)
    x = add(x, dropout(multi_head(normed, block.attn, attn)))
    normed = layer_norm(x, block.ln_ffn.gain, block.ln_ffn.bias)
    hidden = dropout(relu(add(matmul(normed, block.ffn_in), block.ffn_in_bias)))
    return add(x, add(matmul(hidden, block.ffn_out), block.ffn_out_bias))


def dynamic_projection(x: Tensor, p: HeadParams, cfg: LSConfig) -> ProjectedKV:
    """Compress x's keys and values through token distributions learned from x.

    The tokens are cut into projection segments: bidirectionally the whole
    sequence is one segment, causally each run of seg_len tokens is one
    (x is padded to whole segments). Within a segment the projection logits
    are normalized over the tokens, so each of its `rank` output rows is a
    convex combination of that segment's token embeddings and depends on no
    other token. Only the first cfg.seq_len rows are valid tokens: rows past
    them (x's own padding rows, or the zero rows added here) receive exactly
    zero weight, and a segment with no valid token averages its zero rows
    uniformly. The distributions are a masked softmax of x @ wp over each
    segment's tokens: wp is applied before the tokens are cut into segments,
    so a stacked wp broadcasts like wk and wv. The softmax's backward reads
    only the distributions, so the logits, a temporary of one expression, die
    when the softmax returns. Rank 0 has no projected branch: it runs only
    x @ wk and x @ wv and returns pt, kbar and vbar as empty arrays.

    Shapes: x is (..., n, d) with n cfg.seq_len or cfg.padded_len, wp is
    (..., d, cfg.rank), k and v are (..., n, head_dim), p is (..., n, rank)
    and kbar/vbar are (..., segments*rank, head_dim), where (...) is the
    batch of x@wk.
    """
    if x.shape[-2] not in (cfg.seq_len, cfg.padded_len):
        raise ShapeError(f"projection input has {x.shape[-2]} rows; config seq_len is "
                         f"{cfg.seq_len}, padded {cfg.padded_len}")
    if p.wp.shape[-1] != cfg.rank:
        raise ShapeError(f"projection matrix {p.wp.shape} does not have config rank {cfg.rank}")
    n, r, dk = x.shape[-2], cfg.rank, cfg.head_dim
    l = cfg.seg_len if cfg.mode == "causal" else n
    segments = -(-n // l)
    n_pad = segments * l
    valid = (np.arange(n_pad) < cfg.seq_len).reshape(segments, l)
    mask = np.where(valid.any(axis=-1, keepdims=True), valid, True)[:, None, :]
    k, v = matmul(x, p.wk), matmul(x, p.wv)
    batch = k.shape[:-2]
    if not r:
        return ProjectedKV(pt=Tensor(np.empty(batch + (segments, 0, l))),
                           kbar=Tensor(np.empty(batch + (0, dk))),
                           vbar=Tensor(np.empty(batch + (0, dk))), k=k, v=v)
    pt = masked_softmax(transpose_last(
        matmul(_pad_rows(x, n_pad), p.wp).reshape(*batch, segments, l, r)), mask)
    kbar = matmul(pt, _pad_rows(k, n_pad).reshape(*batch, segments, l, dk))
    vbar = matmul(pt, _pad_rows(v, n_pad).reshape(*batch, segments, l, dk))
    return ProjectedKV(pt=pt, kbar=kbar.reshape(*batch, segments * r, dk),
                       vbar=vbar.reshape(*batch, segments * r, dk), k=k, v=v)


def aggregate_head(
    x: Tensor, p: HeadParams, cfg: LSConfig, return_weights: bool = False
) -> Tensor | tuple[Tensor, AttentionWeights]:
    """One softmax per query over [2w window slots | all projected slots].

    cfg selects the variant: cfg.mode gives the slots a query may attend
    (`spans.slot_layout`), rank 0 gives sliding-window attention, window 0
    gives attention over the projected keys and values only, and cfg.dual_ln
    passes window and projected keys/values through separate layer norms
    before the joint softmax, which equalizes their row norms at
    initialization. Window keys and values go to `attend` as rows; it reads
    the windows from them at `spans.window_offset`.
    """
    _check_input(x, p, cfg)
    n, n_pad = cfg.seq_len, cfg.padded_len
    attendable = slot_layout(cfg)
    x_pad = _pad_rows(x, n_pad)
    out, weights = attend(matmul(x_pad, p.wq), *_key_value_slots(x_pad, p, cfg), attendable,
                          window_offset(cfg))
    if n_pad != n:
        out = slice_axis(out, -2, 0, n)
    if return_weights:
        dense = weights.reshape(*out.shape[:-2], n_pad, attendable.shape[-1])
        return out, AttentionWeights(dense, attendable.reshape(n_pad, -1), n)
    return out


def _key_value_slots(
    x: Tensor, p: HeadParams, cfg: LSConfig
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Window and projected keys/values of padded x, as `attend` takes them.

    The keys, values and branch norms in between are not kept past the call,
    so without gradient recording they are freed before attention runs.
    """
    pkv = dynamic_projection(x, p, cfg)
    return _normalize_branches(p, cfg, pkv.k, pkv.v, pkv.kbar, pkv.vbar)


def _normalize_branches(
    p: HeadParams, cfg: LSConfig, k: Tensor, v: Tensor, kbar: Tensor, vbar: Tensor
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Window and projected keys/values as attention consumes them.

    With cfg.dual_ln the window branch goes through ln_local and the projected
    branch through ln_global; otherwise all four pass through unchanged. A
    branch of width 0 (window 0 or rank 0) is not read by attention, so its
    norm is not run.
    """
    if not cfg.dual_ln:
        return k, v, kbar, vbar
    local, glob = p.ln_local, p.ln_global
    if cfg.window:
        k, v = layer_norm(k, local.gain, local.bias), layer_norm(v, local.gain, local.bias)
    if cfg.rank:
        kbar, vbar = layer_norm(kbar, glob.gain, glob.bias), layer_norm(vbar, glob.gain, glob.bias)
    return k, v, kbar, vbar


@dataclass
class NormRatioResult:
    """Window-to-projected embedding norm ratios at initialization."""

    key_ratio: float
    value_ratio: float
    per_seed: list[tuple[int, float, float]]


def _mean_row_norms(a: np.ndarray) -> np.ndarray:
    """Mean row norm of each head's (n, d_k) slice of a (h, n, d_k) array."""
    return np.sqrt((a * a).sum(axis=-1)).mean(axis=-1)


def norm_ratio_probe(
    cfg: LSConfig, seeds: Sequence[int], projection: str = PROJECTIONS[0]
) -> NormRatioResult:
    """Average norm ratio of window keys/values to projected keys/values.

    Fresh parameters per seed (the heads of `init_multi_head_params`, run
    together stacked); each head's input is its own zero-mean unit-variance
    draw standing in for a layer-norm output. The ratios are taken after the
    branch normalization that attention applies, so cfg.dual_ln selects plain
    or dual LN. With `projection="identity"` the token distributions are
    forced one-hot (requires rank == seq_len), which pins the ratio to 1.
    """
    if len(seeds) < 10:
        raise ConfigError("norm probe needs at least 10 seeds")
    if cfg.rank < 1 or cfg.window < 2:
        raise ConfigError("norm probe needs rank >= 1 and window >= 2")
    if cfg.dual_ln and cfg.head_dim < 2:
        raise ConfigError("dual-LN norm probe needs head_dim >= 2 (one feature normalizes to 0)")
    if projection not in PROJECTIONS:
        raise ConfigError(f"unknown projection kind {projection!r}")
    if projection == "identity" and cfg.rank != cfg.seq_len:
        raise ConfigError("identity projection requires rank == seq_len")
    per_seed = []
    with no_grad():
        for seed in seeds:
            rng = Rng(seed)
            p = init_multi_head_params(rng, cfg).stacked
            x = Tensor(np.stack([rng.child(1000 + h).normal((cfg.seq_len, cfg.model_dim))
                                 for h in range(cfg.heads)]))
            if projection == "identity":
                k, v, pt = matmul(x, p.wk), matmul(x, p.wv), Tensor(np.eye(cfg.seq_len))
                k, v, kbar, vbar = _normalize_branches(p, cfg, k, v, matmul(pt, k), matmul(pt, v))
            else:
                k, v, kbar, vbar = _key_value_slots(x, p, cfg)
            key_ratio = np.mean(_mean_row_norms(k.data) / _mean_row_norms(kbar.data))
            value_ratio = np.mean(_mean_row_norms(v.data) / _mean_row_norms(vbar.data))
            per_seed.append((seed, float(key_ratio), float(value_ratio)))
    return NormRatioResult(
        key_ratio=float(np.mean([s[1] for s in per_seed])),
        value_ratio=float(np.mean([s[2] for s in per_seed])),
        per_seed=per_seed,
    )
