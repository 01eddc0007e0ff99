"""Learned parameter containers for attention heads and transformer blocks."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterator

import numpy as np

from .config import LSConfig
from .tensor import Rng, Tensor, init_matrix

__all__ = ["Params", "LnParams", "HeadParams", "MultiHeadParams", "BlockParams",
           "init_head_params", "init_multi_head_params", "init_block_params", "init_blocks"]


class Params:
    """A dataclass of parameters, listed by `named_parameters` in field order.

    A tensor field is listed under its name unless it has no elements (wp at
    rank 0); a `Params` field recurses as `name.`; a list field names its
    items by its `item` metadata (`h{i}.`, `block{i}.`). A field whose
    `views` metadata names the field holding its views is left out.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor) and value.size:
                yield prefix + f.name, value
            elif isinstance(value, Params) and "views" not in f.metadata:
                yield from value.named_parameters(f"{prefix}{f.name}.")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    yield from item.named_parameters(f"{prefix}{f.metadata['item']}{i}.")


@dataclass
class LnParams(Params):
    gain: Tensor
    bias: Tensor


@dataclass
class HeadParams(Params):
    """Projections for one head plus its two key/value normalizations.

    The same fields hold all heads of a layer on a leading head axis
    (`MultiHeadParams.stacked`).
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wp: Tensor
    ln_local: LnParams
    ln_global: LnParams


@dataclass
class MultiHeadParams(Params):
    """A layer's heads, stored once on a leading head axis, and its output projection.

    stacked holds wq, wk, wv as (h, d, d_k), wp as (h, d, r) at every rank, and the norm
    gains and biases as (h, 1, d_k), so they broadcast against (..., h, n, d_k).
    heads[i] holds head i's tensors, which view row i of those leaves
    (`Tensor.view_of`), so writing one writes the other, and gradients that
    reach the leaves are returned for the views.
    """

    stacked: HeadParams = field(metadata={"views": "heads"})
    heads: list[HeadParams] = field(metadata={"item": "h"})
    wo: Tensor


@dataclass
class BlockParams(Params):
    """One pre-LN transformer block: attention and a ReLU feed-forward layer."""

    ln_attn: LnParams
    attn: MultiHeadParams
    ln_ffn: LnParams
    ffn_in: Tensor
    ffn_in_bias: Tensor
    ffn_out: Tensor
    ffn_out_bias: Tensor


def _ln_params(dim: int) -> LnParams:
    return LnParams(
        gain=Tensor(np.ones(dim), requires_grad=True),
        bias=Tensor(np.zeros(dim), requires_grad=True),
    )


def init_head_params(rng: Rng, cfg: LSConfig) -> HeadParams:
    """Trainable leaves: fan-in scaled projections (wp (d, rank) first), identity norms."""
    d, dk = cfg.model_dim, cfg.head_dim
    wp = init_matrix(rng, d, cfg.rank)
    return HeadParams(
        wq=init_matrix(rng, d, dk),
        wk=init_matrix(rng, d, dk),
        wv=init_matrix(rng, d, dk),
        wp=wp,
        ln_local=_ln_params(dk),
        ln_global=_ln_params(dk),
    )


def _join_heads(heads: list[HeadParams], join: Callable[[list[Tensor], bool], Tensor]) -> HeadParams:
    """HeadParams whose every tensor is join(that tensor of each head, whether it is a norm's)."""
    def ln(norms: list[LnParams]) -> LnParams:
        return LnParams(gain=join([n.gain for n in norms], True),
                        bias=join([n.bias for n in norms], True))

    return HeadParams(
        wq=join([head.wq for head in heads], False),
        wk=join([head.wk for head in heads], False),
        wv=join([head.wv for head in heads], False),
        wp=join([head.wp for head in heads], False),
        ln_local=ln([head.ln_local for head in heads]),
        ln_global=ln([head.ln_global for head in heads]),
    )


def _view(base: Tensor, index: int | tuple[int, ...]) -> Tensor:
    view = Tensor(base.data[index], requires_grad=base.requires_grad)
    view.view_of = (base, index)
    return view


def init_multi_head_params(rng: Rng, cfg: LSConfig) -> MultiHeadParams:
    """Head i drawn as by `init_head_params(rng.child(i))`, stored stacked; wo from rng.child(h).

    Every leaf, and every per-head view of one, requires gradients.
    """
    drawn = [init_head_params(rng.child(i), cfg) for i in range(cfg.heads)]

    def leaf(parts: list[Tensor], norm: bool) -> Tensor:
        data = np.stack([t.data for t in parts])
        return Tensor(data[:, None] if norm else data, requires_grad=True)

    stacked = _join_heads(drawn, leaf)
    heads = [_join_heads([stacked], lambda parts, norm: _view(parts[0], (i, 0) if norm else i))
             for i in range(cfg.heads)]
    wo = init_matrix(rng.child(cfg.heads), cfg.model_dim, cfg.model_dim)
    return MultiHeadParams(stacked=stacked, heads=heads, wo=wo)


def init_block_params(rng: Rng, cfg: LSConfig, ffn_dim: int) -> BlockParams:
    """Fresh block parameters drawn from rng's children only: the heads and wo from
    children 0 to cfg.heads (`init_multi_head_params`), the FFN matrices from 100 and 101.

    Norms start at identity and FFN biases at zero. Every tensor requires gradients.
    """
    d = cfg.model_dim
    return BlockParams(
        ln_attn=_ln_params(d),
        attn=init_multi_head_params(rng, cfg),
        ln_ffn=_ln_params(d),
        ffn_in=init_matrix(rng.child(100), d, ffn_dim),
        ffn_in_bias=Tensor(np.zeros(ffn_dim), requires_grad=True),
        ffn_out=init_matrix(rng.child(101), ffn_dim, d),
        ffn_out_bias=Tensor(np.zeros(d), requires_grad=True),
    )


def init_blocks(rng: Rng, cfg: LSConfig, ffn_dim: int, layers: int) -> list[BlockParams]:
    """A stack of fresh blocks, block i drawn from rng.child(10 + i).

    Children below 10 are left to the caller's own draws.
    """
    return [init_block_params(rng.child(10 + i), cfg, ffn_dim) for i in range(layers)]
