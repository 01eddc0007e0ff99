"""Slot layout of the long-short softmax.

Every query takes one softmax over [2w window slots | projected slots]. The
sequence is cut into window segments of length w. Bidirectionally a query's
window slots are its home segment plus w/2 neighbours on each side; causally
they are the w tokens left of the home segment plus the home segment, with
future slots masked. Out-of-range and padding slots are masked rather than
removed. Projected slots are all visible bidirectionally; causally slot c
(from projection segment c // rank) is visible only to queries of later
projection segments.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import LSConfig

__all__ = ["slot_layout", "window_offset"]


def window_offset(cfg: LSConfig) -> int:
    """How far a segment's first window slot lies left of the segment: w causally, w/2 otherwise."""
    return cfg.window if cfg.mode == "causal" else cfg.window // 2


@lru_cache(maxsize=256)
def slot_layout(cfg: LSConfig) -> np.ndarray:
    """The attendable mask of every padded query, read-only.

    Queries are grouped by window segment (one group of all padded_len rows
    when w = 0). The mask is over [window slots | projected slots], shape
    (groups, group_size, 2w + cfg.projected_slots); window slot j of group g
    is position g*w - window_offset(cfg) + j, which may fall outside
    [0, padded_len).
    """
    n, w, causal = cfg.seq_len, cfg.window, cfg.mode == "causal"
    queries = np.arange(cfg.padded_len).reshape(-1, w or cfg.padded_len)
    offset = window_offset(cfg)
    keys = queries[:, :1] + np.arange(-offset, 2 * w - offset)
    window = ((keys >= 0) & (keys < n))[:, None, :]
    projected = True
    if causal:
        window = window & (keys[:, None, :] <= queries[..., None])
        slot_segment = np.arange(cfg.projected_slots) // cfg.rank
        projected = slot_segment < (queries // cfg.seg_len)[..., None]
    attendable = np.concatenate([
        np.broadcast_to(window, queries.shape + (2 * w,)),
        np.broadcast_to(projected, queries.shape + (cfg.projected_slots,)),
    ], axis=-1)
    attendable.setflags(write=False)
    return attendable
