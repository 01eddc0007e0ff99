"""Attention span geometry for the sliding-window branch.

The sequence is cut into disjoint segments of length w. Bidirectionally a
query sees its home segment plus w/2 neighbours on each side; causally it
sees the w tokens left of the home segment plus the non-future part of the
home segment. Either way a span holds exactly 2w slots, with out-of-range
or future slots masked rather than removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import LSConfig
from .errors import ConfigError

__all__ = [
    "AttentionSpan",
    "CausalSpan",
    "window_span",
    "causal_window_span",
    "segment_window_indices",
    "bidirectional_key_mask",
    "causal_key_mask",
]


@dataclass(frozen=True)
class AttentionSpan:
    """Slots one query may attend: virtual positions plus an attendable mask."""

    query_index: int
    key_indices: np.ndarray
    attendable: np.ndarray


@dataclass(frozen=True)
class CausalSpan(AttentionSpan):
    """Causal window slots plus the count of fully past projection segments."""

    past_segments: int


@lru_cache(maxsize=256)
def _window_indices_cached(padded_len: int, window: int, mode: str) -> np.ndarray:
    segments = padded_len // window
    starts = np.arange(segments) * window
    offset = window // 2 if mode == "bidirectional" else window
    out = starts[:, None] + np.arange(-offset, 2 * window - offset)[None, :]
    out.setflags(write=False)
    return out


def segment_window_indices(padded_len: int, window: int, mode: str) -> np.ndarray:
    """Virtual key positions per segment, shape (segments, 2w).

    Positions may fall outside [0, padded_len); callers mask them. Rows are
    contiguous runs: bidirectional segments are flanked by w/2 neighbours on
    each side, causal segments by w predecessors.
    """
    if window <= 0 or window % 2 != 0:
        raise ConfigError(f"window must be positive and even, got {window}")
    if padded_len % window != 0:
        raise ConfigError("padded_len must be a multiple of window")
    return _window_indices_cached(padded_len, window, mode)


def bidirectional_key_mask(indices: np.ndarray, seq_len: int) -> np.ndarray:
    """Attendable slots: in range and not padding. Shape (segments, 2w)."""
    return (indices >= 0) & (indices < seq_len)


@lru_cache(maxsize=256)
def _causal_mask_cached(padded_len: int, window: int, seq_len: int) -> np.ndarray:
    indices = _window_indices_cached(padded_len, window, "causal")
    out = causal_key_mask(np.asarray(indices), seq_len, window)
    out.setflags(write=False)
    return out


def causal_key_mask(indices: np.ndarray, seq_len: int, window: int) -> np.ndarray:
    """Per-query attendable slots, shape (segments, w, 2w).

    The first w slots are the tokens left of the home segment; the last w are
    the home segment itself, where a query at offset q may see offsets <= q.
    """
    segments = indices.shape[0]
    in_range = (indices >= 0) & (indices < seq_len)
    offsets = np.arange(window)
    not_future = np.concatenate(
        [np.ones((window, window), dtype=bool), offsets[None, :] <= offsets[:, None]],
        axis=1,
    )
    return in_range[:, None, :] & np.broadcast_to(not_future, (segments, window, 2 * window))


def window_span(t: int, cfg: LSConfig) -> AttentionSpan:
    """Bidirectional span of query t: home segment plus w/2 neighbours each side."""
    if cfg.mode != "bidirectional":
        raise ConfigError("window_span applies to bidirectional mode")
    if not 0 <= t < cfg.seq_len:
        raise ConfigError(f"query index {t} outside sequence of length {cfg.seq_len}")
    indices = segment_window_indices(cfg.padded_len, cfg.window, cfg.mode)
    segment = t // cfg.window
    row = indices[segment]
    return AttentionSpan(
        query_index=t,
        key_indices=row,
        attendable=bidirectional_key_mask(indices, cfg.seq_len)[segment],
    )


def causal_window_span(t: int, cfg: LSConfig) -> CausalSpan:
    """Causal span of query t: non-future home tokens plus w tokens to the left."""
    if cfg.mode != "causal":
        raise ConfigError("causal_window_span applies to causal mode")
    if not 0 <= t < cfg.seq_len:
        raise ConfigError(f"query index {t} outside sequence of length {cfg.seq_len}")
    indices = segment_window_indices(cfg.padded_len, cfg.window, cfg.mode)
    segment, offset = divmod(t, cfg.window)
    mask = causal_key_mask(indices, cfg.seq_len, cfg.window)[segment, offset]
    past = t // cfg.seg_len if cfg.rank > 0 else 0
    return CausalSpan(
        query_index=t,
        key_indices=indices[segment],
        attendable=mask,
        past_segments=past,
    )
