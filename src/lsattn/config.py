"""Attention hyperparameters and their validity rules."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["LSConfig", "desk_causal_config"]

MODES = ("bidirectional", "causal")


@dataclass(frozen=True)
class LSConfig:
    """Shapes and switches shared by every attention call.

    seq_len:    number of real tokens n
    model_dim:  embedding width d, split evenly across heads
    heads:      head count h
    window:     sliding-window segment size w (even; 0 disables the branch)
    rank:       projected key/value count r (0 disables the branch)
    seg_len:    causal projection segment length l (causal mode only)
    mode:       "bidirectional" or "causal"
    dual_ln:    normalize window and projected key/value embeddings separately
    """

    seq_len: int
    model_dim: int
    heads: int
    window: int
    rank: int
    seg_len: int = 1
    mode: str = "bidirectional"
    dual_ln: bool = False

    def __post_init__(self):
        if self.seq_len < 1 or self.model_dim < 1:
            raise ConfigError("seq_len and model_dim must be at least 1")
        if self.heads < 1:
            raise ConfigError(f"heads must be positive, got {self.heads}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} must be divisible by heads {self.heads}")
        if self.window < 0 or self.window % 2 != 0:
            raise ConfigError(f"window must be even and non-negative, got {self.window}")
        if self.rank < 0:
            raise ConfigError("rank must be non-negative")
        if self.window == 0 and self.rank == 0:
            raise ConfigError("window and rank cannot both be 0")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "causal":
            if self.seg_len < 1:
                raise ConfigError("seg_len must be at least 1 in causal mode")
            if self.rank > 0 and 2 * self.window < self.seg_len:
                raise ConfigError(
                    f"causal mode requires window >= seg_len/2, got w={self.window}, l={self.seg_len}"
                )

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    @property
    def padded_len(self) -> int:
        """Sequence length after padding to whole segments."""
        multiple = 1
        if self.window > 0:
            multiple = self.window
        if self.mode == "causal" and self.rank > 0:
            multiple = math.lcm(multiple, self.seg_len)
        return -(-self.seq_len // multiple) * multiple

    @property
    def projected_slots(self) -> int:
        """Projected key/value rows: rank per projection segment (one bidirectionally)."""
        segments = self.padded_len // self.seg_len if self.mode == "causal" else 1
        return self.rank * segments


def desk_causal_config(seq_len: int = 64) -> LSConfig:
    """Small causal setup for tests and the toy language model."""
    return LSConfig(
        seq_len=seq_len,
        model_dim=32,
        heads=2,
        window=4,
        rank=1,
        seg_len=4,
        mode="causal",
        dual_ln=True,
    )

