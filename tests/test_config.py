"""Configuration validation rules."""

import pytest

from lsattn import LSConfig
from lsattn.config import desk_causal_config
from lsattn.errors import ConfigError


def test_odd_window_rejected():
    with pytest.raises(ConfigError, match="even"):
        LSConfig(seq_len=8, model_dim=4, heads=1, window=3, rank=1)


def test_both_branches_empty_rejected():
    with pytest.raises(ConfigError):
        LSConfig(seq_len=8, model_dim=4, heads=1, window=0, rank=0)


def test_degenerate_single_branch_configs_are_legal():
    LSConfig(seq_len=8, model_dim=4, heads=1, window=0, rank=2)
    LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=0)
    # With no projection segments, the causal window need not cover half of one.
    LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=0, seg_len=8, mode="causal")


def test_causal_window_must_cover_half_segment():
    with pytest.raises(ConfigError, match="window >= seg_len/2"):
        LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=1,
                 seg_len=8, mode="causal")
    LSConfig(seq_len=8, model_dim=4, heads=1, window=4, rank=1,
             seg_len=8, mode="causal")


def test_negative_rank_rejected():
    with pytest.raises(ConfigError, match="rank must be non-negative"):
        LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=-1)


def test_causal_seg_len_must_be_positive():
    with pytest.raises(ConfigError, match="seg_len must be at least 1"):
        LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=1, seg_len=0, mode="causal")


def test_width_divisibility():
    with pytest.raises(ConfigError, match="divisible"):
        LSConfig(seq_len=8, model_dim=6, heads=4, window=2, rank=1)


def test_unknown_mode():
    with pytest.raises(ConfigError, match="mode"):
        LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=1, mode="sideways")


@pytest.mark.parametrize("n,w,l,mode,expected", [
    (8, 2, 1, "bidirectional", 8),
    (7, 2, 1, "bidirectional", 8),
    (9, 4, 1, "bidirectional", 12),
    (9, 4, 6, "causal", 12),     # lcm(4, 6) = 12
    (16, 4, 4, "causal", 16),
    (5, 0, 1, "bidirectional", 5),
])
def test_padded_len(n, w, l, mode, expected):
    rank = 1
    cfg = LSConfig(seq_len=n, model_dim=4, heads=1, window=w, rank=rank,
                   seg_len=l, mode=mode)
    assert cfg.padded_len == expected


def test_presets_shapes():
    desk = desk_causal_config()
    assert desk.window == 4 and desk.seg_len == 4 and desk.rank == 1
    assert desk.mode == "causal"
