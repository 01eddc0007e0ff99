"""Slot layout geometry: enumerated examples and counting rules."""

import numpy as np
import pytest

from lsattn import LSConfig
from lsattn.spans import slot_layout, window_offset


def layout_by_definition(cfg):
    """Window key positions and attendable mask, one slot at a time."""
    n, w, r, l = cfg.seq_len, cfg.window, cfg.rank, cfg.seg_len
    causal = cfg.mode == "causal"
    n_pad = cfg.padded_len
    size = w if w > 0 else n_pad
    offset = w if causal else w // 2
    slots = r * (n_pad // l) if causal else r
    keys = np.zeros((n_pad // size, 2 * w), dtype=int)
    mask = np.zeros((n_pad // size, size, 2 * w + slots), dtype=bool)
    for t in range(n_pad):
        group, row = divmod(t, size)
        for j in range(2 * w):
            pos = group * size + j - offset
            keys[group, j] = pos
            mask[group, row, j] = 0 <= pos < n and (not causal or pos <= t)
        for c in range(slots):
            mask[group, row, 2 * w + c] = not causal or c // r < t // l
    return keys, mask


def layout_row(t, cfg):
    """Window key positions of query t by definition, then its window and projected
    attendable masks from `slot_layout`."""
    keys, _ = layout_by_definition(cfg)
    attendable = slot_layout(cfg)
    group, row = divmod(t, attendable.shape[1])
    w2 = 2 * cfg.window
    return keys[group], attendable[group, row, :w2], attendable[group, row, w2:]


class TestBidirectionalSpan:
    def cfg(self, n=8, w=2):
        return LSConfig(seq_len=n, model_dim=4, heads=1, window=w, rank=0)

    def test_first_token_has_one_left_pad(self):
        keys, window, _ = layout_row(0, self.cfg())
        assert keys[window].tolist() == [0, 1, 2]
        assert keys.tolist() == [-1, 0, 1, 2]
        assert (~window).sum() == 1

    def test_interior_token_no_padding(self):
        keys, window, _ = layout_row(3, self.cfg())
        assert keys[window].tolist() == [1, 2, 3, 4]
        assert window.all()

    def test_window_equal_to_sequence(self):
        n = 8
        keys, window, _ = layout_row(5, self.cfg(n=n, w=n))
        assert keys[window].tolist() == list(range(n))
        assert (~window).sum() == n  # n/2 pads each side

    @pytest.mark.parametrize("n,w", [(8, 2), (12, 4), (16, 2), (7, 4)])
    def test_cardinality_and_boundary_masking(self, n, w):
        cfg = self.cfg(n=n, w=w)
        for t in range(n):
            keys, window, _ = layout_row(t, cfg)
            assert len(keys) == 2 * w
            assert (np.diff(keys) == 1).all()
            masked = keys[~window]
            assert ((masked < 0) | (masked >= n)).all()


class TestCausalSpan:
    def cfg(self, n=8, w=2, l=4, r=1):
        return LSConfig(
            seq_len=n, model_dim=4, heads=1, window=w, rank=r, seg_len=l, mode="causal"
        )

    def test_last_of_home_segment(self):
        keys, window, _ = layout_row(5, self.cfg())
        assert keys[window].tolist() == [2, 3, 4, 5]

    def test_first_of_home_segment(self):
        keys, window, _ = layout_row(4, self.cfg())
        assert keys[window].tolist() == [2, 3, 4]

    def test_sequence_start(self):
        keys, window, _ = layout_row(0, self.cfg())
        assert keys[window].tolist() == [0]
        out_of_range = keys < 0
        assert out_of_range.sum() == 2  # w pads to the left

    def test_no_future_keys_ever(self):
        cfg = self.cfg(n=16, w=4, l=4)
        for t in range(16):
            keys, window, _ = layout_row(t, cfg)
            assert max(keys[window].tolist(), default=-1) <= t
            assert len(keys) == 2 * cfg.window

    def test_past_segment_count(self):
        cfg = self.cfg(n=16, w=4, l=4)
        for t in range(16):
            _, _, projected = layout_row(t, cfg)
            assert projected.sum() == (t // 4) * cfg.rank

    @pytest.mark.parametrize("n,w,l,r", [(8, 2, 4, 1), (16, 4, 4, 2), (12, 4, 2, 1), (9, 2, 4, 3)])
    def test_effective_key_count(self, n, w, l, r):
        # Real attendable keys: non-future home tokens, plus up to w tokens
        # left of the home segment, plus r per fully past projection segment.
        cfg = self.cfg(n=n, w=w, l=l, r=r)
        for t in range(n):
            _, window, projected = layout_row(t, cfg)
            home_start = (t // w) * w
            expected_window = min(t + 1, t - home_start + 1) + min(w, home_start)
            assert window.sum() == expected_window
            assert projected.sum() == (t // l) * r


class TestSlotLayout:
    @pytest.mark.parametrize("mode,n,w,r,l", [
        ("bidirectional", 13, 4, 3, 4),  # padded tail
        ("causal", 13, 4, 3, 4),
        ("bidirectional", 5, 4, 2, 2),
        ("causal", 5, 4, 2, 2),          # a padding-only projection segment
        ("bidirectional", 13, 0, 3, 4),  # projection only
        ("bidirectional", 13, 4, 0, 4),  # window only
        ("causal", 13, 4, 0, 4),
    ])
    def test_matches_definition(self, mode, n, w, r, l):
        cfg = LSConfig(seq_len=n, model_dim=4, heads=1, window=w, rank=r, seg_len=l, mode=mode)
        mask = slot_layout(cfg)
        expected_keys, expected_mask = layout_by_definition(cfg)
        starts = np.arange(mask.shape[0]) * mask.shape[1] - window_offset(cfg)
        assert np.array_equal(starts[:, None] + np.arange(2 * w), expected_keys)
        assert np.array_equal(mask, expected_mask)
