"""Slot layout and window span geometry: enumerated examples and counting rules."""

import numpy as np
import pytest

from lsattn import LSConfig, causal_window_span, window_span
from lsattn.errors import ConfigError
from lsattn.spans import slot_layout


def real_keys(span):
    return span.key_indices[span.attendable].tolist()


class TestBidirectionalSpan:
    def cfg(self, n=8, w=2):
        return LSConfig(seq_len=n, model_dim=4, heads=1, window=w, rank=0)

    def test_first_token_has_one_left_pad(self):
        span = window_span(0, self.cfg())
        assert real_keys(span) == [0, 1, 2]
        assert span.key_indices.tolist() == [-1, 0, 1, 2]
        assert (~span.attendable).sum() == 1

    def test_interior_token_no_padding(self):
        span = window_span(3, self.cfg())
        assert real_keys(span) == [1, 2, 3, 4]
        assert span.attendable.all()

    def test_window_equal_to_sequence(self):
        n = 8
        span = window_span(5, self.cfg(n=n, w=n))
        assert real_keys(span) == list(range(n))
        assert (~span.attendable).sum() == n  # n/2 pads each side

    @pytest.mark.parametrize("n,w", [(8, 2), (12, 4), (16, 2), (7, 4)])
    def test_cardinality_and_boundary_masking(self, n, w):
        cfg = self.cfg(n=n, w=w)
        for t in range(n):
            span = window_span(t, cfg)
            assert len(span.key_indices) == 2 * w
            assert (np.diff(span.key_indices) == 1).all()
            masked = span.key_indices[~span.attendable]
            assert ((masked < 0) | (masked >= n)).all()

    def test_query_out_of_range(self):
        with pytest.raises(ConfigError):
            window_span(8, self.cfg())


class TestCausalSpan:
    def cfg(self, n=8, w=2, l=4, r=1):
        return LSConfig(
            seq_len=n, model_dim=4, heads=1, window=w, rank=r, seg_len=l, mode="causal"
        )

    def test_last_of_home_segment(self):
        span = causal_window_span(5, self.cfg())
        assert real_keys(span) == [2, 3, 4, 5]

    def test_first_of_home_segment(self):
        span = causal_window_span(4, self.cfg())
        assert real_keys(span) == [2, 3, 4]

    def test_sequence_start(self):
        span = causal_window_span(0, self.cfg())
        assert real_keys(span) == [0]
        out_of_range = span.key_indices < 0
        assert out_of_range.sum() == 2  # w pads to the left

    def test_no_future_keys_ever(self):
        cfg = self.cfg(n=16, w=4, l=4)
        for t in range(16):
            span = causal_window_span(t, cfg)
            assert max(real_keys(span), default=-1) <= t
            assert len(span.key_indices) == 2 * cfg.window

    def test_past_segment_count(self):
        cfg = self.cfg(n=16, w=4, l=4)
        for t in range(16):
            assert causal_window_span(t, cfg).past_segments == t // 4

    @pytest.mark.parametrize("n,w,l,r", [(8, 2, 4, 1), (16, 4, 4, 2), (12, 4, 2, 1), (9, 2, 4, 3)])
    def test_effective_key_count(self, n, w, l, r):
        # Real attendable keys: non-future home tokens, plus up to w tokens
        # left of the home segment, plus r per fully past projection segment.
        cfg = self.cfg(n=n, w=w, l=l, r=r)
        for t in range(n):
            span = causal_window_span(t, cfg)
            home_start = (t // w) * w
            expected_window = min(t + 1, t - home_start + 1) + min(w, home_start)
            assert span.attendable.sum() == expected_window
            assert span.past_segments * r == (t // l) * r


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
        keys, mask = slot_layout(cfg)
        expected_keys, expected_mask = layout_by_definition(cfg)
        assert np.array_equal(keys, expected_keys)
        assert np.array_equal(mask, expected_mask)
