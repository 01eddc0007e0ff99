"""Bidirectional attention variants against independent numpy oracles."""

from dataclasses import replace

import numpy as np
import pytest

from lsattn import (
    LSConfig,
    Rng,
    Tensor,
    aggregate_head,
    causal_aggregate_head,
    dynamic_projection,
    full_attention_head,
    init_multi_head_params,
    matmul,
    multi_head,
)
from lsattn.errors import ShapeError
from reference import layer_norm_reference, make_head, np_softmax, window_keys


def full_attention_reference(x, wq, wk, wv):
    """Scalar-arithmetic attention: one query row at a time."""
    q, k, v = x @ wq, x @ wk, x @ wv
    dk = wq.shape[1]
    out = np.zeros_like(q)
    for t in range(x.shape[0]):
        logits = np.array([q[t] @ k[j] / np.sqrt(dk) for j in range(x.shape[0])])
        out[t] = np_softmax(logits) @ v
    return out


def projection_reference(x, wp, wk, wv):
    """Column-wise token distributions and the compressed keys/values."""
    logits = x @ wp
    p = np.zeros_like(logits)
    for c in range(logits.shape[1]):
        p[:, c] = np_softmax(logits[:, c])
    return p, p.T @ (x @ wk), p.T @ (x @ wv)


class TestFullAttention:
    def test_single_token_passes_values_through(self):
        cfg = LSConfig(seq_len=1, model_dim=4, heads=1, window=0, rank=1)
        p, x = make_head(cfg)
        out = full_attention_head(x, p)
        assert np.array_equal(out.data, (x.data @ p.wv.data))

    def test_zero_query_weights_give_uniform_attention(self):
        cfg = LSConfig(seq_len=6, model_dim=4, heads=1, window=0, rank=1)
        p, x = make_head(cfg)
        p.wq.data[:] = 0.0
        out = full_attention_head(x, p)
        mean_row = (x.data @ p.wv.data).mean(axis=0)
        assert np.abs(out.data - mean_row).max() < 1e-14

    def test_matches_scalar_reference(self):
        cfg = LSConfig(seq_len=3, model_dim=2, heads=1, window=0, rank=1)
        p, x = make_head(cfg, seed=3)
        out = full_attention_head(x, p)
        ref = full_attention_reference(x.data, p.wq.data, p.wk.data, p.wv.data)
        assert np.abs(out.data - ref).max() < 1e-12

    def test_rows_sum_to_one(self):
        cfg = LSConfig(seq_len=5, model_dim=4, heads=1, window=0, rank=1)
        p, x = make_head(cfg, seed=1)
        _, info = full_attention_head(x, p, return_weights=True)
        assert np.abs(info.row_sums() - 1.0).max() <= 1e-12


class TestMultiHead:
    def test_single_head_identity_output_projection(self):
        cfg = LSConfig(seq_len=4, model_dim=4, heads=1, window=0, rank=2)
        rng = Rng(2)
        mh = init_multi_head_params(rng, cfg)
        mh.wo.data[:] = np.eye(4)
        x = Tensor(Rng(7).normal((4, 4)))
        out = multi_head(x, mh, full_attention_head)
        single = full_attention_head(x, mh.heads[0])
        assert np.array_equal(out.data, single.data)

    def test_identical_heads_produce_identical_halves(self):
        cfg = LSConfig(seq_len=4, model_dim=4, heads=2, window=0, rank=1)
        rng = Rng(3)
        mh = init_multi_head_params(rng, cfg)
        for name in ("wq", "wk", "wv"):
            getattr(mh.heads[1], name).data[:] = getattr(mh.heads[0], name).data
        mh.wo.data[:] = np.eye(4)
        x = Tensor(Rng(8).normal((4, 4)))
        out = multi_head(x, mh, full_attention_head).data
        assert np.array_equal(out[:, :2], out[:, 2:])

    def test_matches_concat_matmul_reference(self):
        cfg = LSConfig(seq_len=5, model_dim=6, heads=2, window=0, rank=1)
        rng = Rng(4)
        mh = init_multi_head_params(rng, cfg)
        x = Tensor(Rng(9).normal((5, 6)))
        out = multi_head(x, mh, full_attention_head)
        heads = [
            full_attention_reference(x.data, h.wq.data, h.wk.data, h.wv.data)
            for h in mh.heads
        ]
        ref = np.concatenate(heads, axis=-1) @ mh.wo.data
        assert np.abs(out.data - ref).max() < 1e-12

    def test_head_evaluation_order_is_irrelevant(self):
        cfg = LSConfig(seq_len=6, model_dim=8, heads=4, window=2, rank=2)
        rng = Rng(5)
        mh = init_multi_head_params(rng, cfg)
        x = Tensor(Rng(10).normal((6, 8)))
        in_order = [aggregate_head(x, h, cfg).data for h in mh.heads]
        reversed_eval = [aggregate_head(x, h, cfg).data for h in reversed(mh.heads)]
        for a, b in zip(in_order, reversed(reversed_eval)):
            assert np.array_equal(a, b)


class TestSlidingWindow:
    def windowed_oracle(self, x, p, cfg):
        """Full logits with excluded positions dropped per query."""
        q, k, v = x @ p.wq.data, x @ p.wk.data, x @ p.wv.data
        dk = cfg.head_dim
        out = np.zeros_like(q)
        for t in range(cfg.seq_len):
            keys = window_keys(t, cfg)
            logits = q[t] @ k[keys].T / np.sqrt(dk)
            out[t] = np_softmax(logits) @ v[keys]
        return out

    def test_whole_sequence_window_equals_full_attention(self):
        cfg = LSConfig(seq_len=8, model_dim=4, heads=1, window=8, rank=0)
        p, x = make_head(cfg, seed=6)
        windowed = aggregate_head(x, p, cfg)
        full = full_attention_head(x, p)
        assert np.abs(windowed.data - full.data).max() < 1e-12

    def test_locality_is_bitwise(self):
        # For every query whose window has a key outside it on both sides,
        # bumping the first key past either edge leaves the query's row
        # bit-identical, and bumping the key at either edge changes it.
        for mode, head in (("bidirectional", aggregate_head), ("causal", causal_aggregate_head)):
            cfg = LSConfig(seq_len=16, model_dim=4, heads=1, window=4, rank=0, mode=mode)
            p, x = make_head(cfg, seed=7)
            base = head(x, p, cfg).data
            queries = 0
            for t in range(cfg.seq_len):
                keys = window_keys(t, cfg)
                lo, hi = int(keys[0]), int(keys[-1])
                if lo == 0 or hi == cfg.seq_len - 1:
                    continue
                for j, inside in ((lo - 1, False), (hi + 1, False), (lo, True), (hi, True)):
                    bumped = Tensor(x.data.copy())
                    bumped.data[j] += 10.0
                    row = head(bumped, p, cfg).data[t]
                    assert np.array_equal(row, base[t]) != inside, (mode, t, j)
                queries += 1
            assert queries >= 6, mode

    @pytest.mark.parametrize("n,w", [(8, 2), (8, 4), (12, 2), (10, 4)])
    def test_matches_masked_oracle(self, n, w):
        cfg = LSConfig(seq_len=n, model_dim=4, heads=1, window=w, rank=0)
        p, x = make_head(cfg, seed=n + w)
        out = aggregate_head(x, p, cfg)
        ref = self.windowed_oracle(x.data, p, cfg)
        assert np.abs(out.data - ref).max() < 1e-12


class TestDynamicProjection:
    def cfg(self, n=4, d=2, r=2):
        return LSConfig(seq_len=n, model_dim=d, heads=1, window=0, rank=r)

    def test_identical_rows_give_uniform_distributions(self):
        cfg = self.cfg(n=5, d=4, r=3)
        p, _ = make_head(cfg, seed=11)
        row = Rng(12).normal((1, 4))
        x = Tensor(np.repeat(row, 5, axis=0))
        pkv = dynamic_projection(x, p, cfg)
        assert np.abs(pkv.p.data - 0.2).max() < 1e-12
        expected = row @ p.wk.data
        assert np.abs(pkv.kbar.data - expected).max() < 1e-12

    def test_columns_are_distributions(self):
        cfg = self.cfg(n=9, d=4, r=3)
        p, x = make_head(cfg, seed=13)
        pkv = dynamic_projection(x, p, cfg)
        assert np.abs(pkv.p.data.sum(axis=0) - 1.0).max() <= 1e-12
        assert (pkv.p.data >= 0.0).all()

    def test_matches_scalar_reference(self):
        cfg = self.cfg()
        p, x = make_head(cfg, seed=14)
        pkv = dynamic_projection(x, p, cfg)
        pref, kref, vref = projection_reference(x.data, p.wp.data, p.wk.data, p.wv.data)
        assert np.abs(pkv.p.data - pref).max() < 1e-12
        assert np.abs(pkv.kbar.data - kref).max() < 1e-12
        assert np.abs(pkv.vbar.data - vref).max() < 1e-12

    def test_rank_zero_sentinel(self):
        cfg = LSConfig(seq_len=4, model_dim=2, heads=1, window=2, rank=0)
        p, x = make_head(cfg, seed=15)
        assert p.wp.shape == (2, 0)
        assert "wp" not in dict(p.named_parameters())
        pkv = dynamic_projection(x, p, cfg)
        assert pkv.p.shape == (4, 0)
        assert pkv.kbar.shape == (0, 2)

    @pytest.mark.parametrize("rank,cfg_rank", [(0, 2), (2, 3)])
    def test_projection_matrix_of_another_rank_rejected(self, rank, cfg_rank):
        cfg = LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=cfg_rank)
        p, x = make_head(replace(cfg, rank=rank), seed=22)
        for call in (dynamic_projection, aggregate_head):
            with pytest.raises(ShapeError):
                call(x, p, cfg)

    @pytest.mark.parametrize("rows", [10, 14])
    def test_rows_other_than_real_or_padded_rejected(self, rows):
        cfg = LSConfig(seq_len=12, model_dim=4, heads=1, window=8, rank=2)
        p, _ = make_head(cfg, seed=21)
        for ok in (cfg.seq_len, cfg.padded_len):
            assert dynamic_projection(Tensor(np.ones((ok, 4))), p, cfg).kbar.shape == (2, 4)
        with pytest.raises(ShapeError):
            dynamic_projection(Tensor(np.ones((rows, 4))), p, cfg)

    def test_permutation_covariance(self):
        cfg = self.cfg(n=7, d=4, r=2)
        p, x = make_head(cfg, seed=16)
        pkv = dynamic_projection(x, p, cfg)
        perm = Rng(17).permutation(7)
        pkv_perm = dynamic_projection(Tensor(x.data[perm]), p, cfg)
        assert np.abs(pkv_perm.p.data - pkv.p.data[perm]).max() < 1e-12
        assert np.abs(pkv_perm.kbar.data - pkv.kbar.data).max() < 1e-12
        assert np.abs(pkv_perm.vbar.data - pkv.vbar.data).max() < 1e-12


class TestInputChecks:
    CFG = LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=2)

    @pytest.mark.parametrize("shape,cfg,match", [
        ((4,), CFG, "attention input must be"),
        ((8, 6), CFG, "input width 6"),
        ((7, 4), CFG, "input length 7"),
        ((8, 4), replace(CFG, heads=2), "head parameters do not match"),
    ], ids=["one-dim", "width", "rows", "other-config"])
    def test_bad_input_rejected(self, shape, cfg, match):
        p, _ = make_head(self.CFG, seed=23)
        with pytest.raises(ShapeError, match=match):
            aggregate_head(Tensor(np.ones(shape)), p, cfg)


class TestLongRange:
    def test_rank_one_replicates_projected_value(self):
        cfg = LSConfig(seq_len=5, model_dim=4, heads=1, window=0, rank=1)
        p, x = make_head(cfg, seed=18)
        pkv = dynamic_projection(x, p, cfg)
        out = aggregate_head(x, p, cfg)
        assert np.abs(out.data - pkv.vbar.data[0]).max() < 1e-14

    def test_zero_queries_average_projected_values(self):
        cfg = LSConfig(seq_len=5, model_dim=4, heads=1, window=0, rank=3)
        p, x = make_head(cfg, seed=19)
        p.wq.data[:] = 0.0
        pkv = dynamic_projection(x, p, cfg)
        out = aggregate_head(x, p, cfg)
        assert np.abs(out.data - pkv.vbar.data.mean(axis=0)).max() < 1e-14

    def test_matches_composed_primitives(self):
        cfg = LSConfig(seq_len=4, model_dim=4, heads=1, window=0, rank=2)
        p, x = make_head(cfg, seed=20)
        out = aggregate_head(x, p, cfg)
        pref, kref, vref = projection_reference(x.data, p.wp.data, p.wk.data, p.wv.data)
        q = x.data @ p.wq.data
        ref = np_softmax(q @ kref.T / np.sqrt(cfg.head_dim)) @ vref
        assert np.abs(out.data - ref).max() < 1e-12


class TestAggregation:
    def aggregated_oracle(self, x, p, cfg, dual):
        """Stepwise per-query evaluation with plain numpy."""
        n, w, r, dk = cfg.seq_len, cfg.window, cfg.rank, cfg.head_dim
        k, v = x @ p.wk.data, x @ p.wv.data
        q = x @ p.wq.data
        if dual:
            k_loc, v_loc = layer_norm_reference(k), layer_norm_reference(v)
        else:
            k_loc, v_loc = k, v
        if r > 0:
            pref, kbar, vbar = projection_reference(x, p.wp.data, p.wk.data, p.wv.data)
            if dual:
                kbar, vbar = layer_norm_reference(kbar), layer_norm_reference(vbar)
        else:
            kbar = np.zeros((0, dk))
            vbar = np.zeros((0, dk))
        out = np.zeros_like(q)
        for t in range(n):
            keys = window_keys(t, cfg)
            klist = np.concatenate([k_loc[keys], kbar], axis=0)
            vlist = np.concatenate([v_loc[keys], vbar], axis=0)
            weights = np_softmax(q[t] @ klist.T / np.sqrt(dk))
            out[t] = weights @ vlist
        return out

    def test_whole_window_no_rank_equals_full_attention(self):
        cfg = LSConfig(seq_len=8, model_dim=4, heads=1, window=8, rank=0)
        p, x = make_head(cfg, seed=23)
        agg = aggregate_head(x, p, cfg)
        full = full_attention_head(x, p)
        assert np.abs(agg.data - full.data).max() < 1e-12

    @pytest.mark.parametrize("n,w,r", [(8, 2, 3), (8, 4, 1), (12, 2, 2), (9, 2, 3)])
    def test_plain_matches_stepwise_oracle(self, n, w, r):
        cfg = LSConfig(seq_len=n, model_dim=4, heads=1, window=w, rank=r)
        p, x = make_head(cfg, seed=24 + n + w + r)
        out = aggregate_head(x, p, cfg)
        ref = self.aggregated_oracle(x.data, p, cfg, dual=False)
        assert np.abs(out.data - ref).max() < 1e-12

    @pytest.mark.parametrize("n,w,r", [(8, 2, 3), (8, 4, 2), (10, 2, 1)])
    def test_dualln_matches_stepwise_oracle(self, n, w, r):
        cfg = LSConfig(seq_len=n, model_dim=4, heads=1, window=w, rank=r, dual_ln=True)
        p, x = make_head(cfg, seed=40 + n + w + r)
        out = aggregate_head(x, p, cfg)
        ref = self.aggregated_oracle(x.data, p, cfg, dual=True)
        assert np.abs(out.data - ref).max() < 1e-12

    def test_dualln_key_rows_share_norm_at_init(self):
        # Unit gain and zero bias force every normalized key row to norm
        # sqrt(dk) up to the eps shrinkage.
        cfg = LSConfig(seq_len=8, model_dim=8, heads=2, window=2, rank=3, dual_ln=True)
        p, x = make_head(cfg, seed=25)
        k = matmul(x, p.wk).data
        pref, kbar, _ = projection_reference(x.data, p.wp.data, p.wk.data, p.wv.data)
        rows = np.concatenate([layer_norm_reference(k), layer_norm_reference(kbar)])
        norms = np.sqrt((rows**2).sum(axis=-1))
        assert np.abs(norms - np.sqrt(cfg.head_dim)).max() < 1e-4

    def test_dualln_rank_zero_is_window_on_normalized_kv(self):
        cfg = LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=0, dual_ln=True)
        p, x = make_head(cfg, seed=26)
        out = aggregate_head(x, p, cfg)
        ref = self.aggregated_oracle(x.data, p, LSConfig(
            seq_len=8, model_dim=4, heads=1, window=2, rank=0), dual=True)
        assert np.abs(out.data - ref).max() < 1e-12

    def test_reference_layout_with_odd_width(self):
        # Window 2 with three projected slots on an 8-token, width-3 input.
        cfg = LSConfig(seq_len=8, model_dim=3, heads=1, window=2, rank=3, dual_ln=True)
        p, x = make_head(cfg, seed=60)
        out = aggregate_head(x, p, cfg)
        ref = self.aggregated_oracle(x.data, p, cfg, dual=True)
        assert np.abs(out.data - ref).max() < 1e-12

    @pytest.mark.parametrize("variant", ["plain", "dual"])
    def test_row_stochasticity(self, variant):
        cfg = LSConfig(seq_len=10, model_dim=4, heads=1, window=2, rank=2,
                       dual_ln=variant == "dual")
        p, x = make_head(cfg, seed=27)
        _, info = aggregate_head(x, p, cfg, return_weights=True)
        assert np.abs(info.row_sums() - 1.0).max() <= 1e-12

    def test_leading_batch_axis_matches_per_sequence(self):
        cfg = LSConfig(seq_len=10, model_dim=4, heads=1, window=2, rank=2, dual_ln=True)
        p, _ = make_head(cfg, seed=62)
        batch = Tensor(Rng(63).normal((3, 10, 4)))
        stacked, info = aggregate_head(batch, p, cfg, return_weights=True)
        assert np.abs(info.row_sums() - 1.0).max() <= 1e-12
        for b in range(3):
            single = aggregate_head(Tensor(batch.data[b]), p, cfg)
            assert np.abs(stacked.data[b] - single.data).max() < 1e-12
