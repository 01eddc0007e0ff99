"""Causal attention: strict causality, segment projections, and oracles."""

import numpy as np
import pytest

from lsattn import (
    LSConfig,
    Rng,
    Tensor,
    aggregate_head,
    causal_aggregate_head,
    causal_full_attention_oracle,
    dynamic_projection,
    full_attention_head,
    gradients,
    init_head_params,
)
from lsattn.errors import ConfigError
from lsattn.tensor import mul, tensor_sum
from reference import layer_norm_reference, make_head, np_softmax, window_keys


def causal_cfg(n=8, d=4, w=2, r=1, l=4, dual=False):
    return LSConfig(
        seq_len=n, model_dim=d, heads=1, window=w, rank=r, seg_len=l,
        mode="causal", dual_ln=dual,
    )


def causal_oracle(x, p, cfg):
    """Per-query evaluation straight from the definitions."""
    n, w, r, l, dk = cfg.seq_len, cfg.window, cfg.rank, cfg.seg_len, cfg.head_dim
    k, v, q = x @ p.wk.data, x @ p.wv.data, x @ p.wq.data
    if cfg.dual_ln:
        k_loc, v_loc = layer_norm_reference(k), layer_norm_reference(v)
    else:
        k_loc, v_loc = k, v
    kbars, vbars = [], []
    if r > 0:
        for s in range(n // l):
            xs = x[s * l:(s + 1) * l]
            logits = xs @ p.wp.data
            ps = np.zeros_like(logits)
            for c in range(r):
                ps[:, c] = np_softmax(logits[:, c])
            kb, vb = ps.T @ k[s * l:(s + 1) * l], ps.T @ v[s * l:(s + 1) * l]
            if cfg.dual_ln:
                kb, vb = layer_norm_reference(kb), layer_norm_reference(vb)
            kbars.append(kb)
            vbars.append(vb)
    out = np.zeros_like(q)
    for t in range(n):
        keys = window_keys(t, cfg)
        klist, vlist = k_loc[keys], v_loc[keys]
        past = t // l if r > 0 else 0
        if past > 0:
            klist = np.concatenate([klist] + kbars[:past])
            vlist = np.concatenate([vlist] + vbars[:past])
        weights = np_softmax(q[t] @ klist.T / np.sqrt(dk))
        out[t] = weights @ vlist
    return out


class TestSegmentProjection:
    """Causally, dynamic_projection projects each seg_len block on its own."""

    def test_segment_columns_are_distributions(self):
        cfg = causal_cfg(n=12, w=2, r=2, l=4)
        p, x = make_head(cfg, seed=1)
        proj = dynamic_projection(x, p, cfg)
        assert proj.kbar.shape[-2] == 3 * cfg.rank
        for ps in proj.p.data.reshape(3, 4, 2):
            assert np.abs(ps.sum(axis=0) - 1.0).max() <= 1e-12
            assert (ps >= 0.0).all()

    def test_segment_locality_is_bitwise(self):
        cfg = causal_cfg(n=12, w=2, r=2, l=4)
        p, x = make_head(cfg, seed=2)
        base = dynamic_projection(x, p, cfg)
        x.data[0] += 3.0  # outside segment 1
        x.data[9] -= 2.0  # outside segment 1
        bumped = dynamic_projection(x, p, cfg)
        assert np.array_equal(base.p.data[4:8], bumped.p.data[4:8])
        assert np.array_equal(base.kbar.data[2:4], bumped.kbar.data[2:4])
        assert np.array_equal(base.vbar.data[2:4], bumped.vbar.data[2:4])

    def test_one_pass_equals_segment_at_a_time(self):
        cfg = causal_cfg(n=12, w=2, r=2, l=4)
        p, x = make_head(cfg, seed=3)
        whole = dynamic_projection(x, p, cfg)
        for s in range(3):
            cfg_one = causal_cfg(n=4, w=2, r=2, l=4)
            piece = dynamic_projection(Tensor(x.data[s * 4:(s + 1) * 4]), p, cfg_one)
            rows, slots = slice(s * 4, (s + 1) * 4), slice(s * 2, (s + 1) * 2)
            assert np.array_equal(whole.p.data[rows], piece.p.data)
            assert np.array_equal(whole.kbar.data[slots], piece.kbar.data)
            assert np.array_equal(whole.vbar.data[slots], piece.vbar.data)

    def test_keys_of_own_rows_and_padded_projection(self):
        # The last segment is partial: k and v are x@wk and x@wv of x's own
        # rows, and they are padded like x before they are projected.
        cfg = causal_cfg(n=10, w=2, r=2, l=4)
        p, x = make_head(cfg, seed=4)
        own = dynamic_projection(x, p, cfg)
        assert np.array_equal(own.k.data, x.data @ p.wk.data)
        assert np.array_equal(own.v.data, x.data @ p.wv.data)
        pad = np.zeros((cfg.padded_len - cfg.seq_len, cfg.model_dim))
        padded = dynamic_projection(Tensor(np.concatenate([x.data, pad])), p, cfg)
        for a, b in ((own.kbar, padded.kbar), (own.vbar, padded.vbar)):
            assert a.shape == b.shape == (3 * cfg.rank, cfg.head_dim)
            assert np.array_equal(a.data, b.data)


class TestCausalAggregate:
    def test_future_perturbations_never_leak(self):
        cfg = causal_cfg(n=8)
        p, x = make_head(cfg, seed=4)
        base = causal_aggregate_head(x, p, cfg).data.copy()
        for t in range(1, cfg.seq_len):
            bumped_x = Tensor(x.data.copy())
            bumped_x.data[t:] += 7.5
            bumped = causal_aggregate_head(bumped_x, p, cfg).data
            assert np.array_equal(base[:t], bumped[:t])

    def test_single_segment_means_window_only(self):
        cfg = causal_cfg(n=8, w=4, r=1, l=8)
        p, x = make_head(cfg, seed=5)
        out = causal_aggregate_head(x, p, cfg)
        window_only = causal_oracle(x.data, p, causal_cfg(n=8, w=4, r=0, l=8))
        assert np.abs(out.data - window_only).max() < 1e-12

    def test_early_queries_have_no_global_branch(self):
        cfg = causal_cfg(n=8, w=2, r=1, l=4)
        p, x = make_head(cfg, seed=6)
        _, info = causal_aggregate_head(x, p, cfg, return_weights=True)
        # Group 0 lacks global slots; group 1 sees exactly one past segment.
        projected = info.attendable[:, 2 * cfg.window:]
        assert not projected[:4].any()
        assert (projected[4:8].sum(axis=-1) == cfg.rank).all()

    def test_home_segment_is_excluded_from_global_branch(self):
        # The last token of projection segment 1 still sees only segment 0.
        cfg = causal_cfg(n=8, w=2, r=1, l=4)
        p, x = make_head(cfg, seed=14)
        out = causal_aggregate_head(x, p, cfg).data
        proj = dynamic_projection(x, p, cfg)
        q, k, v = (x.data @ weight.data for weight in (p.wq, p.wk, p.wv))
        for t in (5, 7):
            keys = window_keys(t, cfg)
            klist = np.concatenate([k[keys], proj.kbar.data[:cfg.rank]])
            vlist = np.concatenate([v[keys], proj.vbar.data[:cfg.rank]])
            ref = np_softmax(q[t] @ klist.T / np.sqrt(cfg.head_dim)) @ vlist
            assert np.abs(out[t] - ref).max() < 1e-12

    @pytest.mark.parametrize("n,w,r,l,dual", [
        (8, 2, 1, 4, False),
        (8, 2, 1, 4, True),
        (16, 4, 2, 4, True),
        (12, 2, 1, 2, False),
        (9, 4, 3, 4, True),
        (5, 4, 2, 2, True),
        (9, 2, 0, 8, True),
    ])
    def test_matches_stepwise_oracle(self, n, w, r, l, dual):
        cfg = causal_cfg(n=n, w=w, r=r, l=l, dual=dual)
        p, x = make_head(cfg, seed=7 + n + w + r + l)
        out = causal_aggregate_head(x, p, cfg)
        ref = causal_oracle(x.data, p, cfg)
        assert np.abs(out.data - ref).max() < 1e-12

    def test_row_stochasticity(self):
        cfg = causal_cfg(n=12, w=2, r=2, l=4, dual=True)
        p, x = make_head(cfg, seed=8)
        _, info = causal_aggregate_head(x, p, cfg, return_weights=True)
        assert np.abs(info.row_sums() - 1.0).max() <= 1e-12
        assert (info.weights[~np.broadcast_to(info.attendable, info.weights.shape)] == 0.0).all()

    @pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
    def test_aggregate_head_runs_causal_configs_bit_for_bit(self, dual):
        # The one long-short entry point reads the mode from the config;
        # the causal entry point only checks the mode before calling it.
        cfg = causal_cfg(n=12, w=2, r=2, l=4, dual=dual)
        rng = Rng(15)
        p = init_head_params(rng.child(0), cfg)
        x = Tensor(rng.child(1).normal((2, 12, cfg.model_dim)), requires_grad=True)
        probe = Tensor(rng.child(2).normal((2, 12, cfg.head_dim)))
        leaves = [x] + [t for _, t in p.named_parameters()]
        results = []
        for fn in (aggregate_head, causal_aggregate_head):
            out, info = fn(x, p, cfg, return_weights=True)
            grads = gradients(tensor_sum(mul(out, probe)), leaves)
            results.append([out.data, info.weights, info.attendable] + grads)
        assert all(np.array_equal(a, b) for a, b in zip(*results))
        assert np.abs(results[0][3]).max() > 0  # the gradient of x

    def test_causal_entry_point_rejects_bidirectional_config(self):
        cfg = LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=1)
        p, x = make_head(cfg, seed=16)
        with pytest.raises(ConfigError, match="causal"):
            causal_aggregate_head(x, p, cfg)

    def test_leading_batch_axis_matches_per_sequence(self):
        cfg = causal_cfg(n=12, w=2, r=2, l=4, dual=True)
        p, _ = make_head(cfg, seed=12)
        batch = Tensor(Rng(13).normal((3, 12, cfg.model_dim)))
        stacked = causal_aggregate_head(batch, p, cfg)
        for b in range(3):
            single = causal_aggregate_head(Tensor(batch.data[b]), p, cfg)
            assert np.abs(stacked.data[b] - single.data).max() < 1e-12


class TestCausalFullOracle:
    def test_single_token(self):
        cfg = causal_cfg(n=1, w=2, r=1, l=1)
        p, x = make_head(cfg, seed=9)
        out = causal_full_attention_oracle(x, p)
        assert np.array_equal(out.data, x.data @ p.wv.data)

    def test_rows_match_prefix_recomputation(self):
        cfg = causal_cfg(n=5, d=4)
        p, x = make_head(cfg, seed=10)
        out = causal_full_attention_oracle(x, p)
        for t in range(5):
            prefix = full_attention_head(Tensor(x.data[: t + 1]), p)
            assert np.abs(out.data[t] - prefix.data[t]).max() < 1e-12

    def test_strict_causality(self):
        cfg = causal_cfg(n=6, d=4)
        p, x = make_head(cfg, seed=11)
        base = causal_full_attention_oracle(x, p).data.copy()
        x.data[4:] *= -3.0
        bumped = causal_full_attention_oracle(x, p).data
        assert np.array_equal(base[:4], bumped[:4])

    def test_weights_are_lower_triangular_distributions(self):
        cfg = causal_cfg(n=6, d=4)
        p, x = make_head(cfg, seed=17)
        out, info = causal_full_attention_oracle(x, p, return_weights=True)
        assert np.array_equal(out.data, causal_full_attention_oracle(x, p).data)
        assert np.array_equal(info.attendable, np.tril(np.ones((6, 6), dtype=bool)))
        assert (info.weights[~info.attendable] == 0.0).all()
        assert (info.weights[info.attendable] > 0.0).all()
        assert np.abs(info.row_sums() - 1.0).max() <= 1e-12
