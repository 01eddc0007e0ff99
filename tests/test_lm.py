"""Byte-level language model: structure, metrics, determinism, causality, memory."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from lsattn import LSConfig, Rng, gradients, lm, no_grad, track_peak_bytes
from lsattn.config import desk_causal_config
from lsattn.errors import ConfigError, DivergenceError, ShapeError
from lsattn.lm import (
    ModelConfig,
    _sample_batch,
    build_model,
    evaluate_bpc,
    forward_logits,
    param_count,
    train,
)
from test_multi_head import graph_nodes


def toy_config(**overrides) -> ModelConfig:
    defaults = dict(
        attention=desk_causal_config(),
        layers=2, ffn_dim=64, learning_rate=0.5, steps=30, batch_size=4, seed=0,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def closed_form_param_count(cfg: ModelConfig) -> int:
    a = cfg.attention
    d, dk, h, r, n = a.model_dim, a.head_dim, a.heads, a.rank, a.seq_len
    per_head = 3 * d * dk + d * r + 4 * dk
    per_layer = (
        2 * d                      # attention layer norm
        + h * per_head + d * d     # heads and output projection
        + 2 * d                    # feed-forward layer norm
        + d * cfg.ffn_dim + cfg.ffn_dim
        + cfg.ffn_dim * d + d
    )
    return (
        cfg.vocab_size * d + n * d
        + cfg.layers * per_layer
        + 2 * d
        + d * cfg.vocab_size + cfg.vocab_size
    )


class TestModelStructure:
    def test_parameter_count_matches_closed_form(self):
        cfg = toy_config()
        model = build_model(cfg, Rng(0))
        assert param_count(model) == closed_form_param_count(cfg)

    def test_same_seed_same_init(self):
        cfg = toy_config()
        a = build_model(cfg, Rng(5))
        b = build_model(cfg, Rng(5))
        for (name_a, ta), (name_b, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data)

    def test_width_must_divide_heads(self):
        with pytest.raises(ConfigError):
            LSConfig(seq_len=8, model_dim=30, heads=4, window=4, rank=1,
                     seg_len=4, mode="causal")

    def test_bidirectional_attention_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(attention=LSConfig(seq_len=8, model_dim=8, heads=1, window=2, rank=1))


class TestModelConfigRules:
    @pytest.mark.parametrize("override", [
        {"steps": -1}, {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"learning_rate": 0.0}, {"learning_rate": -0.5}, {"dropout": -0.1}, {"dropout": 1.0},
    ])
    def test_schedule_rules(self, override):
        with pytest.raises(ConfigError, match=next(iter(override))):
            toy_config(**override)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            train(toy_config(seed=-3), np.zeros(1000, dtype=np.uint8))


class TestEvaluateBpc:
    def test_untrained_model_scores_uniform(self):
        # The output head starts at zero, so logits are uniform: log2(256) bits.
        cfg = toy_config()
        model = build_model(cfg, Rng(1))
        data = Rng(2).integers(0, 256, size=5000).astype(np.uint8)
        assert abs(evaluate_bpc(model, data) - 8.0) < 1e-12

    def test_confident_correct_logits_score_zero(self):
        from lsattn.tensor import Tensor, cross_entropy_mean

        targets = np.array([3, 1, 2])
        logits = np.full((3, 5), -1000.0)
        logits[np.arange(3), targets] = 1000.0
        loss = cross_entropy_mean(Tensor(logits), targets)
        assert loss.item() < 1e-12

    def test_matches_scalar_recomputation(self):
        cfg = toy_config()
        model = build_model(cfg, Rng(3))
        n = cfg.seq_len
        data = Rng(4).integers(0, 256, size=n + 1).astype(np.uint8)
        got = evaluate_bpc(model, data)
        with no_grad():
            logits = forward_logits(model, data[None, :-1]).data[0]
        total = 0.0
        for t in range(n):
            row = logits[t]
            m = row.max()
            lse = m + math.log(np.exp(row - m).sum())
            total += lse - row[data[t + 1]]
        assert abs(got - total / n / math.log(2)) < 1e-12

    def test_three_byte_slice_scalar_recomputation(self):
        # Smallest causal setup: two-token windows over a three-byte slice.
        attn = LSConfig(seq_len=2, model_dim=8, heads=1, window=2, rank=1,
                        seg_len=2, mode="causal")
        cfg = toy_config(attention=attn, ffn_dim=8)
        model = build_model(cfg, Rng(11))
        data = np.array([10, 200, 47], dtype=np.uint8)
        got = evaluate_bpc(model, data)
        with no_grad():
            logits = forward_logits(model, data[None, :2]).data[0]
        total = 0.0
        for t in range(2):
            row = logits[t]
            m = row.max()
            total += m + math.log(np.exp(row - m).sum()) - row[data[t + 1]]
        assert abs(got - total / 2 / math.log(2)) < 1e-12

    def test_multi_chunk_split_is_the_mean_over_windows(self):
        # A split of 2 chunks plus 3 windows, against each window scored alone.
        attn = LSConfig(seq_len=4, model_dim=8, heads=1, window=2, rank=1,
                        seg_len=2, mode="causal")
        cfg = toy_config(attention=attn, ffn_dim=8)
        model = build_model(cfg, Rng(12))
        n, windows = cfg.seq_len, 2 * lm.EVAL_CHUNK_ROWS + 3
        data = Rng(13).integers(0, 256, size=windows * n + 1).astype(np.uint8)
        per_window = []
        for i in range(windows):
            row = data[i * n : i * n + n + 1]
            with no_grad():
                logits = forward_logits(model, row[None, :-1]).data[0]
            m = logits.max(axis=-1)
            lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=-1))
            per_window.append((lse - logits[np.arange(n), row[1:]]).mean())
        expected = math.fsum(per_window) / windows / math.log(2)
        assert abs(evaluate_bpc(model, data) - expected) < 1e-12

    def test_memory_does_not_grow_with_the_split(self):
        cfg = toy_config(attention=desk_causal_config(seq_len=8), ffn_dim=8)
        model = build_model(cfg, Rng(14))
        peaks = []
        for chunks in (1, 4):
            data = Rng(15).integers(0, 256, size=chunks * lm.EVAL_CHUNK_ROWS * 8 + 1)
            with track_peak_bytes() as tracker:
                evaluate_bpc(model, data.astype(np.uint8))
            peaks.append(tracker.peak)
        assert peaks[1] < 1.2 * peaks[0], peaks

    def test_slice_too_short_rejected(self):
        cfg = toy_config()
        model = build_model(cfg, Rng(5))
        with pytest.raises(ConfigError):
            evaluate_bpc(model, np.zeros(10, dtype=np.uint8))


class TestTraining:
    def test_deterministic_given_seed(self):
        corpus = Rng(6).integers(0, 4, size=4000).astype(np.uint8) + 97
        cfg = toy_config(steps=12)
        _, first = train(cfg, corpus)
        _, second = train(cfg, corpus)
        assert first.train_losses == second.train_losses
        assert first.val_bpcs == second.val_bpcs
        assert first.final_val_bpc == second.final_val_bpc

    def test_batches_reach_the_last_offset(self):
        n = 8
        batch = _sample_batch(np.arange(n + 2), n, 64, Rng(9))
        assert set(batch[:, 0].tolist()) == {0, 1}

    def test_validation_batch_comes_from_the_validation_split(self):
        # 160 bytes at n = 16 leave a validation split of exactly n + 1 bytes:
        # one window, so the per-step validation batch repeats it and the last
        # step's val_bpc equals the final score of the whole split.
        corpus = Rng(10).integers(0, 256, size=160).astype(np.uint8)
        cfg = toy_config(attention=desk_causal_config(seq_len=16), steps=2)
        _, report = train(cfg, corpus)
        assert abs(report.val_bpcs[-1] - report.final_val_bpc) < 1e-12

    def test_divergence_aborts_with_diagnostic(self):
        corpus = Rng(7).integers(0, 256, size=4000).astype(np.uint8)
        cfg = toy_config(steps=50, learning_rate=1e9)
        with pytest.raises(DivergenceError):
            with np.errstate(all="ignore"):
                train(cfg, corpus)

    def test_small_corpus_rejected(self):
        cfg = toy_config()
        with pytest.raises(ConfigError):
            train(cfg, np.zeros(100, dtype=np.uint8))

    # seq_len 1 is the shortest a causal config admits.
    @pytest.mark.parametrize("seq_len", [1, 64])
    def test_ten_windows_are_enough(self, seq_len):
        cfg = toy_config(attention=desk_causal_config(seq_len=seq_len), steps=1)
        corpus = Rng(11).integers(0, 256, size=10 * seq_len).astype(np.uint8)
        _, report = train(cfg, corpus)
        assert len(report.steps) == 1 and math.isfinite(report.final_val_bpc)
        with pytest.raises(ConfigError, match=f"at least {10 * seq_len} bytes"):
            train(cfg, corpus[:-1])

    def test_bytes_corpus_matches_uint8_array(self):
        corpus = Rng(12).integers(0, 256, size=700).astype(np.uint8)
        cfg = toy_config(steps=2)
        model, from_array = train(cfg, corpus)
        _, from_bytes = train(cfg, corpus.tobytes())
        assert from_bytes.train_losses == from_array.train_losses
        assert from_bytes.val_bpcs == from_array.val_bpcs
        assert from_bytes.final_val_bpc == from_array.final_val_bpc
        assert evaluate_bpc(model, corpus.tobytes()) == evaluate_bpc(model, corpus)

    def test_token_ids_validated(self):
        cfg = toy_config()
        model = build_model(cfg, Rng(8))
        bad = np.full((1, cfg.seq_len), 300)
        with pytest.raises(ShapeError):
            forward_logits(model, bad)


class TestCausalityEndToEnd:
    def test_future_tokens_cannot_move_logits(self):
        cfg = toy_config()
        model = build_model(cfg, Rng(9))
        tokens = Rng(10).integers(0, 256, size=(1, cfg.seq_len))
        with no_grad():
            base = forward_logits(model, tokens).data.copy()
        for t in (8, 32, 63):
            bumped = tokens.copy()
            bumped[0, t] = (bumped[0, t] + 13) % 256
            with no_grad():
                out = forward_logits(model, bumped).data
            assert np.array_equal(base[0, :t], out[0, :t])


# The perfbench `lm-train` step for the memory tests below: batch 8, n = 64,
# d = 32, 2 layers, 2 heads of width 16, w = 2, r = 4, l = 4, dual LN, FFN 64.
B, N, D, H, DK, W, R, L, F, V, LAYERS = 8, 64, 32, 2, 16, 2, 4, 4, 64, 256, 2
F8 = 8
ROWS = B * N * D * F8  # one (B, n, d) array, or one (B, h, n, d_k) array
SLOTS = (N // L) * R
STEP_ATTENTION = LSConfig(seq_len=N, model_dim=D, heads=H, window=W, rank=R, seg_len=L,
                          mode="causal", dual_ln=True)
# What one training step's graph holds after the forward pass, from the
# shapes. The token ids are made before the step and are not counted.
READ_BY_BACKWARD = {
    "embedding sum, each block's middle and output (layer norm inputs)": (1 + 2 * LAYERS) * ROWS,
    "block and final layer norm outputs": (2 * LAYERS + 1) * ROWS,
    "q, k, v and the normed window k, v": 5 * LAYERS * ROWS,
    "projected k, v before and after their norm": 4 * LAYERS * B * H * SLOTS * DK * F8,
    "projection weights (B, h, segments, r, l)": LAYERS * B * H * N * R * F8,
    "attention weights": LAYERS * B * H * N * (2 * W + SLOTS) * F8,
    "attend output": LAYERS * ROWS,
    "relu outputs": LAYERS * B * N * F * F8,
    "logits": B * N * V * F8,
    "norm row means and 1/sigma": 2 * F8 * ((2 * LAYERS + 1) * B * N
                                           + LAYERS * 2 * B * H * (N + SLOTS)),
    "log-sum-exp of each logits row": B * N * F8,
}
# Held, but read by no backward: nothing. Each residual add's branch operand
# (the wo and FFN-out products), the relu inputs and the embedding gather
# are freed once the op that consumes them is recorded.
HELD_UNREAD: dict[str, int] = {}
HELD = sum(READ_BY_BACKWARD.values()) + sum(HELD_UNREAD.values())


def lm_step():
    """The step's parameters and a training forward on fixed token ids."""
    cfg = ModelConfig(attention=STEP_ATTENTION, layers=LAYERS, ffn_dim=F, batch_size=B)
    model = build_model(cfg, Rng(901))
    batch = Rng(903).integers(0, V, size=(B, N + 1))
    return model.parameter_list(), lambda: lm.sequence_loss(model, batch)


def test_training_graph_keeps_only_what_backward_reads():
    # The bytes the graph holds after the training forward are the
    # buffers listed above, to within 2% (Python objects): no product
    # before its bias, no relu mask, no exponentials of the logits, and no
    # buffer that no backward reads.
    params, forward = lm_step()
    gradients(forward(), params)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = forward()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert HELD <= held <= 1.02 * HELD, (held, HELD)
    assert loss.shape == ()


def test_step_peak_is_held_buffers_plus_cross_entropy_backward():
    # The tracemalloc peak of a training forward plus `gradients` falls in
    # the cross-entropy backward, at the start of the walk, where every
    # buffer of the graph is still held but no gradient exists yet. On top
    # of the held buffers, within their 2% of Python objects (the test
    # above), it adds:
    # - the logits' gradient, one (B, n, V) buffer worked in place;
    # - numpy's 8192-element buffer for subtracting the broadcast row
    #   log-sum-exps.
    # Later backwards stay below it, as `gradients` frees each closure's
    # buffers once it has run. A graph kept whole until the walk ends puts
    # the peak in the first block's `attend` backward, 0.37 MB above this.
    params, forward = lm_step()
    gradients(forward(), params)
    backward = {
        "logits gradient": B * N * V * F8,
        "numpy's broadcast buffer": np.getbufsize() * F8,
    }
    bound = 1.02 * HELD + sum(backward.values())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = gradients(forward(), params)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
    assert len(grads) == len(params)


def test_training_step_graph_nodes():
    # 103 tensors: 40 leaves (the two embeddings; per block the layer's nine
    # and wo, two norms' gains and biases and the FFN's two weights and
    # biases; the final norm's gain and bias and the head's weight and bias)
    # and 63 ops (take and the position add; per block the layer's 22 ops of
    # `test_layer_graph_has_no_parameter_only_ops`, two layer norms, two
    # residual adds, the FFN's two products and relu; the final norm, the
    # head and the cross-entropy). Each bias enters its product, so no bias
    # add is in the graph.
    _, forward = lm_step()
    assert len(graph_nodes(forward())) == 103


def test_train_drops_each_graph_before_the_next_forward(monkeypatch):
    # By reference counting alone, every training loss is freed once its
    # gradients are taken: neither the validation forward nor the next
    # step's training forward starts with an earlier graph alive.
    losses, alive_at_entry = [], []
    sequence_loss = lm.sequence_loss

    def recording(*args):
        alive_at_entry.append(sum(ref() is not None for ref in losses))
        loss = sequence_loss(*args)
        if loss.requires_grad:
            losses.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(lm, "sequence_loss", recording)
    corpus = Rng(14).integers(0, 256, size=4000).astype(np.uint8)
    gc.disable()
    try:
        train(toy_config(steps=3), corpus)
    finally:
        gc.enable()
    assert len(losses) == 3
    assert len(alive_at_entry) > 6 and not any(alive_at_entry)
