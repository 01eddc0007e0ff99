"""The fused long-short attention op: central differences, weights, shape checks."""

import math

import numpy as np
import pytest

from lsattn import (
    LSConfig,
    Rng,
    Tensor,
    aggregate_head,
    causal_aggregate_head,
    concat,
    dynamic_projection,
    finite_diff_check,
    gradients,
    layer_norm,
    masked_softmax,
    matmul,
)
from lsattn import tensor as tensor_ops
from lsattn.errors import ShapeError
from lsattn.spans import slot_layout, window_offset
from lsattn.tensor import (
    attend, mul, scale, take, tensor_sum, track_peak_bytes, transpose_last,
)
from reference import make_head


def operands(cfg, seed, batch=()):
    """Random leaf operands of `attend` in the shapes a head of cfg passes it,
    the mask and the window offset."""
    rows, projected = (cfg.padded_len, cfg.head_dim), (cfg.projected_slots, cfg.head_dim)
    rng = Rng(seed)
    leaves = [Tensor(rng.child(i).normal(batch + s), requires_grad=True)
              for i, s in enumerate([rows, rows, rows, projected, projected])]
    return leaves, slot_layout(cfg), window_offset(cfg)


CONFIGS = {
    "bidirectional": LSConfig(seq_len=8, model_dim=3, heads=1, window=2, rank=2),
    "causal": LSConfig(seq_len=8, model_dim=3, heads=1, window=2, rank=1, seg_len=4,
                       mode="causal"),
    "window-0": LSConfig(seq_len=6, model_dim=3, heads=1, window=0, rank=2),
    "rank-0": LSConfig(seq_len=7, model_dim=3, heads=1, window=2, rank=0),
    "causal-rank-0": LSConfig(seq_len=7, model_dim=3, heads=1, window=4, rank=0, seg_len=2,
                              mode="causal"),
}


class TestAttendGradients:
    @pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_central_differences(self, name, dual):
        # With dual LN the window and projected rows pass through layer norms
        # with their own trainable gains and biases first, as in a head.
        cfg = CONFIGS[name]
        (q, kb, vb, kbar, vbar), attendable, offset = operands(cfg, seed=len(name))
        probe = Tensor(Rng(3).normal(q.shape))
        params = [q, kb, vb, kbar, vbar]
        if dual:
            dk = cfg.head_dim
            norms = [(Tensor(Rng(10 + i).uniform((dk,), 0.5, 1.5), requires_grad=True),
                      Tensor(Rng(20 + i).normal((dk,)), requires_grad=True)) for i in range(2)]
            params += [t for pair in norms for t in pair]

        def loss():
            k, v, kb_, vb_ = kb, vb, kbar, vbar
            if dual:
                (g_local, b_local), (g_far, b_far) = norms
                k, v = layer_norm(kb, g_local, b_local), layer_norm(vb, g_local, b_local)
                kb_, vb_ = layer_norm(kbar, g_far, b_far), layer_norm(vbar, g_far, b_far)
            out, _ = attend(q, k, v, kb_, vb_, attendable, offset)
            return tensor_sum(mul(out, probe))

        # Layer norms over 3 features curve sharply, hence the looser dual-LN
        # bound, the same as for whole dual-LN heads in test_autodiff.py. At
        # w = 0 the window rows are not read, and get no gradient.
        if cfg.window == 0:
            params = [t for t in params if t is not kb and t is not vb]
        assert finite_diff_check(loss, params) < (1e-5 if dual else 1e-6)

    def test_leading_batch_axis(self):
        cfg = CONFIGS["bidirectional"]
        (q, kb, vb, kbar, vbar), attendable, offset = operands(cfg, seed=5, batch=(2,))
        probe = Tensor(Rng(4).normal(q.shape))
        loss = lambda: tensor_sum(mul(attend(q, kb, vb, kbar, vbar, attendable, offset)[0],
                                      probe))
        assert finite_diff_check(loss, [q, kb, vb, kbar, vbar]) < 1e-6

    def test_rows_with_one_kind_of_slot(self):
        # Row 0 of each group sees only projected slots, row 1 only window slots.
        cfg = CONFIGS["bidirectional"]
        (q, kb, vb, kbar, vbar), attendable, offset = operands(cfg, seed=6)
        mask = attendable.copy()
        w2 = 2 * cfg.window
        mask[:, 0, :w2] = False
        mask[:, 1, w2:] = False
        probe = Tensor(Rng(5).normal(q.shape))
        loss = lambda: tensor_sum(mul(attend(q, kb, vb, kbar, vbar, mask, offset)[0], probe))
        assert finite_diff_check(loss, [q, kb, vb, kbar, vbar]) < 1e-6
        _, weights = attend(q, kb, vb, kbar, vbar, mask, offset)
        assert (weights[:, 0, :w2] == 0.0).all() and (weights[:, 1, w2:] == 0.0).all()

    def test_window_gradient_runs_change_no_bit(self, monkeypatch):
        # The second halves of the windows are added into the row gradient by
        # runs of groups; one group per run gives the same bits as one run.
        cfg = LSConfig(seq_len=40, model_dim=4, heads=1, window=4, rank=3)
        leaves, attendable, offset = operands(cfg, seed=9, batch=(2,))
        probe = Rng(6).normal(leaves[0].shape)
        results = []
        for block_bytes in (tensor_ops._BLOCK_BYTES, 1):
            monkeypatch.setattr(tensor_ops, "_BLOCK_BYTES", block_bytes)
            out, _ = attend(*leaves, attendable, offset)
            results.append(gradients(out, leaves, seed=probe))
        assert all(np.array_equal(a, b) for a, b in zip(*results))

    @pytest.mark.parametrize("n, row_bytes", [(1024, 3072), (1000, 256), (7, 1 << 20), (0, 8)])
    def test_window_gradient_runs_fit_the_block(self, n, row_bytes):
        # The fewest near-equal runs whose largest holds at most
        # `_BLOCK_BYTES`, or one row when a row is larger. At (1024, 3072),
        # attend's dP rows at n = 8192, runs of 86 rows would hold 264,192.
        runs = tensor_ops._runs(n, row_bytes)
        per_run = max(1, tensor_ops._BLOCK_BYTES // row_bytes)
        assert [i for run in runs for i in range(run.start, run.stop)] == list(range(n))
        assert max(run.stop - run.start for run in runs) <= per_run
        assert len(runs) == max(1, math.ceil(n / per_run))

    def test_forward_peak_holds_a_padded_window_copy(self):
        # At n = 1024, d = 64, w = 8 and r = 16 the arrays dwarf the Python
        # objects, which take under 8 KiB. In bytes, with L = n (2w + r) 8
        # for the logits or the weights P, O = n d 8 for the output and
        # K = (n + w) d 8 for a zero-padded copy of the window rows, the
        # forward holds in turn:
        # - window scores: the logits and the padded copy of k, L + K;
        # - softmax: the logits and P, the row maxima and numpy's 8192-element
        #   buffer for subtracting them, 2L + 8n + 8 * 8192;
        # - window values: P, the output and the padded copy of v, L + O + K;
        # - projected values: P, the output and their product, L + 2O.
        # With d above 2w + r the window values hold the most.
        n, d, w, r = 1024, 64, 8, 16
        cfg = LSConfig(seq_len=n, model_dim=d, heads=1, window=w, rank=r)
        (q, kb, vb, kbar, vbar), attendable, offset = operands(cfg, seed=8)
        with track_peak_bytes() as tracker:
            out, weights = attend(q, kb, vb, kbar, vbar, attendable, offset)
        held, out_bytes, padded = weights.nbytes, out.data.nbytes, (n + w) * d * 8
        assert held == n * (2 * w + r) * 8 and out_bytes == n * d * 8
        phases = [held + padded, 2 * held + 8 * n + 8 * np.getbufsize(),
                  held + out_bytes + padded, held + 2 * out_bytes]
        assert max(phases) == phases[2]
        assert phases[2] <= tracker.peak < phases[2] + 8192, (tracker.peak, phases)

    @pytest.mark.parametrize("names, bad", [
        (("k",), lambda t: t[:, :-1]),
        (("v",), lambda t: t[..., :-1]),
        (("kbar",), lambda t: np.concatenate([t, t[..., :1]], axis=-1)),
        (("vbar",), lambda t: np.stack([t, t, t])),
        (("kbar", "vbar"), lambda t: np.stack([t[0]] * 3)),
        (("attendable",), lambda t: t[:, :, 1:]),
        (("kbar", "vbar"), lambda t: t[:1]),
        (("k", "v"), lambda t: t[:1]),
    ], ids=["k-rows", "v-shape", "kbar-width", "vbar-shape", "projected-batch", "mask",
            "projected-unit-batch", "window-unit-batch"])
    def test_shape_mismatch_rejected(self, names, bad):
        # One operand at a time (both projected or both window ones for the
        # batch axes) gets bad rows, width, batch axes or span. A unit batch
        # axis that would broadcast against q's is a mismatch too.
        (q, kb, vb, kbar, vbar), attendable, offset = operands(
            CONFIGS["bidirectional"], seed=7, batch=(2,))
        args = dict(q=q, k=kb, v=vb, kbar=kbar, vbar=vbar, attendable=attendable)
        for name in names:
            value = args[name]
            args[name] = bad(value) if name == "attendable" else Tensor(bad(value.data))
        with pytest.raises(ShapeError):
            attend(*args.values(), offset)

    @pytest.mark.parametrize("offset", [-1, 3])
    def test_offset_outside_the_window_rejected(self, offset):
        (q, kb, vb, kbar, vbar), attendable, _ = operands(CONFIGS["bidirectional"], seed=7)
        with pytest.raises(ShapeError):
            attend(q, kb, vb, kbar, vbar, attendable, offset)


def composed_weights(x, p, cfg):
    """Weights from primitive ops: the window slots gathered by position with
    `take`, scaled logits joined with the projected ones, one masked softmax."""
    n_pad, w, dk = cfg.padded_len, cfg.window, cfg.head_dim
    attendable = slot_layout(cfg)
    groups, size, span = attendable.shape
    x_pad = concat([x, Tensor(np.zeros((n_pad - cfg.seq_len, x.shape[-1])))], axis=0)
    q, k, v = matmul(x_pad, p.wq), matmul(x_pad, p.wk), matmul(x_pad, p.wv)
    pkv = dynamic_projection(x_pad, p, cfg)
    kbar = pkv.kbar
    if cfg.dual_ln:
        k = layer_norm(k, p.ln_local.gain, p.ln_local.bias)
        kbar = layer_norm(kbar, p.ln_global.gain, p.ln_global.bias)
    offset = w if cfg.mode == "causal" else w // 2
    positions = np.arange(groups)[:, None] * size - offset + np.arange(2 * w)
    k_window = take(k, np.clip(positions, 0, n_pad - 1))
    inv = 1.0 / math.sqrt(dk)
    local = scale(matmul(q.reshape(groups, size, dk), transpose_last(k_window)), inv)
    far = scale(matmul(q, transpose_last(kbar)), inv).reshape(groups, size, -1)
    return masked_softmax(concat([local, far], axis=-1), attendable).data.reshape(n_pad, span)


@pytest.mark.parametrize("cfg", [
    LSConfig(seq_len=13, model_dim=4, heads=1, window=4, rank=3, dual_ln=True),
    LSConfig(seq_len=13, model_dim=4, heads=1, window=4, rank=2, seg_len=4, mode="causal"),
    LSConfig(seq_len=9, model_dim=4, heads=1, window=2, rank=0, mode="causal"),
    LSConfig(seq_len=9, model_dim=4, heads=1, window=0, rank=3, dual_ln=True),
], ids=["bidirectional-dual", "causal", "causal-rank-0", "window-0"])
def test_returned_weights_match_composed_ops(cfg):
    p, x = make_head(cfg, seed=cfg.seq_len)
    head = causal_aggregate_head if cfg.mode == "causal" else aggregate_head
    _, info = head(x, p, cfg, return_weights=True)
    assert np.abs(info.row_sums() - 1.0).max() <= 1e-12
    assert np.abs(info.weights - composed_weights(x, p, cfg)).max() <= 1e-15
