"""Stacked-head attention against one call per head.

`multi_head` runs every head in one attention call over parameters stored
stacked on a head axis. The reference here runs each head on its own, over
the per-head views of those parameters, joins the outputs along the width and
applies wo, as the per-head definition reads. The graph of a layer step, and
of a whole LM step, is freed by reference counting alone.
"""

import gc
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from lsattn import (
    LSConfig,
    Rng,
    Tensor,
    aggregate_head,
    causal_aggregate_head,
    concat,
    count_flops_runtime,
    finite_diff_check,
    gradients,
    init_multi_head_params,
    matmul,
    multi_head,
    no_grad,
)
from lsattn import attention, lm, tensor
from lsattn.tensor import add, mul, tensor_sum

CONFIGS = {
    "bidirectional": (LSConfig(seq_len=10, model_dim=12, heads=3, window=4, rank=3,
                               dual_ln=True), aggregate_head),
    "causal": (LSConfig(seq_len=12, model_dim=12, heads=3, window=2, rank=2, seg_len=4,
                        mode="causal", dual_ln=True), causal_aggregate_head),
}


def per_head_reference(x, params, head):
    outputs = [head(x, p) for p in params.heads]
    return matmul(concat(outputs, axis=-1), params.wo)


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_stacked_heads_match_one_call_per_head(mode):
    cfg, fn = CONFIGS[mode]
    rng = Rng(11)
    params = init_multi_head_params(rng.child(0), cfg)
    x = Tensor(rng.child(1).normal((2, cfg.seq_len, cfg.model_dim)), requires_grad=True)
    probe = Tensor(rng.child(2).normal((2, cfg.seq_len, cfg.model_dim)))
    leaves = [x] + [t for _, t in params.named_parameters()]
    head = lambda h, p: fn(h, p, cfg)

    results = []
    for forward in (multi_head, per_head_reference):
        out = forward(x, params, head)
        grads = gradients(tensor_sum(mul(out, probe)), leaves)
        results.append((out.data, grads))
    (out, grads), (ref, ref_grads) = results
    assert out.shape == ref.shape == x.shape
    assert np.abs(out - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    for (name, _), g, g_ref in zip([("x", x)] + list(params.named_parameters()),
                                   grads, ref_grads):
        assert np.abs(g_ref).max() > 0, name
        assert np.abs(g - g_ref).max() <= 1e-12 * max(1.0, np.abs(g_ref).max()), name


# One bidirectional dual-LN layer at n = 1024 for the two tests below.
N, D, H, W, R = 1024, 64, 2, 8, 32
F8 = 8
HELD_CFG = LSConfig(seq_len=N, model_dim=D, heads=H, window=W, rank=R, dual_ln=True)
ROWS = N * D * F8  # one (h, n, d_k) array, or one (n, d) array
# What the layer's graph holds after its forward pass, from the shapes.
READ_BY_BACKWARD = {
    "q, k, v": 3 * ROWS,
    "projection weights (h, 1, r, n)": H * R * N * F8,
    "projected k, v before and after their norm": 4 * H * R * (D // H) * F8,
    "normed window k, v": 2 * ROWS,
    "attention weights": H * N * (2 * W + R) * F8,
    "attend output": ROWS,
    "norm row means and 1/sigma": 2 * 2 * H * N * F8 + 2 * 2 * H * R * F8,
}
# Held, but read by no backward: the layer output.
HELD_UNREAD = {"output": ROWS}
HELD = sum(READ_BY_BACKWARD.values()) + sum(HELD_UNREAD.values())


def held_layer():
    """The layer's parameters, input and a forward that runs it."""
    params = init_multi_head_params(Rng(0), HELD_CFG)
    x = Tensor(Rng(1).normal((N, D)), requires_grad=True)
    return params, x, lambda: multi_head(x, params, lambda t, p: aggregate_head(t, p, HELD_CFG))


def test_forward_keeps_only_what_backward_needs(monkeypatch):
    # The bytes the graph holds after the forward pass are the buffers
    # listed above, to within 2% (Python objects). The layer norms keep no
    # normalized copy of their input, the projection keeps no logits, no
    # merged copy of the heads is made, and wo reads attend's output buffer
    # directly. The recorders keep only what the test reads, attend's result
    # and wo's input, which the graph holds anyway: a product the graph
    # frees, such as the projection logits, must not be kept alive by them.
    params, x, forward = held_layer()
    attend, matmul = attention.attend, attention.matmul
    seen = {}

    def recording_attend(*args):
        seen["attend"] = attend(*args)
        return seen["attend"]

    def recording_matmul(a, b, *rest):
        if b is params.wo:
            seen["merged"] = a
        return matmul(a, b, *rest)

    monkeypatch.setattr(attention, "attend", recording_attend)
    monkeypatch.setattr(attention, "matmul", recording_matmul)
    forward()
    seen.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = forward()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    assert HELD <= held <= 1.02 * HELD, (held, HELD)

    heads, _ = seen["attend"]
    assert np.shares_memory(seen["merged"].data, heads.data)
    assert out.shape == (N, D)


def test_backward_peak_is_held_buffers_plus_bounded_temporaries():
    # The tracemalloc peak of forward plus `gradients` stays within 1% of
    # the held buffers plus what backward adds at its fullest, in attend's
    # backward while v's window gradient is formed. `gradients` has freed
    # what wo's backward alone read, attend's output. attend's backward has
    # built k's and v's zero-padded window copies and dropped the rows they
    # were copied from, then dropped v's copy once dP was formed. Backward
    # then holds:
    # - the seed of ones (n, d) that `gradients` makes, and wo's gradient;
    # - the gradient in flight, of attend's output;
    # - k's window copy, w rows per head longer than k's rows;
    # - dP, the size of P, which is still held;
    # - v's window-gradient blocks (one more group of rows than v) and one
    #   run of their product: at most `tensor._BLOCK_BYTES`, half the product
    #   at this n.
    # Later phases hold less: dS takes dP's buffer once P is dropped, and q
    # and k's window copy go before dq's products. Keeping every operand
    # until attend's backward returns puts the peak 0.84 MB above this bound.
    params, x, forward = held_layer()
    leaves = [x] + [t for _, t in params.named_parameters()]
    gradients(forward(), leaves)
    blocks = ROWS * (N // W + 1) // (N // W)
    freed = {
        "attend output": READ_BY_BACKWARD["attend output"],
        "normed window v": ROWS,
    }
    backward = {
        "seed and wo's gradient": ROWS + params.wo.data.nbytes,
        "gradient in flight": ROWS,
        "k's window copy beyond k": W * D * F8,
        "dP": READ_BY_BACKWARD["attention weights"],
        "v's blocks, one run": blocks + ROWS // 2,
    }
    bound = HELD - sum(freed.values()) + sum(backward.values())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = gradients(forward(), leaves)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * bound, (peak, bound)
    assert grads[0].shape == (N, D)


def stacked_leaf_of(params, name):
    """The stacked leaf behind a per-head parameter name such as "ln_local.gain"."""
    leaf = params.stacked
    for part in name.split("."):
        leaf = getattr(leaf, part)
    return leaf


def test_per_head_tensors_view_the_stacked_leaves():
    cfg, _ = CONFIGS["bidirectional"]
    params = init_multi_head_params(Rng(3), cfg)
    for i, head in enumerate(params.heads):
        for name, t in head.named_parameters():
            leaf = stacked_leaf_of(params, name)
            base, index = t.view_of
            assert base is leaf and leaf.view_of is None
            assert np.shares_memory(t.data, leaf.data), name
            assert t.shape == leaf.data[index].shape
            assert np.array_equal(t.data, leaf.data[i].reshape(t.shape)), name


# A layer with one branch left empty: the paper's window-only (r = 0) and
# projection-only (w = 0) baselines. The third entry names the norm that no
# output depends on with dual LN.
SINGLE_BRANCH = {
    "window-only": (LSConfig(seq_len=10, model_dim=12, heads=3, window=4, rank=0),
                    aggregate_head, "ln_global"),
    "causal-window-only": (LSConfig(seq_len=12, model_dim=12, heads=3, window=2, rank=0,
                                    seg_len=4, mode="causal"), causal_aggregate_head,
                           "ln_global"),
    "projection-only": (LSConfig(seq_len=10, model_dim=12, heads=3, window=0, rank=3),
                        aggregate_head, "ln_local"),
}


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
@pytest.mark.parametrize("name", sorted(SINGLE_BRANCH))
def test_single_branch_stacked_heads_match_one_call_per_head(name, dual):
    base, fn, unused_norm = SINGLE_BRANCH[name]
    cfg = replace(base, dual_ln=dual)
    rng = Rng(12)
    params = init_multi_head_params(rng.child(0), cfg)
    x = Tensor(rng.child(1).normal((2, cfg.seq_len, cfg.model_dim)), requires_grad=True)
    probe = Tensor(rng.child(2).normal((2, cfg.seq_len, cfg.model_dim)))
    named = [("x", x)] + list(params.named_parameters())
    head = lambda h, p: fn(h, p, cfg)

    results = []
    for forward in (multi_head, per_head_reference):
        out = forward(x, params, head)
        grads = gradients(tensor_sum(mul(out, probe)), [t for _, t in named])
        results.append((out.data, grads))
    (out, grads), (ref, ref_grads) = results
    assert out.shape == ref.shape == x.shape
    assert np.abs(out - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    for (param, _), g, g_ref in zip(named, grads, ref_grads):
        assert np.abs(g - g_ref).max() <= 1e-12 * max(1.0, np.abs(g_ref).max()), param
        unused = ".ln_" in param and (not dual or unused_norm in param)
        assert (not g_ref.any()) if unused else np.abs(g_ref).max() > 0, param


def test_writing_a_head_view_changes_the_layer_output():
    cfg, fn = CONFIGS["bidirectional"]
    params = init_multi_head_params(Rng(4), cfg)
    x = Tensor(Rng(5).normal((cfg.seq_len, cfg.model_dim)))
    head = lambda h, p: fn(h, p, cfg)
    before = multi_head(x, params, head).data
    wq = params.heads[1].wq.data
    wq[0, 0] += 0.5
    changed = multi_head(x, params, head).data
    wq[0, 0] -= 0.5
    assert not np.array_equal(changed, before)
    assert np.array_equal(multi_head(x, params, head).data, before)


@pytest.mark.parametrize("use", ["direct", "stacked", "both"])
def test_gradients_of_head_views(use):
    # A per-head view may feed the graph itself, through its stacked leaf, or
    # both; its gradient sums what reaches it and its row of the leaf's.
    cfg = LSConfig(seq_len=8, model_dim=8, heads=2, window=2, rank=2, dual_ln=True)
    rng = Rng(6)
    params = init_multi_head_params(rng.child(0), cfg)
    x = Tensor(rng.child(1).normal((cfg.seq_len, cfg.model_dim)))
    probe = Tensor(rng.child(2).normal((cfg.seq_len, cfg.model_dim)))
    probe_head = Tensor(rng.child(3).normal((cfg.seq_len, cfg.head_dim)))
    head = lambda h, p: aggregate_head(h, p, cfg)

    def loss():
        parts = []
        if use in ("direct", "both"):
            parts.append(tensor_sum(mul(head(x, params.heads[0]), probe_head)))
        if use in ("stacked", "both"):
            parts.append(tensor_sum(mul(multi_head(x, params, head), probe)))
        return parts[0] if len(parts) == 1 else add(*parts)

    views = [t for hp in params.heads for _, t in hp.named_parameters()]
    grads = gradients(loss(), views)
    assert all(np.abs(g).max() > 0 for g in grads[:8])
    assert (use == "direct") == all(not g.any() for g in grads[8:])
    assert finite_diff_check(loss, views) < 1e-7


def graph_nodes(root):
    seen, todo = {id(root): root}, [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return list(seen.values())


def layer_graph(cfg):
    """Graph nodes of one layer forward, and the stacked leaves it must use."""
    params = init_multi_head_params(Rng(7), cfg)
    x = Tensor(Rng(8).normal((cfg.seq_len, cfg.model_dim)), requires_grad=True)
    nodes = graph_nodes(multi_head(x, params, lambda t, p: aggregate_head(t, p, cfg)))
    return nodes, params, {id(t) for t in nodes}


def node_ids(*tensors):
    return {id(t._node) for t in tensors}


def test_layer_graph_has_no_parameter_only_ops():
    # The stacked leaves feed the layer directly: no op rebuilds or reshapes
    # parameters on every forward, and no op pads the window keys and values.
    # 32 nodes: 10 leaves (x, wq, wk, wv, wp, wo, two norms' gains and
    # biases) and 22 ops: x's head-axis reshape; q, k and v; the projection's
    # ten (x @ wp, its cut into segments, transpose and softmax, k and v cut
    # into segments, pt @ k, pt @ v and their two reshapes to rows); four
    # layer norms; attend; and the head merge's swap, reshape and wo product.
    cfg = LSConfig(seq_len=64, model_dim=8, heads=2, window=8, rank=4, dual_ln=True)
    nodes, params, walked = layer_graph(cfg)
    leaves = node_ids(params.wo, *(stacked_leaf_of(params, name)
                                   for name, _ in params.heads[0].named_parameters()))
    assert len(nodes) == 32
    assert leaves <= walked
    assert not any(t._parents and all(id(p) in leaves for p in t._parents) for t in nodes)


def test_projection_only_layer_graph_leaves_out_the_window_branch():
    # At w = 0 the window keys, values and their norm are not in the graph.
    # 28 nodes: the 32 of the layer above without ln_local's gain, bias and
    # its two norms.
    cfg = LSConfig(seq_len=9, model_dim=8, heads=2, window=0, rank=3, dual_ln=True)
    nodes, params, walked = layer_graph(cfg)
    local = node_ids(params.stacked.ln_local.gain, params.stacked.ln_local.bias)
    assert len(nodes) == 28
    assert node_ids(params.stacked.ln_global.gain) <= walked and not local & walked


def test_projection_only_dual_ln_normalizes_only_the_projected_rows():
    # At w = 0 attend reads no window keys or values, so ln_local does not
    # run: the layer norms of one call are those of kbar and vbar, at 4
    # FLOPs per element.
    cfg = LSConfig(seq_len=9, model_dim=8, heads=2, window=0, rank=3, dual_ln=True)
    p = init_multi_head_params(Rng(7), cfg).stacked
    x = Tensor(Rng(8).normal((1, cfg.seq_len, cfg.model_dim)))
    with no_grad():
        pkv = attention.dynamic_projection(x, p, cfg)
        with count_flops_runtime() as counter:
            aggregate_head(x, p, cfg)
    assert counter.layer_norm_flops == 4 * (pkv.kbar.size + pkv.vbar.size)


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
def test_window_only_layer_graph_leaves_out_the_projected_branch(mode, monkeypatch):
    # At r = 0 the projection and its ln_global norms do not run: the layer
    # call runs no softmax over tokens and only ln_local's two norms, and no
    # node reachable from the output is zero-size.
    cfg = LSConfig(seq_len=12, model_dim=8, heads=2, window=4, rank=0, seg_len=4, mode=mode,
                   dual_ln=True)
    masked_softmax, layer_norm = attention.masked_softmax, attention.layer_norm
    softmaxes, norm_gains = [], []

    def recording_softmax(logits, mask):
        softmaxes.append(logits.shape)
        return masked_softmax(logits, mask)

    def recording_layer_norm(x, gain, bias):
        norm_gains.append(gain)
        return layer_norm(x, gain, bias)

    monkeypatch.setattr(attention, "masked_softmax", recording_softmax)
    monkeypatch.setattr(attention, "layer_norm", recording_layer_norm)
    nodes, params, walked = layer_graph(cfg)
    glob = node_ids(params.stacked.ln_global.gain, params.stacked.ln_global.bias)
    assert not softmaxes
    assert [id(g) for g in norm_gains] == [id(params.stacked.ln_local.gain)] * 2
    # 17 as when the empty projection ran: attend never recorded the
    # zero-width projected operands, so no reachable node goes away.
    assert len(nodes) == 17
    assert all(np.prod(t.shape) for t in nodes), [t.shape for t in nodes if not np.prod(t.shape)]
    assert node_ids(params.stacked.ln_local.gain) <= walked and not glob & walked


@contextmanager
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def op_refs(root):
    """Weak references to every op output in root's graph (leaves are held elsewhere)."""
    return [weakref.ref(t) for t in graph_nodes(root) if t._parents]


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_step_graph_is_freed_without_the_collector(mode):
    # Reference counting alone frees a batched dual-LN layer's graph once the
    # loss and output are dropped, after gradients ran over it.
    cfg, fn = CONFIGS[mode]
    params = init_multi_head_params(Rng(5), cfg)
    x = Tensor(Rng(6).normal((2, cfg.seq_len, cfg.model_dim)), requires_grad=True)
    probe = Tensor(Rng(7).normal((2, cfg.seq_len, cfg.model_dim)))
    with collector_off():
        out = multi_head(x, params, lambda t, p: fn(t, p, cfg))
        loss = tensor_sum(mul(out, probe))
        gradients(loss, [x] + [t for _, t in params.named_parameters()])
        refs = op_refs(loss)
        del out, loss
        alive = sum(r() is not None for r in refs)
    assert len(refs) > 20
    assert alive == 0


def test_gradients_frees_every_op_output_before_it_returns(monkeypatch):
    # `gradients` consumes the graph of a stacked-head dual-LN layer: once
    # it returns, every op output's buffer is dead while the caller still
    # holds the layer output, and the leaves and that output are intact.
    # attend's P dies before k's window gradient is formed (the second
    # `_window_grad` call; the first, v's, reads P).
    cfg, fn = CONFIGS["bidirectional"]
    params = init_multi_head_params(Rng(5), cfg)
    x = Tensor(Rng(6).normal((2, cfg.seq_len, cfg.model_dim)), requires_grad=True)
    leaves = [x] + [t for _, t in params.named_parameters()]
    op_outputs, weights, p_alive = [], [], []
    attach, attend, window_grad = tensor._attach, attention.attend, tensor._window_grad

    def recording_attach(out, parents, route):
        op_outputs.append(weakref.ref(out.data))
        attach(out, parents, route)

    def recording_attend(*args):
        result = attend(*args)
        weights.append(weakref.ref(result[1]))
        return result

    def recording_window_grad(*args):
        p_alive.append(weights[0]() is not None)
        return window_grad(*args)

    monkeypatch.setattr(tensor, "_attach", recording_attach)
    monkeypatch.setattr(attention, "attend", recording_attend)
    monkeypatch.setattr(tensor, "_window_grad", recording_window_grad)
    with collector_off():
        out = multi_head(x, params, lambda t, p: fn(t, p, cfg))
        kept = [out.data.copy()] + [t.data.copy() for t in leaves]
        gradients(out, leaves, Rng(7).normal(out.shape))
        alive = [ref() for ref in op_outputs if ref() is not None]
    assert len(op_outputs) > 20
    assert len(alive) == 1 and alive[0] is out.data
    assert all(np.array_equal(a, t.data) for a, t in zip(kept, [out] + leaves))
    assert p_alive == [True, False]


def test_lm_step_graph_is_freed_without_the_collector():
    attn = LSConfig(seq_len=16, model_dim=8, heads=2, window=2, rank=2, seg_len=4,
                    mode="causal", dual_ln=True)
    cfg = lm.ModelConfig(attention=attn, layers=2, ffn_dim=16, dropout=0.1, batch_size=2)
    model = lm.build_model(cfg, Rng(3))
    batch = Rng(4).integers(0, 256, size=(2, 17))
    with collector_off():
        loss = lm.sequence_loss(model, batch, Rng(5))
        gradients(loss, model.parameter_list())
        refs = op_refs(loss)
        del loss
        alive = sum(r() is not None for r in refs)
    assert len(refs) > 50
    assert alive == 0
