"""Reverse-mode gradients against closed forms and central differences."""

import inspect
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from lsattn import (
    LSConfig,
    Rng,
    Tensor,
    aggregate_head,
    causal_aggregate_head,
    finite_diff_check,
    full_attention_head,
    gradients,
    init_head_params,
    init_multi_head_params,
    masked_softmax,
    matmul,
    multi_head,
)
from lsattn import checks, lm
from lsattn import tensor as tensor_ops
from lsattn.attention import block_forward, norm_ratio_probe
from lsattn.bench import run_scaling
from lsattn.errors import ShapeError
from lsattn.flops import ArchSpec, measured_flops
from lsattn.params import init_block_params
from lsattn.tensor import add, layer_norm, mul, swap_axes, take, tensor_sum

# The ops the benchmark's timing tracer wraps by name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import TRACED_OPS  # noqa: E402


def test_product_rule_scalar():
    x = Tensor([2.0], requires_grad=True)
    y = Tensor([5.0], requires_grad=True)
    out = tensor_sum(mul(x, y))
    gx, gy = gradients(out, [x, y])
    assert gx.tolist() == [5.0]
    assert gy.tolist() == [2.0]


def test_softmax_jacobian_at_uniform():
    # J = diag(p) - p p^T with p = 1/3: diagonal 2/9, off-diagonal -1/9.
    # `gradients` consumes the graph, so each row gets its own p.
    logits = Tensor([0.0, 0.0, 0.0], requires_grad=True)
    rows = []
    for i in range(3):
        seed = np.zeros(3)
        seed[i] = 1.0
        rows.append(gradients(masked_softmax(logits), [logits], seed=seed)[0])
    jac = np.stack(rows)
    expected = np.full((3, 3), -1.0 / 9.0)
    np.fill_diagonal(expected, 2.0 / 9.0)
    assert np.abs(jac - expected).max() < 1e-15


def test_disconnected_parameter_gets_zero_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([[3.0]], requires_grad=True)
    out = tensor_sum(mul(x, x))
    gx, gu = gradients(out, [x, unused])
    assert np.array_equal(gu, np.zeros((1, 1)))
    assert np.array_equal(gx, np.array([2.0, 4.0]))


def test_backward_seed_shape_checked():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = mul(x, x)
    with pytest.raises(ShapeError):
        gradients(out, [x], seed=np.ones(3))


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_backward_linearity_exact(factor):
    # Power-of-two seeds scale every float product exactly.
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    seed = rng.normal(size=(3, 2))

    out = masked_softmax(matmul(x, w))
    g1 = gradients(out, [x, w], seed=seed)
    out = masked_softmax(matmul(x, w))
    g2 = gradients(out, [x, w], seed=factor * seed)
    for a, b in zip(g1, g2):
        assert np.array_equal(factor * a, b)


def test_masked_positions_contribute_zero_gradient():
    logits = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
    mask = np.array([[True, False, True]])
    out = masked_softmax(logits, mask)
    (g,) = gradients(out, [logits], seed=np.ones((1, 3)))
    assert g[0, 1] == 0.0


def test_quadratic_finite_difference_floor():
    theta = Tensor(np.linspace(-1.0, 1.0, 8), requires_grad=True)
    err = finite_diff_check(lambda: tensor_sum(mul(theta, theta)), [theta])
    assert err < 1e-9


@pytest.mark.parametrize(
    "op_name", ["matmul", "layer_norm", "masked_softmax", "take"]
)
def test_primitive_gradients(op_name):
    rng = np.random.default_rng(3)
    if op_name == "matmul":
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        f = lambda: tensor_sum(mul(matmul(a, b), matmul(a, b)))
        params = [a, b]
    elif op_name == "layer_norm":
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=6), requires_grad=True)
        c = Tensor(rng.normal(size=6), requires_grad=True)
        f = lambda: tensor_sum(mul(layer_norm(x, g, c), layer_norm(x, g, c)))
        params = [x, g, c]
    elif op_name == "masked_softmax":
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        mask = rng.random((4, 5)) < 0.7
        mask[:, 0] = True
        weights = Tensor(rng.normal(size=(4, 5)))
        f = lambda: tensor_sum(mul(masked_softmax(x, mask), weights))
        params = [x]
    else:
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([[0, 2], [4, 0]])
        weights = Tensor(rng.normal(size=(2, 2, 3)))
        f = lambda: tensor_sum(mul(take(x, idx), weights))
        params = [x]
    assert finite_diff_check(f, params) < 1e-7


def test_layer_norm_with_stacked_head_gain_and_bias():
    # (h, 1, d) gains and biases give each head of an (..., h, n, d) input its
    # own norm; their gradients sum over the batch and row axes.
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    g = Tensor(rng.normal(size=(3, 1, 5)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 1, 5)), requires_grad=True)
    weights = Tensor(rng.normal(size=(2, 3, 4, 5)))
    f = lambda: tensor_sum(mul(layer_norm(x, g, c), weights))
    assert finite_diff_check(f, [x, g, c]) < 1e-7


@pytest.mark.parametrize("x_shape,w_shape", [
    ((2, 1, 4, 3), (3, 3, 2)),
    ((1, 2, 4, 3), (3, 2, 3, 2)),
    ((4, 3), (3, 3, 2)),
    ((2, 1, 4, 3), (1, 3, 3, 2)),
], ids=["unit-head-axis", "unit-axis-at-4", "matrix-x", "unit-axes-on-both"])
def test_matmul_unit_axis_against_head_axis(x_shape, w_shape):
    # Each operand's gradient sums the axes it was broadcast over. Only an
    # operand whose unit axis at -3 meets the heads, with the product's other
    # leading axes, is added head by head (x in the first and last cases);
    # every other broadcast takes the full product, reduced.
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape), requires_grad=True)
    weights = Tensor(rng.normal(size=np.matmul(x.data, w.data).shape))
    f = lambda: tensor_sum(mul(matmul(x, w), weights))
    assert finite_diff_check(f, [x, w]) < 1e-7


def test_swap_axes_gradient():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    weights = Tensor(rng.normal(size=(3, 2, 4)))
    f = lambda: tensor_sum(mul(swap_axes(x, 0, 1), weights))
    assert finite_diff_check(f, [x]) < 1e-9


@pytest.mark.parametrize("matmul_first,stacked", [
    (False, False), (True, False), (False, True), (True, True),
], ids=["False", "True", "False-stacked", "True-stacked"])
def test_shared_gradient_array_is_never_written(matmul_first, stacked):
    # add hands one array to both of its inputs as their gradient; a's other
    # contribution, from a matmul, must never be summed into that array.
    # Stacked, a's unit head axis is spread over w's two heads, and each
    # head's part is added by runs of rows onto the gradient a already holds.
    rng = np.random.default_rng(8)
    lead, heads = ((1,), (2,)) if stacked else ((), ())
    a = Tensor(rng.normal(size=lead + (3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=lead + (3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=heads + (4, 4)))
    probe = Tensor(rng.normal(size=lead + (3, 4)))
    probe_heads = Tensor(rng.normal(size=heads + (3, 4)))

    def f():
        if stacked:
            # Summed apart: the add term keeps a's shape, so add shares its grad.
            terms = (tensor_sum(mul(matmul(a, w), probe_heads)), tensor_sum(mul(add(a, b), probe)))
            return add(*(terms if matmul_first else terms[::-1]))
        pair = (matmul(a, w), add(a, b)) if matmul_first else (add(a, b), matmul(a, w))
        return tensor_sum(mul(add(*pair), probe))

    assert finite_diff_check(f, [a, b]) < 1e-7
    ga, gb = gradients(f(), [a, b])
    assert np.array_equal(gb, probe.data)
    if stacked:
        expected = probe.data + (probe_heads.data @ np.swapaxes(w.data, -1, -2)).sum(axis=0)
        assert np.allclose(ga, expected, rtol=1e-14, atol=1e-14)
    else:
        assert np.array_equal(ga, probe.data + probe.data @ w.data.T)
    assert not np.shares_memory(ga, gb)


SEED_CONFIGS = {
    "bidirectional": (LSConfig(seq_len=8, model_dim=8, heads=2, window=2, rank=2,
                               dual_ln=True), aggregate_head),
    "causal": (LSConfig(seq_len=8, model_dim=8, heads=2, window=2, rank=1, seg_len=4,
                        mode="causal", dual_ln=True), causal_aggregate_head),
}


@pytest.mark.parametrize("layer", ["multi_head", "block"])
@pytest.mark.parametrize("mode", sorted(SEED_CONFIGS))
def test_gradients_never_write_the_seed(mode, layer):
    # A block hands the seed on through its residual adds, and the input then
    # collects more contributions; a multi-head layer, as perfbench drives it,
    # gets its cotangent as the seed.
    cfg, fn = SEED_CONFIGS[mode]
    rng = Rng(12)
    head = lambda t, p: fn(t, p, cfg)
    x = Tensor(rng.child(1).normal((2, cfg.seq_len, cfg.model_dim)), requires_grad=True)
    if layer == "block":
        params = init_block_params(rng.child(0), cfg, ffn_dim=16)
        out = block_forward(x, params, head)
    else:
        params = init_multi_head_params(rng.child(0), cfg)
        out = multi_head(x, params, head)
    seed = rng.child(2).normal(out.shape)
    kept = seed.copy()
    grads = gradients(out, [x] + [t for _, t in params.named_parameters()], seed=seed)
    assert np.array_equal(seed, kept)
    assert all(np.abs(g).max() > 0 for g in grads)


def _head_param_list(p):
    return [t for _, t in p.named_parameters()]


def test_full_attention_gradient_matches_central_differences():
    cfg = LSConfig(seq_len=4, model_dim=4, heads=1, window=2, rank=1)
    rng = Rng(9)
    p = init_head_params(rng, cfg)
    x = Tensor(rng.normal((4, 4)), requires_grad=True)
    f = lambda: tensor_sum(full_attention_head(x, p))
    err = finite_diff_check(f, [x, p.wq, p.wk, p.wv])
    assert err < 1e-6


def test_dualln_aggregate_gradient():
    # A random linear functional of the output; a plain sum is degenerate here
    # because normalized value rows have zero feature-mean.
    cfg = LSConfig(seq_len=8, model_dim=4, heads=1, window=2, rank=2, dual_ln=True)
    rng = Rng(4)
    p = init_head_params(rng, cfg)
    x = Tensor(rng.normal((8, 4)), requires_grad=True)
    probe = Tensor(rng.normal((8, cfg.head_dim)))
    f = lambda: tensor_sum(mul(aggregate_head(x, p, cfg), probe))
    err = finite_diff_check(f, [x] + _head_param_list(p))
    assert err < 1e-5


def test_causal_aggregate_gradient():
    cfg = LSConfig(
        seq_len=8, model_dim=4, heads=1, window=2, rank=1, seg_len=4,
        mode="causal", dual_ln=True,
    )
    rng = Rng(5)
    p = init_head_params(rng, cfg)
    x = Tensor(rng.normal((8, 4)), requires_grad=True)
    probe = Tensor(rng.normal((8, cfg.head_dim)))
    f = lambda: tensor_sum(mul(causal_aggregate_head(x, p, cfg), probe))
    err = finite_diff_check(f, [x] + _head_param_list(p))
    assert err < 1e-5


def test_dualln_strengthens_projection_gradients():
    # At initialization the projection weights receive more gradient signal
    # once the two branches are normalized to comparable scales. Statistical
    # direction over 10 seeds, not a per-seed claim.
    means = {True: [], False: []}
    for seed in range(10):
        cfg = LSConfig(seq_len=64, model_dim=8, heads=1, window=4, rank=4)
        rng = Rng(seed)
        p = init_head_params(rng, cfg)
        x = Tensor(rng.normal((64, 8)))
        probe = Tensor(Rng(seed + 500).normal((64, 8)))
        for dual in (False, True):
            loss = tensor_sum(mul(aggregate_head(x, p, replace(cfg, dual_ln=dual)), probe))
            (g,) = gradients(loss, [p.wp])
            means[dual].append(np.abs(g).mean())
    assert np.mean(means[True]) >= np.mean(means[False])




def _every_traced_op_step():
    """Leaves and a loss function whose graph runs every op in TRACED_OPS."""
    attn = LSConfig(seq_len=16, model_dim=8, heads=2, window=2, rank=2, seg_len=4,
                    mode="causal", dual_ln=True)
    model = lm.build_model(lm.ModelConfig(attention=attn, layers=1, ffn_dim=16, dropout=0.1,
                                          batch_size=2), Rng(3))
    batch = Rng(4).integers(0, 256, size=(2, 17))
    cfg = LSConfig(seq_len=12, model_dim=8, heads=2, window=2, rank=3, dual_ln=True)
    params = init_multi_head_params(Rng(5), cfg)
    x = Tensor(Rng(6).normal((2, 12, 8)), requires_grad=True)

    def loss():
        t = tensor_ops
        out = multi_head(x, params, lambda h, p: aggregate_head(h, p, cfg))
        low, high = t.slice_axis(out, -1, 0, 4), t.slice_axis(out, -1, 4, 8)
        extra = t.concat([t.sub(t.relu(low), t.scale(high, 0.5)), low], axis=-1)
        # The long-short layers run no masked_softmax or transpose_last; exact attention does.
        exact = full_attention_head(x, params.heads[0])
        loss = t.add(lm.sequence_loss(model, batch, Rng(7)), t.tensor_sum(t.mul(extra, extra)))
        return t.add(loss, t.tensor_sum(exact))

    return model.parameter_list() + [x] + [t for _, t in params.named_parameters()], loss


def test_wrapped_backward_closures_give_identical_gradients(monkeypatch):
    # A tracer replaces each traced op in every lsattn module and swaps the
    # returned output's _backward for a zero-argument wrapper that calls the
    # original. Gradients must not change by a bit.
    leaves, loss = _every_traced_op_step()
    plain = gradients(loss(), leaves)
    seen, ran = [], []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            backward = out._backward
            if backward is not None:
                assert not inspect.signature(backward).parameters, name
                seen.append(name)

                def timed_backward():
                    ran.append(name)
                    backward()
                out._backward = timed_backward
            return out
        return wrapper

    for name in TRACED_OPS:
        original = getattr(tensor_ops, name)
        wrapper = traced(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lsattn" or mod_name.startswith("lsattn."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    wrapped = gradients(loss(), leaves)
    assert set(seen) == set(TRACED_OPS)
    assert sorted(ran) == sorted(seen)
    assert all(np.array_equal(a, b) for a, b in zip(plain, wrapped))


def _tensors(params):
    """Every Tensor a parameter container holds, per-head views included."""
    if isinstance(params, Tensor):
        yield params
    elif isinstance(params, list):
        for item in params:
            yield from _tensors(item)
    elif is_dataclass(params):
        for f in fields(params):
            yield from _tensors(getattr(params, f.name))


def test_parameters_are_trainable_and_forward_only_paths_build_no_graph(monkeypatch):
    cfg = LSConfig(seq_len=16, model_dim=8, heads=2, window=4, rank=2, seg_len=4,
                   mode="causal", dual_ln=True)
    built = [init_head_params(Rng(0), cfg), init_multi_head_params(Rng(1), cfg),
             init_block_params(Rng(2), cfg, ffn_dim=16),
             lm.build_model(lm.ModelConfig(attention=cfg, layers=2, ffn_dim=16), Rng(3))]
    every = [t for params in built for t in _tensors(params)]
    assert any(t.view_of is not None for t in every)
    assert all(t.requires_grad for t in every)

    attached = []
    attach = tensor_ops._attach
    monkeypatch.setattr(tensor_ops, "_attach", lambda *args: (attached.append(1), attach(*args)))

    def closures(run) -> int:
        before = len(attached)
        run()
        return len(attached) - before

    arch = ArchSpec(layers=1, model_dim=8, heads=2, ffn_dim=16, seq_len=16,
                    variant="long-short", window=4, rank=2, dual_ln=True)
    assert closures(lambda: measured_flops(arch)) == 0
    assert closures(lambda: run_scaling(arch, [16], reps=5, seed=0)) == 0
    assert closures(lambda: norm_ratio_probe(replace(cfg, mode="bidirectional"), range(10))) == 0

    per_check = {}
    for name in ("_softmax_contract", "_oracle_equivalence", "_stochasticity", "_causality",
                 "_gradients", "_flop_parity", "_norm_ratios"):
        def counted(seed, check=getattr(checks, name)):
            before = len(attached)
            result = check(seed)
            per_check[result.name] = len(attached) - before
            return result
        monkeypatch.setattr(checks, name, counted)
    results = checks.run_all_checks(1)
    assert [r.name for r in results] == list(per_check)
    assert per_check.pop("gradient-check") > 0  # the counter sees recorded ops
    assert per_check == dict.fromkeys(per_check, 0)
