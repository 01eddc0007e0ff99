"""Contracts of the dense tensor primitives."""

import ctypes
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsattn
from lsattn import Rng, Tensor, concat, gradients, init_matrix, layer_norm, masked_softmax, matmul
from lsattn import tensor as tensor_ops
from lsattn.errors import FullyMaskedRowError, ShapeError
from lsattn.tensor import (
    _ALLOCATOR_PINNED, _pin_allocator, _unbroadcast, add, attend, count_flops_runtime,
    cross_entropy_mean, mul, relu, reshape, scale, slice_axis, swap_axes, take,
    tensor_sum, transpose_last,
)


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product."""
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for q in range(k):
                acc += a[i, q] * b[q, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(eye, a).data, a.data)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        got = matmul(Tensor(a), Tensor(b)).data
        ref = naive_matmul(a, b)
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    @given(
        m=st.integers(1, 32), k=st.integers(1, 32), p=st.integers(1, 32),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_triple_loop_property(self, m, k, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, p))
        got = matmul(Tensor(a), Tensor(b)).data
        ref = naive_matmul(a, b)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(got - ref).max() <= 1e-12 * scale

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_pure(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        before_a, before_b = a.data.copy(), b.data.copy()
        first = matmul(a, b).data
        second = matmul(a, b).data
        assert np.array_equal(first, second)
        assert np.array_equal(a.data, before_a)
        assert np.array_equal(b.data, before_b)

    @given(
        kind=st.sampled_from(["batched", "stacked", "weight"]), batch=st.sampled_from([(), (2,), (3, 2)]),
        m=st.integers(1, 9), k=st.integers(1, 7), p=st.integers(1, 9), h=st.integers(2, 3),
        bias_rows=st.booleans(), bias_grad=st.booleans(), seed=st.integers(0, 2**31),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_bias_operand_equals_add_bit_for_bit(
        self, kind, batch, m, k, p, h, bias_rows, bias_grad, seed
    ):
        # batched: a and b share batch axes; stacked: a has a unit head axis
        # against (h, k, p) weights and an (h, 1, p) bias; weight: a 2-D
        # weight against a batched input. The bias is (p,), or (1, p) rows.
        a_shape, b_shape = {
            "batched": (batch + (m, k), batch + (k, p)),
            "stacked": (batch + (1, m, k), (h, k, p)),
            "weight": (batch + (m, k), (k, p)),
        }[kind]
        bias_shape = (h, 1, p) if kind == "stacked" else (1, p) if bias_rows else (p,)
        rng = np.random.default_rng(seed)
        data = [rng.normal(size=shape) for shape in (a_shape, b_shape, bias_shape)]
        results = []
        for fused in (True, False):
            a, b = (Tensor(x, requires_grad=True) for x in data[:2])
            bias = Tensor(data[2], requires_grad=bias_grad)
            with count_flops_runtime() as counter:
                out = matmul(a, b, bias) if fused else add(matmul(a, b), bias)
            probe = np.random.default_rng(seed + 1).normal(size=out.shape)
            results.append([out.data, *gradients(out, [a, b, bias], seed=probe), counter.total])
        for got, ref in zip(*results):
            assert np.array_equal(got, ref)

    @given(
        kind=st.sampled_from(["batched", "stacked", "weight", "crossed"]), left=st.booleans(),
        lead=st.sampled_from([(1,), (2,), (8,), (16,), (3, 2), (2, 8)]),
        m=st.sampled_from([1, 3, 64]),
        k=st.sampled_from([1, 5, 32]), p=st.sampled_from([1, 4, 40]), h=st.integers(2, 3),
        seed=st.integers(0, 2**31),
    )
    @example(kind="stacked", left=False, lead=(2,), m=1200, k=64, p=32, h=2, seed=5)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_operand_gradients_equal_the_reduced_product(self, kind, left, lead, m, k, p, h, seed):
        # On integer-valued operands every summation order is exact, so each
        # operand's one folded product must equal the full product reduced by
        # `_unbroadcast`, bit for bit. batched: a and b share leading axes;
        # stacked: (h, ., .) weights against an input with a unit head axis;
        # weight: a 2-D weight against a batched input; crossed: a unit head
        # axis against a unit leading axis. The weight takes either side;
        # m, k or p of 1 gives one-element operands. The example is the
        # projection product of x (2, 1, 1200, 64) and wp (2, 64, 32).
        wide = lead + (1,) if kind in ("stacked", "crossed") else lead
        narrow = {"batched": lead, "stacked": (h,), "weight": (),
                  "crossed": (1,) * len(lead) + (h,)}[kind]
        a_shape, b_shape = wide + (m, k), narrow + (k, p)
        if left:
            a_shape, b_shape = narrow + (m, k), wide + (k, p)
        rng = np.random.default_rng(seed)
        a, b = (Tensor(rng.integers(-8, 9, size=shape).astype(float), requires_grad=True)
                for shape in (a_shape, b_shape))
        out = matmul(a, b)
        probe = rng.integers(-8, 9, size=out.shape).astype(float)
        ga, gb = gradients(out, [a, b], seed=probe)
        a_t, b_t = (np.swapaxes(t.data, -1, -2) for t in (a, b))
        assert np.array_equal(ga, _unbroadcast(np.matmul(probe, b_t), a.shape))
        assert np.array_equal(gb, _unbroadcast(np.matmul(a_t, probe), b.shape))


class TestMaskedSoftmax:
    def test_uniform(self):
        out = masked_softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.abs(out.data - 1.0 / 3.0).max() < 1e-15

    def test_single_attendable(self):
        out = masked_softmax(Tensor([10.0, 0.0]), np.array([True, False]))
        assert out.data.tolist() == [1.0, 0.0]

    def test_no_overflow(self):
        out = masked_softmax(Tensor([1000.0, 999.0]))
        e = np.e
        expected = np.array([e / (1 + e), 1 / (1 + e)])
        assert np.isfinite(out.data).all()
        assert np.abs(out.data - expected).max() < 1e-12

    def test_fully_masked_row_rejected(self):
        with pytest.raises(FullyMaskedRowError):
            masked_softmax(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                           np.array([[True, True], [False, False]]))

    @given(rows=st.integers(1, 6), cols=st.integers(1, 9), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_and_masked_exact_zero(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=5.0, size=(rows, cols))
        mask = rng.random((rows, cols)) < 0.6
        mask[np.arange(rows), rng.integers(0, cols, size=rows)] = True
        out = masked_softmax(Tensor(logits), mask).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12
        assert (out[~mask] == 0.0).all()
        assert (out >= 0.0).all()

    def test_masked_values_cannot_leak(self):
        # Changing an excluded logit must not move the output at all.
        logits = np.array([1.0, 2.0, 3.0])
        mask = np.array([True, False, True])
        base = masked_softmax(Tensor(logits), mask).data
        logits[1] = 1e6
        bumped = masked_softmax(Tensor(logits), mask).data
        assert np.array_equal(base, bumped)

    @pytest.mark.parametrize("g_layout", ["contiguous", "swapped"])
    def test_gradient_holds_only_the_row_sums(self, g_layout):
        # dP of attend's stacked heads at n = 8192 (bidir-long), whose dP * P
        # would take 3.1 MB. Formed in dP's buffer, as attend does, the rule
        # holds the row sums (131,072 bytes) and numpy's 64 kB buffer for the
        # broadcast subtraction: no product and no copy of g, also when g is
        # a transposed view. Dyadic P and small-integer g make every
        # summation order exact, so the bits equal the composed formula.
        rng = np.random.default_rng(12)
        p = rng.integers(0, 64, size=(2, 1024, 8, 48)) / 64.0
        g = rng.integers(-8, 9, size=p.shape).astype(float)
        if g_layout == "swapped":
            g = np.swapaxes(np.ascontiguousarray(np.swapaxes(g, -1, -2)), -1, -2)
        expected = (g - (g * p).sum(axis=-1, keepdims=True)) * p
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = tensor_ops._softmax_grad(g, p, owned=True)
            transient = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert got is g
        assert got.tobytes() == expected.tobytes()
        assert transient <= 512 * 1024, transient


def composed_cross_entropy(x: np.ndarray, t: np.ndarray, g: float):
    """Mean NLL and its logits gradient, as separate numpy expressions."""
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    nll = lse - np.take_along_axis(x, t[..., None], axis=-1)
    p = np.exp(x - lse)
    np.put_along_axis(p, t[..., None], np.take_along_axis(p, t[..., None], -1) - 1.0, -1)
    return nll.mean(), p * (g / t.size)


class TestCrossEntropy:
    @given(
        batch=st.sampled_from([(1,), (5,), (2, 3), (8, 64)]), vocab=st.integers(1, 300),
        spread=st.sampled_from([0.1, 3.0, 300.0]), g=st.sampled_from([1.0, -0.25, 3.5]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_value_and_gradient_equal_the_composed_formula(self, batch, vocab, spread, g, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=spread, size=batch + (vocab,))
        t = rng.integers(0, vocab, size=batch)
        logits = Tensor(x, requires_grad=True)
        loss = cross_entropy_mean(logits, t)
        (grad,) = gradients(loss, [logits], seed=np.array(g))
        value, expected = composed_cross_entropy(x, t, g)
        assert loss.data == value
        assert np.array_equal(grad, expected)


class TestLayerNorm:
    @staticmethod
    def scalar_reference(x, gain, bias, eps):
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            mu = x[i].mean()
            var = ((x[i] - mu) ** 2).mean()
            out[i] = (x[i] - mu) / np.sqrt(var + eps) * gain + bias
        return out

    def test_standardized_row_fixed_point(self):
        # The exact fixed point has population variance 1 - eps because eps
        # sits inside the square root.
        eps = 1e-5
        rng = np.random.default_rng(1)
        row = rng.normal(size=16)
        row = (row - row.mean()) / row.std() * np.sqrt(1.0 - eps)
        out = layer_norm(Tensor(row[None]), Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.abs(out.data - row).max() < 1e-10

    def test_constant_row_maps_to_zero(self):
        out = layer_norm(Tensor(np.full((1, 8), 3.7)), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.array_equal(out.data, np.zeros((1, 8)))

    def test_scalar_reference(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 10))
        gain = rng.normal(size=10)
        bias = rng.normal(size=10)
        got = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        ref = self.scalar_reference(x, gain, bias, 1e-5)
        assert np.abs(got - ref).max() < 1e-12

    def test_idempotent_on_normalized_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 12))
        x = (x - x.mean(-1, keepdims=True)) / x.std(-1, keepdims=True)
        gain, bias = Tensor(np.ones(12)), Tensor(np.zeros(12))
        once = layer_norm(Tensor(x), gain, bias)
        twice = layer_norm(once, gain, bias)
        assert np.abs(twice.data - once.data).max() < 1e-9

    def test_moments(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 32))
        out = layer_norm(Tensor(x), Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        assert np.abs(out.mean(-1)).max() < 1e-10
        assert np.abs(out.var(-1) - 1.0).max() < 2e-5  # eps keeps variance just under 1


class TestConcatRows:
    def test_two_singletons(self):
        out = concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=0)
        assert out.data.tolist() == [[1.0], [2.0]]

    def test_empty_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = concat([Tensor(np.empty((0, 3))), x], axis=0)
        assert np.array_equal(out.data, x.data)

    @given(m=st.integers(0, 8), p=st.integers(0, 8), d=st.integers(1, 6), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_index_bookkeeping(self, m, p, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, d))
        b = rng.normal(size=(p, d))
        out = concat([Tensor(a), Tensor(b)], axis=0).data
        for i in range(m):
            assert np.array_equal(out[i], a[i])
        for j in range(p):
            assert np.array_equal(out[m + j], b[j])

    def test_trailing_dim_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)


# Ops whose backward reads no input data, on a (4, 3) input a and, for the
# two-input ops, a second (4, 3) input b.
UNREAD_INPUT_OPS = {
    "add": lambda a, b: add(a, b),
    "relu": lambda a, b: relu(a),
    "reshape": lambda a, b: reshape(a, (3, 4)),
    "swap_axes": lambda a, b: swap_axes(a, 0, 1),
    "concat": lambda a, b: concat([a, b], axis=0),
    "scale": lambda a, b: scale(a, -2.5),
    "take": lambda a, b: take(a, np.array([2, 0, 2])),
    "slice_axis": lambda a, b: slice_axis(a, 1, 1, 3),
    "tensor_sum": lambda a, b: tensor_sum(a),
}


def two_op_outputs():
    """A leaf w and two op outputs on it, each in a buffer of its own."""
    w = Tensor(Rng(1).normal((4, 3)), requires_grad=True)
    return w, [scale(w, 1.5), mul(w, w)]


class TestGraphHoldsOnlyWhatBackwardReads:
    @pytest.mark.parametrize("name", sorted(UNREAD_INPUT_OPS))
    def test_unread_input_is_freed_with_its_caller(self, name):
        # Once the caller drops the inputs, their buffers die while the
        # graph is alive (the op's output feeds a scale, which reads no data
        # either), and the gradients equal those of a run that kept them.
        def run(keep: bool):
            w, inputs = two_op_outputs()
            refs = [weakref.ref(t.data) for t in inputs]
            loss = scale(UNREAD_INPUT_OPS[name](*inputs), 1.0)
            if not keep:
                del inputs
            alive = [ref() is not None for ref in refs]
            return alive, gradients(loss, [w], Rng(2).normal(loss.shape))[0]

        alive, grad = run(keep=False)
        kept_alive, kept_grad = run(keep=True)
        assert alive == [False, False] and kept_alive == [True, True]
        assert grad.tobytes() == kept_grad.tobytes()
        assert np.abs(grad).max() > 0

    def test_attend_without_window_slots_keeps_no_window_rows(self):
        # At w = 0 the window keys and values are neither read nor graph
        # parents, so the graph does not keep them.
        _, (k, v) = two_op_outputs()
        refs = [weakref.ref(k.data), weakref.ref(v.data)]
        q, kbar = (Tensor(Rng(seed).normal(shape), requires_grad=True)
                   for seed, shape in ((3, (4, 3)), (4, (2, 3))))
        out, _ = attend(q, k, v, kbar, kbar, np.ones((1, 4, 2), dtype=bool), 0)
        del k, v
        assert all(ref() is None for ref in refs)
        assert all(np.abs(g).max() > 0 for g in gradients(tensor_sum(mul(out, out)), [q, kbar]))

    def test_matmul_operands_die_when_gradients_returns(self):
        # The operands live while the graph may still run, and `gradients`
        # consumes it: they die once it returns, with the loss still alive,
        # and a second call on that graph, or on one built on it, raises
        # rather than return zeros.
        w, (a, b) = two_op_outputs()
        refs = [weakref.ref(a.data), weakref.ref(b.data)]
        loss = tensor_sum(matmul(a, transpose_last(b)))
        del a, b
        assert all(ref() is not None for ref in refs)
        assert np.abs(gradients(loss, [w])[0]).max() > 0
        assert all(ref() is None for ref in refs)
        for again in (loss, scale(loss, 2.0)):
            with pytest.raises(RuntimeError, match="consumed"):
                gradients(again, [w])


class TestInitMatrix:
    def test_deterministic(self):
        a = init_matrix(Rng(7), 10, 4)
        b = init_matrix(Rng(7), 10, 4)
        assert np.array_equal(a.data, b.data)

    def test_sample_moments(self):
        rows, cols = 100, 100
        w = init_matrix(Rng(11), rows, cols).data
        n = w.size
        target_var = 1.0 / rows
        assert abs(w.mean()) < 3.0 * np.sqrt(target_var / n)
        assert abs(w.var() - target_var) < 0.1 * target_var


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal((5, 5))
        b = Rng(123).normal((5, 5))
        assert np.array_equal(a, b)

    def test_children_are_independent_of_creation_order(self):
        r = Rng(5)
        c2_first = r.child(2).normal((3,))
        r2 = Rng(5)
        _ = r2.child(1).normal((3,))
        c2_second = r2.child(2).normal((3,))
        assert np.array_equal(c2_first, c2_second)


class TestAllocatorSetting:
    def test_missing_libc_leaves_the_import_quiet(self):
        # With no C library to load, importing the package prints nothing,
        # warns nothing, and records that nothing was set.
        src = Path(lsattn.__file__).resolve().parent.parent
        code = ("import ctypes, numpy\n"
                "def missing(*args, **kwargs):\n"
                "    raise OSError('no C library')\n"
                "ctypes.CDLL = missing\n"
                "from lsattn import tensor\n"
                "assert tensor._ALLOCATOR_PINNED is False\n")
        done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

    def test_other_libc_is_left_alone(self, monkeypatch):
        class OtherLibc:
            def mallopt(self, param, value):
                raise AssertionError("mallopt called on a non-glibc libc")

        monkeypatch.setattr(ctypes, "CDLL", lambda name: OtherLibc())
        assert _pin_allocator() is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_glibc_accepts_both_settings(self):
        assert _ALLOCATOR_PINNED is True
        assert _pin_allocator() is True
