"""Dense float64 tensors with reverse-mode gradient recording.

Every operation is a pure function: it allocates a fresh output tensor and,
when gradients are enabled and an input requires them, attaches a backward
closure. Values are always float64; masks are plain boolean numpy arrays and
never receive gradients.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, FullyMaskedRowError, ShapeError

__all__ = [
    "Tensor",
    "Rng",
    "matmul",
    "masked_softmax",
    "attend",
    "layer_norm",
    "concat",
    "init_matrix",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "transpose_last",
    "reshape",
    "take",
    "slice_axis",
    "tensor_sum",
    "tensor_mean",
    "cross_entropy_mean",
    "scale_by_array",
    "no_grad",
    "count_flops_runtime",
    "track_peak_bytes",
]

_grad_enabled = True
_flop_counter: "RuntimeFlopCounter | None" = None
_alloc_tracker: "PeakBytesTracker | None" = None


class RuntimeFlopCounter:
    """Accumulates the cost of executed ops under the package convention.

    One multiply-accumulate in a matrix product counts as one FLOP; a layer
    normalization counts 4 FLOPs per normalized element. Nothing else is
    counted.
    """

    def __init__(self) -> None:
        self.matmul_macs = 0
        self.layer_norm_flops = 0

    @property
    def total(self) -> int:
        return self.matmul_macs + self.layer_norm_flops


class PeakBytesTracker:
    """Byte counter fed by tensor buffer allocations and releases."""

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def _acquire(self, nbytes: int) -> None:
        self.current += nbytes
        if self.current > self.peak:
            self.peak = self.current

    def _release(self, nbytes: int) -> None:
        self.current -= nbytes


@contextmanager
def no_grad():
    """Disable gradient recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def count_flops_runtime():
    """Count FLOPs of ops executed inside the block (convention above)."""
    global _flop_counter
    prev = _flop_counter
    counter = RuntimeFlopCounter()
    _flop_counter = counter
    try:
        yield counter
    finally:
        _flop_counter = prev


@contextmanager
def track_peak_bytes():
    """Track peak bytes held by tensor buffers allocated inside the block."""
    global _alloc_tracker
    prev = _alloc_tracker
    tracker = PeakBytesTracker()
    _alloc_tracker = tracker
    try:
        yield tracker
    finally:
        _alloc_tracker = prev


class Tensor:
    """A dense row-major array of float64 values, optionally differentiable."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None
        if _alloc_tracker is not None:
            _alloc_tracker._acquire(self.data.nbytes)
            weakref.finalize(self, _alloc_tracker._release, self.data.nbytes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # Convenience operators; the named functions below carry the contracts.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def _tracking(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _attach(out: Tensor, parents: tuple[Tensor, ...], backward: Callable[[], None]) -> None:
    out.requires_grad = True
    out._parents = parents
    out._backward = backward


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Never mutate in place: an earlier contribution may alias a consumer's grad.
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)
    if _flop_counter is not None:
        _flop_counter.matmul_macs += out_data.size * a.shape[-1]
    out = Tensor(out_data)
    if _tracking(a, b):
        def route() -> None:
            g = out.grad
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                _accum(a, _unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                _accum(b, _unbroadcast(gb, b.shape))
        _attach(out, (a, b), route)
    return out


def _softmax(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    if mask is None:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise FullyMaskedRowError("softmax row with no attendable entries")
        z = np.where(mask, x, -np.inf)
        shifted = z - z.max(axis=-1, keepdims=True)
        exp = np.where(mask, np.exp(shifted), 0.0)
    return exp / exp.sum(axis=-1, keepdims=True)


def masked_softmax(logits: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis with excluded positions pinned to exactly 0.

    Row maxima are taken over attendable entries only, so values at masked
    positions can never influence the result, not even in the last bit.
    """
    p = _softmax(logits.data, mask)
    out = Tensor(p)
    if _tracking(logits):
        def route() -> None:
            g = out.grad
            inner = (g * p).sum(axis=-1, keepdims=True)
            _accum(logits, p * (g - inner))
        _attach(out, (logits,), route)
    return out


def _windows(blocks: np.ndarray) -> np.ndarray:
    """(..., groups + 1, w, d) blocks to (..., groups, 2w, d) windows: blocks g and g + 1."""
    return np.concatenate([blocks[..., :-1, :, :], blocks[..., 1:, :, :]], axis=-2)


def _fold_windows(grad: np.ndarray, w: int) -> np.ndarray:
    """Adjoint of `_windows`: each window's two halves go back onto their blocks."""
    out = np.zeros(grad.shape[:-3] + (grad.shape[-3] + 1, w, grad.shape[-1]))
    out[..., :-1, :, :] = grad[..., :w, :]
    out[..., 1:, :, :] += grad[..., w:, :]
    return out


def attend(
    q: Tensor,
    k_blocks: Tensor,
    v_blocks: Tensor,
    kbar: Tensor,
    vbar: Tensor,
    attendable: np.ndarray,
) -> tuple[Tensor, np.ndarray]:
    """Long-short attention: one masked softmax per query over [window | projected] slots.

    attendable is (groups, size, 2w + slots) and q is (..., groups * size, d):
    its rows form `groups` consecutive groups of `size` queries. k_blocks and
    v_blocks are (..., groups + 1, w, d), and the 2w window slots of group g
    are blocks g and g + 1 joined. kbar and vbar are (..., slots, d). Logits
    are q.k / sqrt(d). Returns the output (..., groups * size, d) and the
    weights (..., groups, size, 2w + slots), with masked slots exactly 0.

    Only the weights P are kept for the backward pass, which uses
    dS = P * (dP - rowsum(dP * P)). The logits and P are held as tensors, so
    `track_peak_bytes` sees the logits while the softmax runs and P for as
    long as the backward pass may need it. The runtime counter gets the MACs
    of the score and value products of both slot kinds, 2 * d per weight.
    """
    groups, size, span = attendable.shape
    w, d = k_blocks.shape[-2], q.shape[-1]
    slots = kbar.shape[-2]
    if (q.shape[-2] != groups * size or k_blocks.shape[-3] != groups + 1
            or span != 2 * w + slots or v_blocks.shape != k_blocks.shape
            or vbar.shape != kbar.shape):
        raise ShapeError(
            f"attend shapes disagree: q {q.shape}, blocks {k_blocks.shape}/{v_blocks.shape}, "
            f"projected {kbar.shape}/{vbar.shape}, mask {attendable.shape}"
        )
    batch = q.shape[:-2]
    rows = batch + (groups * size,)
    inv_scale = 1.0 / math.sqrt(d)
    q_grouped = q.data.reshape(batch + (groups, size, d))
    logits = Tensor(np.concatenate([
        np.matmul(q_grouped, np.swapaxes(_windows(k_blocks.data), -1, -2)) * inv_scale,
        (np.matmul(q.data, np.swapaxes(kbar.data, -1, -2)) * inv_scale).reshape(
            batch + (groups, size, slots)),
    ], axis=-1))
    weights = Tensor(_softmax(logits.data, attendable))
    del logits
    p = weights.data
    p.setflags(write=False)
    p_local, p_far = p[..., : 2 * w], p[..., 2 * w :].reshape(rows + (slots,))
    out_local = np.matmul(p_local, _windows(v_blocks.data)).reshape(rows + (d,))
    out = Tensor(out_local + np.matmul(p_far, vbar.data))
    if _flop_counter is not None:
        _flop_counter.matmul_macs += 2 * p.size * d
    if _tracking(q, k_blocks, v_blocks, kbar, vbar):
        def route() -> None:
            g, p = out.grad, weights.data
            g_grouped = g.reshape(batch + (groups, size, d))
            dp = np.concatenate([
                np.matmul(g_grouped, np.swapaxes(_windows(v_blocks.data), -1, -2)),
                np.matmul(g, np.swapaxes(vbar.data, -1, -2)).reshape(batch + (groups, size, slots)),
            ], axis=-1)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * inv_scale
            ds_local, ds_far = ds[..., : 2 * w], ds[..., 2 * w :].reshape(rows + (slots,))
            if q.requires_grad:
                dq = np.matmul(ds_local, _windows(k_blocks.data)).reshape(rows + (d,))
                _accum(q, _unbroadcast(dq + np.matmul(ds_far, kbar.data), q.shape))
            if k_blocks.requires_grad:
                dk = _fold_windows(np.matmul(np.swapaxes(ds_local, -1, -2), q_grouped), w)
                _accum(k_blocks, _unbroadcast(dk, k_blocks.shape))
            if v_blocks.requires_grad:
                dv = _fold_windows(np.matmul(np.swapaxes(p_local, -1, -2), g_grouped), w)
                _accum(v_blocks, _unbroadcast(dv, v_blocks.shape))
            if kbar.requires_grad:
                _accum(kbar, _unbroadcast(np.matmul(np.swapaxes(ds_far, -1, -2), q.data), kbar.shape))
            if vbar.requires_grad:
                _accum(vbar, _unbroadcast(np.matmul(np.swapaxes(p_far, -1, -2), g), vbar.shape))
        _attach(out, (q, k_blocks, v_blocks, kbar, vbar), route)
    return out, p


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit population variance.

    eps sits inside the square root; constant rows map to the bias.
    """
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gain.data + bias.data
    if _flop_counter is not None:
        _flop_counter.layer_norm_flops += 4 * x.size
    out = Tensor(out_data)
    if _tracking(x, gain, bias):
        def route() -> None:
            g = out.grad
            if x.requires_grad:
                dxhat = g * gain.data
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                _accum(x, inv * (dxhat - m1 - xhat * m2))
            if gain.requires_grad:
                _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
            if bias.requires_grad:
                _accum(bias, g.reshape(-1, d).sum(axis=0))
        _attach(out, (x, gain, bias), route)
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along one axis; all other axes must agree."""
    if not tensors:
        raise ShapeError("concat of an empty list")
    ref = tensors[0].shape
    ax = axis % max(len(ref), 1)
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            t.shape[i] != ref[i] for i in range(len(ref)) if i != ax
        ):
            raise ShapeError(f"concat shapes disagree off axis {axis}: {[t.shape for t in tensors]}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=ax))
    if _tracking(*tensors):
        sizes = [t.shape[ax] for t in tensors]
        def route() -> None:
            g = out.grad
            offset = 0
            for t, size in zip(tensors, sizes):
                if t.requires_grad:
                    index = [slice(None)] * g.ndim
                    index[ax] = slice(offset, offset + size)
                    _accum(t, g[tuple(index)])
                offset += size
        _attach(out, tuple(tensors), route)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    if _tracking(a, b):
        def route() -> None:
            g = out.grad
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.shape))
        _attach(out, (a, b), route)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    if _tracking(a, b):
        def route() -> None:
            g = out.grad
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-g, b.shape))
        _attach(out, (a, b), route)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    if _tracking(a, b):
        def route() -> None:
            g = out.grad
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a.data, b.shape))
        _attach(out, (a, b), route)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    f = float(factor)
    out = Tensor(a.data * f)
    if _tracking(a):
        def route() -> None:
            _accum(a, out.grad * f)
        _attach(out, (a,), route)
    return out


def scale_by_array(a: Tensor, arr: np.ndarray) -> Tensor:
    """Elementwise product with a constant array (e.g. a dropout mask)."""
    arr = np.asarray(arr, dtype=np.float64)
    out = Tensor(a.data * arr)
    if _tracking(a):
        def route() -> None:
            _accum(a, _unbroadcast(out.grad * arr, a.shape))
        _attach(out, (a,), route)
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    if _tracking(a):
        positive = a.data > 0
        def route() -> None:
            _accum(a, out.grad * positive)
        _attach(out, (a,), route)
    return out


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    out = Tensor(np.swapaxes(a.data, -1, -2))
    if _tracking(a):
        def route() -> None:
            _accum(a, np.swapaxes(out.grad, -1, -2))
        _attach(out, (a,), route)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if _tracking(a):
        orig = a.shape
        def route() -> None:
            _accum(a, out.grad.reshape(orig))
        _attach(out, (a,), route)
    return out


def take(a: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Gather slices of one axis; duplicate indices are allowed."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(np.take(a.data, idx, axis=axis))
    if _tracking(a):
        ax = axis % a.ndim
        def route() -> None:
            acc = np.zeros_like(a.data)
            np.add.at(acc, (slice(None),) * ax + (idx,), out.grad)
            _accum(a, acc)
        _attach(out, (a,), route)
    return out


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) of one axis."""
    ax = axis % a.ndim
    index = (slice(None),) * ax + (slice(start, stop),)
    out = Tensor(a.data[index])
    if _tracking(a):
        def route() -> None:
            acc = np.zeros_like(a.data)
            acc[index] = out.grad
            _accum(a, acc)
        _attach(out, (a,), route)
    return out


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    if _tracking(a):
        def route() -> None:
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.shape).copy())
        _attach(out, (a,), route)
    return out


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    return scale(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def cross_entropy_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood (nats) of integer targets over the last axis."""
    t = np.asarray(targets, dtype=np.intp)
    if t.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {t.shape} does not match logits {logits.shape}")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(x, t[..., None], axis=-1)
    nll = lse - picked
    out = Tensor(nll.mean())
    if _tracking(logits):
        def route() -> None:
            g = float(out.grad)
            p = np.exp(x - lse)
            np.put_along_axis(p, t[..., None], np.take_along_axis(p, t[..., None], -1) - 1.0, -1)
            _accum(logits, p * (g / t.size))
        _attach(out, (logits,), route)
    return out


class Rng:
    """Deterministic random stream; identical seeds replay identical draws."""

    def __init__(self, seed: int, _sequence: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self._sequence = _sequence if _sequence is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._sequence))

    def child(self, key: int) -> "Rng":
        """Independent stream derived from (seed, key); order of creation is irrelevant."""
        return Rng(self.seed, _sequence=np.random.SeedSequence([self.seed, int(key)]))

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def init_matrix(
    rng: Rng, rows: int, cols: int, requires_grad: bool = False, name: str | None = None
) -> Tensor:
    """Zero-mean uniform init with variance 1/rows (fan-in scaling)."""
    limit = np.sqrt(3.0 / rows)
    data = rng.uniform((rows, cols), -limit, limit)
    return Tensor(data, requires_grad=requires_grad, name=name)
