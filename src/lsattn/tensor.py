"""Dense float64 tensors with reverse-mode gradient recording.

Every operation is a pure function: it never writes its inputs, and its
output is a new tensor, which may view an input's buffer (`reshape`,
`swap_axes`, `slice_axis`) or a buffer laid out for the next op (`attend`).
A tensor is its data plus a `Node`, which holds the graph side and no data:
gradient, shape, parents' nodes and backward closure. When gradients are
enabled and an input requires them, the op attaches a closure that keeps
only the tensors or arrays whose data it reads and the nodes it routes
gradients to, so an input that no backward reads is freed once its caller
drops it. The closure reads the op's output gradient through a weak
reference to the output's node, so graphs hold no reference cycles, and
`autodiff.gradients` drops each closure once it has run: reference counting
frees a buffer as soon as its last reader has run, or with the output of a
graph never walked, without waiting for the cyclic garbage collector. Gradients
accumulate under one ownership rule (`_accum`), and each backward job has
one rule: the operands of a matrix product (`matmul`) get their gradients
from `_product_grads`, one product each, and the logits of a softmax
(`masked_softmax`, `attend`) from `_softmax_grad`, whose row sums are one
einsum.
`sub` and `scale_by_array` are compositions of `add`, `scale` and `mul`, and
have no rule of their own. Values are always float64; masks are plain
boolean numpy arrays and never receive gradients. A tensor has no name;
parameters are named by the `named_parameters()` of their containers.

Where every caller used one value, the op fixes it: `layer_norm` adds
LAYER_NORM_EPS (1e-5) to the variance, `take` gathers rows, `tensor_sum`
sums every element, and `attend` takes five operands that share one batch
shape (it raises ShapeError rather than broadcasting them).

Importing this module sets glibc's malloc to keep freed memory for reuse
(`_pin_allocator`), process-wide; it does nothing on other C libraries.
"""

from __future__ import annotations

import ctypes
import math
import tracemalloc
import weakref
from contextlib import contextmanager
from types import SimpleNamespace
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
    "swap_axes",
    "reshape",
    "take",
    "slice_axis",
    "tensor_sum",
    "cross_entropy_mean",
    "scale_by_array",
    "no_grad",
    "count_flops_runtime",
    "track_peak_bytes",
]

# Added to the variance inside layer_norm's square root.
LAYER_NORM_EPS = 1e-5

# Bytes of product held at once when `_window_grad` adds the windows'
# second halves into the row gradient by runs of groups.
_BLOCK_BYTES = 1 << 18

_grad_enabled = True
_flop_counter: "RuntimeFlopCounter | None" = None

# mallopt parameters (glibc malloc.h) and the largest mmap threshold that
# 64-bit glibc accepts.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20


def _pin_allocator() -> bool:
    """Have glibc's malloc keep freed blocks up to 32 MB for reuse; True if it took both settings.

    Buffers below the mmap threshold come from the heap, and with trimming off
    the heap is never given back, so a training loop reuses the same pages
    every step instead of mapping and faulting them in again. Fixing the
    threshold also stops glibc from moving it with each freed block, which
    otherwise makes page faults and step times depend on heap history.
    Nothing happens, quietly, when no glibc is loaded.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
    trim_off = mallopt(_M_TRIM_THRESHOLD, -1) == 1
    return mmap_set and trim_off


_ALLOCATOR_PINNED = _pin_allocator()


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
    """Peak bytes that Python and numpy allocate inside the block, as tracemalloc reads them.

    The block yields an object whose `.peak` is set on exit: the traced peak
    less the bytes traced as held on entry. Every buffer counts once, views
    add nothing, and Python objects count too, so readings can differ by a
    few hundred bytes between runs. Tracing starts for the block and stops
    after it, unless a trace is already running: that trace keeps running,
    and its own peak is reset on entry.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    result = SimpleNamespace(peak=0)
    try:
        yield result
    finally:
        result.peak = tracemalloc.get_traced_memory()[1] - held
        if started:
            tracemalloc.stop()


class Node:
    """A tensor's place in the graph, without its data: what `autodiff.gradients` walks."""

    __slots__ = ("grad", "_grad_owned", "requires_grad", "shape", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool):
        self.grad: np.ndarray | None = None
        self._grad_owned = False
        self.requires_grad = requires_grad
        self.shape = shape
        self._parents: tuple[Node, ...] = ()
        self._backward: Callable[[], None] | None = None


def _on_node(name: str) -> property:
    return property(lambda t: getattr(t._node, name), lambda t, v: setattr(t._node, name, v))


class Tensor:
    """A dense row-major array of float64 values, optionally differentiable.

    grad, requires_grad, _parents and _backward are those of its node.
    view_of is None, or (base, index) for a leaf whose data is base.data[index]:
    `autodiff.gradients` then adds base's gradient at index to the leaf's own.
    """

    __slots__ = ("data", "view_of", "_node", "__weakref__")
    grad, requires_grad = _on_node("grad"), _on_node("requires_grad")
    _parents, _backward = _on_node("_parents"), _on_node("_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.view_of: tuple[Tensor, int | tuple[int, ...]] | None = None
        self._node = Node(self.data.shape, requires_grad)

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
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape if len(shape) > 1 else shape[0])


def _tracking(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t._node.requires_grad for t in tensors)


def _attach(out: Tensor, parents: tuple[Tensor, ...], route: Callable[[np.ndarray], None]) -> None:
    """Record the nodes of out's parents and a backward closure that hands out's grad to route.

    route never holds out or its node, and the closure reads the node through
    a weak reference, so out is in no reference cycle.
    """
    node = out._node
    node.requires_grad = True
    node._parents = tuple(p._node for p in parents)
    ref = weakref.ref(node)
    node._backward = lambda: route(ref().grad)


def _accum(t: Node, g: np.ndarray, owned: bool = True) -> None:
    """Add one gradient contribution g, of t's shape, into t.grad.

    owned says nothing else references g. A node whose grad is an array it
    owns adds later contributions in place. A g that aliases another node's
    array (`add`, `reshape`, `swap_axes` and `concat` hand on
    their output grad or views of it; `gradients` hands on the caller's seed)
    is kept but never written: the next contribution is added into a fresh
    array, or into itself when it is owned.
    """
    if t.grad is None:
        t.grad, t._grad_owned = g, owned
    elif t._grad_owned:
        t.grad += g
    elif owned:
        g += t.grad
        t.grad, t._grad_owned = g, True
    else:
        t.grad, t._grad_owned = t.grad + g, True


def _pass_on(t: Node, g: np.ndarray) -> None:
    """Route an op's output grad g to input node t: summed where t was broadcast, else shared."""
    part = _unbroadcast(g, t.shape)
    _accum(t, part, owned=part is not g)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded, in one reduction."""
    extra = grad.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        extra + i for i, dim in enumerate(shape) if dim == 1 and grad.shape[extra + i] != 1
    )
    return grad.sum(axis=axes).reshape(shape) if axes else grad


def _runs(n: int, row_bytes: int) -> list[slice]:
    """range(n) cut into the fewest near-equal runs of at most `_BLOCK_BYTES` at row_bytes per index.

    A run holds one index where one index alone holds more.
    """
    count = max(1, -(-n // max(1, _BLOCK_BYTES // max(1, row_bytes))))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _summed_product(x: np.ndarray, y: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """np.matmul(x, y) summed over the batch axes where `shape` is 1 or missing, in one product.

    Each such axis of more than one index is folded into the inner dimension:
    moved to just before x's last axis and y's second-last, and merged with
    it. Both x and y span every axis folded, since the operand of `shape` was
    broadcast along it, so nothing is broadcast or summed apart.
    """
    batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    nb, lead = len(batch), len(batch) + 2 - len(shape)
    summed = [i for i, n in enumerate(batch) if n > 1 and (i < lead or shape[i - lead] == 1)]
    if summed:
        kept, size = [i for i in range(nb) if i not in summed], math.prod(batch[i] for i in summed)
        x, y = (t.reshape((1,) * (nb + 2 - t.ndim) + t.shape) for t in (x, y))
        x = x.transpose(kept + [nb] + summed + [nb + 1]).reshape(
            [x.shape[i] for i in kept] + [x.shape[nb], size * x.shape[nb + 1]])
        y = y.transpose(kept + summed + [nb, nb + 1]).reshape(
            [y.shape[i] for i in kept] + [size * y.shape[nb], y.shape[nb + 1]])
    return np.matmul(x, y).reshape(shape)


def _product_grads(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Add the gradients of a @ b, whose output gradient is g, into a.grad and b.grad.

    Each operand's gradient is one product (`_summed_product`): g @ b^T for
    a and a^T @ g for b, with every batch axis the operand was broadcast
    along folded into the inner dimension. For x (B, 1, n, d) against
    stacked weights (h, d, e) that is g as (B, n, h*e) times w^T as (h*e, d);
    for a 2-D weight against (B, n, d) it is x as (B*n, d), transposed, times
    g as (B*n, e).
    """
    for t, x, y in ((a, g, np.swapaxes(b.data, -1, -2)), (b, np.swapaxes(a.data, -1, -2), g)):
        if t.requires_grad:
            _accum(t._node, _summed_product(x, y, t.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))
    if _flop_counter is not None:
        _flop_counter.matmul_macs += out.size * a.shape[-1]
    if _tracking(a, b):
        _attach(out, (a, b), lambda g: _product_grads(a, b, g))
    return out


def _softmax(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax over the last axis, computed in one fresh buffer.

    Masked entries are set to -inf before the shift, so exp pins them to 0.
    """
    if mask is None:
        out = x - x.max(axis=-1, keepdims=True)
    else:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise FullyMaskedRowError("softmax row with no attendable entries")
        out = np.where(mask, x, -np.inf)
        out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_grad(g: np.ndarray, p: np.ndarray, owned: bool = False) -> np.ndarray:
    """Gradient of a last-axis softmax's logits, P * (dP - rowsum(dP * P)).

    It is formed in g's buffer when the caller owns g, else in a fresh one.
    The row sums come from one einsum, which forms no dP * P and copies
    neither g nor p.
    """
    s = np.einsum("...i,...i->...", g, p)[..., None]
    t = np.subtract(g, s, out=g if owned else None)
    t *= p
    return t


def masked_softmax(logits: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis with excluded positions pinned to exactly 0.

    Row maxima are taken over attendable entries only, so values at masked
    positions can never influence the result, not even in the last bit.
    """
    p = _softmax(logits.data, mask)
    out = Tensor(p)
    if _tracking(logits):
        node = logits._node
        _attach(out, (logits,), lambda g: _accum(node, _softmax_grad(g, p)))
    return out


def _windows(rows: np.ndarray, w: int, offset: int) -> np.ndarray:
    """The 2w window slots of every group of w rows, (..., groups, 2w, d), read-only.

    rows (..., n, d) are copied once into a zero buffer of n + w rows, with
    `offset` zero rows in front, so window slot j of group g is row
    g*w - offset + j. The windows overlap by w rows: they are one strided
    view of that buffer. At w = 0 there is one empty window and no copy.
    """
    *batch, n, d = rows.shape
    if w == 0:
        return np.empty((*batch, 1, 0, d))
    padded = np.zeros((*batch, n + w, d))
    padded[..., offset : offset + n, :] = rows
    *lead, row, col = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded, (*batch, n // w, 2 * w, d), (*lead, w * row, row, col), writeable=False)


def _window_grad(weights: np.ndarray, rows: np.ndarray, w: int, offset: int) -> np.ndarray:
    """Row gradient (..., groups * w, d) of the window slots, without building windows.

    weights (..., groups, w, 2w + ...) scale rows (..., groups, w, d). Window
    g's halves land on blocks g and g + 1 of `_windows`' padded rows; the
    second halves are added in by runs of groups (`_runs`).
    """
    lo, hi = (np.swapaxes(weights[..., cols], -1, -2) for cols in (slice(None, w), slice(w, 2 * w)))
    groups, d = lo.shape[-3], rows.shape[-1]
    blocks = np.zeros(lo.shape[:-3] + (groups + 1, w, d))
    np.matmul(lo, rows, out=blocks[..., :-1, :, :])
    for run in _runs(groups, blocks[..., :1, :, :].nbytes):
        after = slice(run.start + 1, run.stop + 1)
        blocks[..., after, :, :] += np.matmul(hi[..., run, :, :], rows[..., run, :, :])
    return blocks.reshape(lo.shape[:-3] + (-1, d))[..., offset : offset + groups * w, :]


def attend(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    kbar: Tensor,
    vbar: Tensor,
    attendable: np.ndarray,
    offset: int,
) -> tuple[Tensor, np.ndarray]:
    """Long-short attention: one masked softmax per query over [window | projected] slots.

    attendable is (groups, size, 2w + slots) and q is (..., groups * size, d):
    its rows form `groups` consecutive groups of `size` queries. k and v are
    window keys and values in q's row layout; with w > 0 each group is a
    window segment (size = w), and window slot j of group g is row
    g*w - offset + j, zero outside k's rows. kbar and vbar are (..., slots, d).
    A zero-width branch is no graph parent: k and v at w = 0 (they are not
    read either), kbar and vbar with no projected slots. All five operands
    share one batch shape (...). Logits are q.k / sqrt(d). Returns the output
    (..., groups * size, d) and the weights (..., groups, size, 2w + slots),
    with masked slots exactly 0. With batch axes, the output is a view of a
    buffer that keeps the rows outside the last batch axis,
    (..., groups * size, h, d) for a head axis h, so joining the heads of
    each row into one of width h * d is a view.

    The backward pass reads the operands and P, and drops each after its last
    read; it writes none. It copies k's and v's rows into zero-padded windows
    (`_windows`) and drops the rows; forms dP in one buffer and drops v's
    windows and vbar; forms v's and vbar's gradients; turns dP into dS = P *
    (dP - rowsum(dP * P)) in place by `masked_softmax`'s rule (`_softmax_grad`)
    and drops P; forms k's and kbar's gradients and drops q; then forms q's,
    dropping k's windows before the product with kbar.
    The runtime counter gets the MACs of the score and value products of
    both slot kinds, 2 * d per weight.
    """
    groups, size, span = attendable.shape
    batch, d, slots = q.shape[:-2], q.shape[-1], kbar.shape[-2]
    w = (span - slots) // 2
    if (q.shape[-2] != groups * size or k.shape != q.shape or v.shape != q.shape
            or kbar.shape != batch + (slots, d) or vbar.shape != kbar.shape
            or span != 2 * w + slots or w < 0 or (w and size != w) or not 0 <= offset <= w):
        raise ShapeError(
            f"attend shapes disagree: q {q.shape}, k/v {k.shape}/{v.shape}, projected "
            f"{kbar.shape}/{vbar.shape}, mask {attendable.shape}, offset {offset}"
        )
    if not w:  # k and v are not read at w = 0, only their shape, which is q's
        k = v = q
    window = (k, v) if w else ()
    projected = (kbar, vbar) if slots else ()
    rows = batch + (groups * size,)
    inv_scale = 1.0 / math.sqrt(d)
    q_grouped = q.data.reshape(q.shape[:-2] + (groups, size, d))
    logits = np.empty(batch + (groups, size, span))
    np.matmul(q_grouped, np.swapaxes(_windows(k.data, w, offset), -1, -2),
              out=logits[..., : 2 * w])
    np.matmul(q.data, np.swapaxes(kbar.data, -1, -2),
              out=logits.reshape(rows + (span,))[..., 2 * w :])
    logits *= inv_scale
    p = _softmax(logits, attendable)
    del logits
    p.setflags(write=False)
    p_far = p[..., 2 * w :].reshape(rows + (slots,))
    if batch:
        out_data = np.swapaxes(np.empty(batch[:-1] + (groups * size, batch[-1], d)), -3, -2)
    else:
        out_data = np.empty(rows + (d,))
    np.matmul(p[..., : 2 * w], _windows(v.data, w, offset),
              out=out_data.reshape(batch + (groups, size, d)))
    out_data += np.matmul(p_far, vbar.data)
    out = Tensor(out_data)
    if _flop_counter is not None:
        _flop_counter.matmul_macs += 2 * p.size * d
    if _tracking(q, *window, *projected):
        q_node, k_node, v_node, kbar_node, vbar_node = (t._node for t in (q, k, v, kbar, vbar))
        def route(g: np.ndarray) -> None:
            nonlocal q, q_grouped, k, v, vbar, p, p_far  # each dropped after its last read
            k_win = _windows(k.data, w, offset)
            del k
            v_win = _windows(v.data, w, offset)
            del v
            g_grouped = g.reshape(batch + (groups, size, d))
            dp = np.empty(p.shape)
            np.matmul(g_grouped, np.swapaxes(v_win, -1, -2), out=dp[..., : 2 * w])
            np.matmul(g_grouped, np.expand_dims(np.swapaxes(vbar.data, -1, -2), -3),
                      out=dp[..., 2 * w :])
            del v_win, vbar
            if w and v_node.requires_grad:
                _accum(v_node, _window_grad(p, g_grouped, w, offset))
            if slots and vbar_node.requires_grad:
                _accum(vbar_node, np.matmul(np.swapaxes(p_far, -1, -2), g))
            ds = _softmax_grad(dp, p, owned=True)
            del dp, p, p_far  # the closure runs at most once
            ds *= inv_scale
            ds_far = ds[..., 2 * w :].reshape(rows + (slots,))
            if w and k_node.requires_grad:
                _accum(k_node, _window_grad(ds, q_grouped, w, offset))
            if slots and kbar_node.requires_grad:
                _accum(kbar_node, np.matmul(np.swapaxes(ds_far, -1, -2), q.data))
            del q, q_grouped
            if q_node.requires_grad:
                dq = np.matmul(ds[..., : 2 * w], k_win).reshape(rows + (d,))
                del k_win
                dq += np.matmul(ds_far, kbar.data)
                _accum(q_node, dq)
        _attach(out, (q, *window, *projected), route)
    return out, p


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit population variance.

    LAYER_NORM_EPS (1e-5) sits inside the square root. A constant row maps
    to the bias only where its mean, a sum over d divided by d, rounds back
    to the row's value; elsewhere (at d = 3, 7 and 64, among others) the
    rounding error, scaled up by 1/sqrt(eps), is left, up to about 1e-13
    times the row's value. gain and bias share one shape (..., d), which
    broadcasts against x; a stacked (h, 1, d) pair gives each head of an
    (..., h, n, d) input its own norm.

    Only the row means and reciprocal deviations, (..., 1), are kept for the
    backward pass, which recomputes the normalized rows from x and holds at
    most them and dx at full size.
    """
    d = x.shape[-1]
    if gain.shape[-1:] != (d,) or bias.shape != gain.shape:
        raise ShapeError(f"layer_norm gain/bias must share a shape (..., {d})")
    # Means are sums over d (what ndarray.mean computes, without its call
    # overhead), and each step after the first works in place.
    mean = x.data.sum(axis=-1, keepdims=True) / d
    xhat = x.data - mean
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data
    if _flop_counter is not None:
        _flop_counter.layer_norm_flops += 4 * x.size
    out = Tensor(out_data)
    if _tracking(x, gain, bias):
        shift = bias._node
        def route(g: np.ndarray) -> None:
            xhat = x.data - mean
            xhat *= inv
            if gain.requires_grad:
                _accum(gain._node, _unbroadcast(g * xhat, gain.shape))
            if shift.requires_grad:
                _pass_on(shift, g)
            if x.requires_grad:
                dx = g * gain.data
                m1 = dx.sum(axis=-1, keepdims=True) / d
                m2 = np.einsum("...i,...i->...", dx, xhat)[..., None] / d
                dx -= m1
                xhat *= m2
                dx -= xhat
                dx *= inv
                _accum(x._node, _unbroadcast(dx, x.shape))
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
        nodes = [t._node for t in tensors]
        def route(g: np.ndarray) -> None:
            offset = 0
            for t in nodes:
                if t.requires_grad:
                    index = [slice(None)] * g.ndim
                    index[ax] = slice(offset, offset + t.shape[ax])
                    _accum(t, g[tuple(index)], owned=False)
                offset += t.shape[ax]
        _attach(out, tuple(tensors), route)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    if _tracking(a, b):
        nodes = (a._node, b._node)
        def route(g: np.ndarray) -> None:
            for t in nodes:
                if t.requires_grad:
                    _pass_on(t, g)
        _attach(out, (a, b), route)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    if _tracking(a, b):
        def route(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a._node, _unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                _accum(b._node, _unbroadcast(g * a.data, b.shape))
        _attach(out, (a, b), route)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    f = float(factor)
    out = Tensor(a.data * f)
    if _tracking(a):
        node = a._node
        _attach(out, (a,), lambda g: _accum(node, g * f))
    return out


def scale_by_array(a: Tensor, arr: np.ndarray) -> Tensor:
    """Elementwise product with a constant array (e.g. a dropout mask)."""
    return mul(a, Tensor(arr))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    if _tracking(a):
        kept, node = out.data, a._node  # out > 0 exactly where a > 0: a is not read
        _attach(out, (a,), lambda g: _accum(node, g * (kept > 0)))
    return out


def swap_axes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    """Swap two axes; a view, which a following reshape copies unless the buffer matches."""
    out = Tensor(np.swapaxes(a.data, axis1, axis2))
    if _tracking(a):
        node = a._node
        _attach(out, (a,), lambda g: _accum(node, np.swapaxes(g, axis1, axis2), owned=False))
    return out


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return swap_axes(a, -1, -2)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if _tracking(a):
        node = a._node
        _attach(out, (a,), lambda g: _accum(node, g.reshape(node.shape), owned=False))
    return out


def take(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows (slices of the first axis); duplicate indices are allowed."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(np.take(a.data, idx, axis=0))
    if _tracking(a):
        node = a._node
        def route(g: np.ndarray) -> None:
            acc = np.zeros(node.shape)
            np.add.at(acc, idx, g)
            _accum(node, acc)
        _attach(out, (a,), route)
    return out


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) of one axis."""
    ax = axis % a.ndim
    index = (slice(None),) * ax + (slice(start, stop),)
    out = Tensor(a.data[index])
    if _tracking(a):
        node = a._node
        def route(g: np.ndarray) -> None:
            acc = np.zeros(node.shape)
            acc[index] = g
            _accum(node, acc)
        _attach(out, (a,), route)
    return out


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all elements, a 0-d tensor."""
    out = Tensor(a.data.sum())
    if _tracking(a):
        node = a._node
        _attach(out, (a,), lambda g: _accum(node, np.broadcast_to(g, node.shape).copy()))
    return out


def cross_entropy_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood (nats) of integer targets over the last axis.

    Forward's exp(x - max) and backward's gradient each take one logits-sized
    buffer, worked in place; backward keeps only the row log-sum-exps.
    """
    t = np.asarray(targets, dtype=np.intp)
    if t.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {t.shape} does not match logits {logits.shape}")
    m = logits.data.max(axis=-1, keepdims=True)
    shifted = logits.data - m
    lse = m + np.log(np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True))
    out = Tensor((lse - np.take_along_axis(logits.data, t[..., None], axis=-1)).mean())
    if _tracking(logits):
        def route(g: np.ndarray) -> None:
            p = logits.data - lse
            np.exp(p, out=p)
            np.put_along_axis(p, t[..., None], np.take_along_axis(p, t[..., None], -1) - 1.0, -1)
            p *= float(g) / t.size
            _accum(logits._node, p)
        _attach(out, (logits,), route)
    return out


class Rng:
    """Deterministic random stream whose entropy is its seed and path of child keys.

    numpy pads the entropy with zero words, so child 0 draws what its parent
    draws; no builder draws from both a stream and its child 0.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self._path = _path
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, *_path])))

    def child(self, key: int) -> "Rng":
        """Independent stream keyed by this path plus key; order of creation is irrelevant."""
        return Rng(self.seed, _path=(*self._path, int(key)))

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def init_matrix(rng: Rng, rows: int, cols: int) -> Tensor:
    """A trainable leaf: zero-mean uniform init with variance 1/rows (fan-in scaling)."""
    limit = np.sqrt(3.0 / rows)
    data = rng.uniform((rows, cols), -limit, limit)
    return Tensor(data, requires_grad=True)
