"""Reverse-mode differentiation over recorded tensor graphs.

The graph is implicit and holds no data: every tensor produced while
gradients are enabled has a node (`tensor.Node`) with its parents' nodes and
a closure that routes its own gradient to them, keeping only the data it
reads. The closure reads that gradient through a weak reference to its node,
so a graph holds no reference cycles and is freed by reference counting once
its output is dropped. `gradients` walks the nodes and runs the closures in
reverse topological order, consuming the graph: it drops each closure once it
has run, and with it every buffer that only that closure read.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Node, Tensor

__all__ = ["gradients", "finite_diff_check"]

# Central-difference step of `finite_diff_check`.
FD_STEP = 1e-5


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def gradients(
    output: Tensor,
    params: Sequence[Tensor],
    seed: np.ndarray | float | None = None,
) -> list[np.ndarray]:
    """Gradients of `output` w.r.t. each parameter; zeros when disconnected.

    A parameter that views a leaf (`Tensor.view_of`) gets its own gradient
    plus the base's gradient at its index, so it may be used directly, through
    the base, or both. Interior gradients are dropped as soon as they have
    been routed to the node's parents, so only the requested parameters and
    the bases they view keep a .grad. The seed array is never written. The
    graph is consumed: each backward closure is dropped once it has run or
    been skipped, and a second call on the same graph raises RuntimeError.
    """
    if seed is None:
        seed_arr = np.ones(output.shape, dtype=np.float64)
    else:
        seed_arr = np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != output.shape:
            raise ShapeError(f"seed shape {seed_arr.shape} does not match output {output.shape}")
    root = output._node
    order = _topo_order(root)
    if any(node._parents and node._backward is None for node in order):
        raise RuntimeError("graph already consumed by gradients; run the forward again")
    kept = [t._node for t in (*params, *(p.view_of[0] for p in params if p.view_of is not None))]
    for node in (*order, *kept):
        node.grad = None
    root.grad, root._grad_owned = seed_arr, False
    keep = {id(node) for node in kept}
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward()
            if id(node) not in keep:
                node.grad = None
        node._backward = None
    return [_total_grad(p) for p in params]


def _total_grad(p: Tensor) -> np.ndarray:
    grad = p.grad
    if p.view_of is not None:
        base, index = p.view_of
        if base.grad is not None:
            grad = base.grad[index] if grad is None else grad + base.grad[index]
    return np.zeros_like(p.data) if grad is None else grad


def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` evaluates a scalar loss from the current parameter values. Every
    coordinate is checked, at two forward passes each, `FD_STEP` to either
    side. The denominator is max(|analytic|, |numeric|, 1e-8).
    """
    loss = f()
    if loss.shape != ():
        raise ShapeError("finite_diff_check requires a scalar-valued function")
    analytic = gradients(loss, params)
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + FD_STEP
            up = f().item()
            flat[i] = original - FD_STEP
            down = f().item()
            flat[i] = original
            numeric = (up - down) / (2.0 * FD_STEP)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
