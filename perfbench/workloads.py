"""The benchmark workloads and their output checks.

Each workload is a closed loop with one caller. `run_unit` runs one unit of
that loop (one `lm.train` call, or one attention-layer training step) with step
boundaries stamped on a `StepClock`, optionally followed by forward-only
passes that it times itself. Inputs come from the seed alone.

Every call into lsattn goes through a module attribute looked up at call
time (`attention.multi_head`, not a local alias), so the tracer's wrappers
see it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from lsattn import attention, autodiff, causal, flops, lm, tensor
from lsattn.config import LSConfig
from lsattn.params import init_multi_head_params
from lsattn.tensor import Rng, Tensor
from tracing import Patcher, StepClock

Check = tuple[str, bool, str]

# Central differences: step, and the agreement required. The absolute term
# covers rounding in a loss that sums many float64 products.
FD_STEP = 1e-5
FD_ABS_TOL = 1e-6
FD_REL_TOL = 1e-5


def _fd_agrees(analytic: float, numeric: float) -> bool:
    return abs(analytic - numeric) <= FD_ABS_TOL + FD_REL_TOL * max(abs(analytic), abs(numeric))


def _finite_difference(params: list[Tensor], grads: list[np.ndarray],
                       loss_value: Callable[[], float], seed: int) -> Check:
    """Central differences on one seeded coordinate of each parameter."""
    gen = np.random.default_rng(seed)
    ok, worst = True, 0.0
    for param, grad in zip(params, grads):
        coord = tuple(int(gen.integers(0, s)) for s in param.shape)
        original = param.data[coord]
        param.data[coord] = original + FD_STEP
        up = loss_value()
        param.data[coord] = original - FD_STEP
        down = loss_value()
        param.data[coord] = original
        numeric = (up - down) / (2 * FD_STEP)
        ok &= _fd_agrees(float(grad[coord]), numeric)
        worst = max(worst, abs(float(grad[coord]) - numeric))
    return ("finite-difference", ok,
            f"max |analytic - numeric| {worst:.2e} on {len(params)} wq/wp coordinates")


def _attention_flops(cfg: LSConfig) -> int:
    """Closed-form FLOPs of one multi-head attention call on one sequence:
    the per-layer cost minus the feed-forward and the two block layer norms."""
    report = flops.count_flops(flops.ArchSpec(
        layers=1, model_dim=cfg.model_dim, heads=cfg.heads, ffn_dim=1,
        seq_len=cfg.seq_len, variant="long-short", window=cfg.window, rank=cfg.rank,
        seg_len=cfg.seg_len, mode=cfg.mode, dual_ln=cfg.dual_ln,
    ))
    block_norms = 4 * 2 * cfg.seq_len * cfg.model_dim
    return report.per_layer - report.components["feed_forward"] - block_norms


def graph_nodes(root: Tensor) -> int:
    """Tensors reachable from root through the recorded parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class GraphCounter:
    """Wraps autodiff.gradients to count the graph behind each call."""

    def __init__(self) -> None:
        self.nodes = 0
        self._patcher = Patcher()

    def __enter__(self) -> "GraphCounter":
        def make(fn):
            def counted(output, *args, **kwargs):
                self.nodes = graph_nodes(output)
                return fn(output, *args, **kwargs)
            return counted
        self._patcher.wrap(autodiff, "gradients", make)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()


def _flop_parity(closed: int, runtime: int) -> Check:
    return ("flop-parity", closed == runtime, f"closed form {closed}, runtime {runtime}")


def _prefix_check(forward: Callable[[Tensor], Tensor], x: np.ndarray, cfg: LSConfig,
                  seed: int) -> Check:
    """Editing the future leaves every earlier output of a causal layer bit-identical.

    One edit covers the last projection segment; a second starts one row
    into a window segment (n - l is a multiple of w), which also exposes a
    leak within the window.
    """
    n, l, w = cfg.seq_len, cfg.seg_len, cfg.window
    noise = Rng(seed).child(3).normal(x.shape)
    with tensor.no_grad():
        out = forward(Tensor(x)).data
    ok = True
    for start in (n - l, n - l - w + 1):
        edited = x.copy()
        edited[start:] += noise[start:]
        with tensor.no_grad():
            new = forward(Tensor(edited)).data
        ok &= np.array_equal(new[:start], out[:start]) and \
            not np.array_equal(new[start:], out[start:])
    return ("prefix-causality", ok,
            f"rows before {n - l} and {n - l - w + 1} unchanged by edits after them")


class AttentionLayer:
    """One bidirectional multi-head long-short layer: forward+backward against
    a fixed random cotangent, and a forward-only pass under no_grad."""

    def __init__(self, name: str, seed: int, cfg: LSConfig, min_warmup_steps: int):
        self.name = name
        self.min_warmup_steps = min_warmup_steps
        self.seed = seed
        self.cfg = cfg
        self.tokens_per_step = cfg.seq_len
        self.reference: tuple[np.ndarray, list[np.ndarray]] | None = None

    def build(self) -> None:
        cfg, rng = self.cfg, Rng(self.seed)
        self.params = init_multi_head_params(rng.child(0), cfg)
        self.x = Tensor(rng.child(1).normal((cfg.seq_len, cfg.model_dim)), requires_grad=True)
        self.cotangent = rng.child(2).normal((cfg.seq_len, cfg.model_dim))
        self.trainable = [self.x] + [t for _, t in self.params.named_parameters()]

    def _head(self, x: Tensor, hp) -> Tensor:
        return attention.aggregate_head(x, hp, self.cfg)

    def forward(self, x: Tensor | None = None) -> Tensor:
        return attention.multi_head(self.x if x is None else x, self.params, self._head)

    def step(self) -> tuple[np.ndarray, list[np.ndarray]]:
        out = self.forward()
        grads = autodiff.gradients(out, self.trainable, seed=self.cotangent)
        return out.data, grads

    def run_unit(self, clock: StepClock, with_forward: bool) -> list[float]:
        clock.stamp()
        result = self.step()
        clock.stamp(close=True)
        if self.reference is None:
            self.reference = result
        if not with_forward:
            return []
        started = time.perf_counter()
        with tensor.no_grad():
            self.forward()
        return [time.perf_counter() - started]

    def instrumented_steps(self, instruments: list[Callable]) -> None:
        for make in instruments:
            with make():
                self.step()

    def flop_counts(self) -> tuple[int, int]:
        with tensor.no_grad(), tensor.count_flops_runtime() as counter:
            self.forward()
        return _attention_flops(self.cfg), counter.total

    def _loss_value(self) -> float:
        with tensor.no_grad():
            return float(np.sum(self.forward().data * self.cotangent))

    def _finite_difference(self, grads: list[np.ndarray]) -> Check:
        params = [p for head in self.params.heads for p in (head.wq, head.wp)]
        index = {id(t): i for i, t in enumerate(self.trainable)}
        return _finite_difference(params, [grads[index[id(p)]] for p in params],
                                  self._loss_value, self.seed)

    def checks(self) -> list[Check]:
        out, grads = self.step()
        arrays = [out] + grads

        def same(other: tuple[np.ndarray, list[np.ndarray]]) -> bool:
            return all(np.array_equal(a, b) for a, b in zip(arrays, [other[0]] + other[1]))

        repeat = same(self.reference) and same(self.step())
        finite = all(np.isfinite(a).all() for a in arrays)
        with tensor.no_grad():
            fwd = self.forward().data
        return [
            ("repeat-bitwise", repeat, "first step, and two steps after timing, agree bit for bit"),
            ("finite", finite, "outputs and gradients are finite"),
            ("forward-only-bitwise", np.array_equal(fwd, out), "no_grad forward equals training forward"),
            _flop_parity(*self.flop_counts()),
            self._finite_difference(grads),
        ]

    def trace_layers(self) -> list[tuple]:
        return [
            (attention, "multi_head", "attention.multi_head", None),
            (attention, "aggregate_head", "attention.aggregate_head", None),
            (attention, "dynamic_projection", "attention.dynamic_projection", None),
            (autodiff, "gradients", "autodiff.gradients", None),
        ]


def long_range_copy_corpus(seed: int, size: int = 40_000) -> np.ndarray:
    """Random 16-letter blocks, each written six times in a row.

    A repeated block is predictable only from 16 positions back, outside the
    causal window, so the projected segments carry the learnable signal.
    """
    gen = np.random.default_rng(seed)
    out = bytearray()
    while len(out) < size:
        out += bytes(97 + gen.integers(0, 16, size=16).astype(np.uint8)) * 6
    return np.frombuffer(bytes(out[:size]), dtype=np.uint8)


class _Abandon(Exception):
    """Raised from a hook to leave an lm.train call early."""


class LmTrain:
    """Repeated `lm.train` calls on the toy byte LM, each from the same seed."""

    steps_per_call = 50
    min_warmup_steps = steps_per_call
    forward_passes = 10

    def __init__(self, seed: int):
        self.name = "lm-train"
        self.seed = seed
        self.attention = LSConfig(seq_len=64, model_dim=32, heads=2, window=2, rank=4,
                                  seg_len=4, mode="causal", dual_ln=True)
        self.tokens_per_step = 8 * self.attention.seq_len
        self.losses: list[list[float]] = []
        self.val_bpc: list[tuple[float, float]] = []
        self.forward_losses: list[float] = []
        self.model = None

    def build(self) -> None:
        self.cfg = lm.ModelConfig(attention=self.attention, layers=2, ffn_dim=64,
                                  learning_rate=0.5, batch_size=8,
                                  steps=self.steps_per_call, seed=self.seed)
        self.corpus = long_range_copy_corpus(self.seed)
        n = self.attention.seq_len
        offsets = Rng(self.seed).child(7).integers(0, self.corpus.size // 2, size=8)
        self.batch = np.stack([self.corpus[o:o + n + 1] for o in offsets]).astype(np.intp)

    @contextmanager
    def _hooks(self, on_train_forward: Callable[[float], None], on_val_return: Callable,
               on_eval_entry: Callable) -> Iterator[None]:
        """Observe step boundaries inside lm.train.

        A sequence_loss whose result requires grad is the training forward
        and starts a step; one that does not, outside evaluate_bpc, is the
        per-step validation forward; evaluate_bpc ends the last step. Only the
        result shows which forward ran, so on_train_forward gets the time the
        call was entered.
        """
        patcher = Patcher()
        evaluating = [False]

        def wrap_loss(fn):
            def hooked(*args, **kwargs):
                entered = time.perf_counter()
                out = fn(*args, **kwargs)
                if out.requires_grad:
                    on_train_forward(entered)
                elif not evaluating[0]:
                    on_val_return()
                return out
            return hooked

        def wrap_eval(fn):
            def hooked(*args, **kwargs):
                on_eval_entry()
                evaluating[0] = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    evaluating[0] = False
            return hooked

        patcher.wrap(lm, "sequence_loss", wrap_loss)
        patcher.wrap(lm, "evaluate_bpc", wrap_eval)
        try:
            yield
        finally:
            patcher.restore()

    def _train(self) -> None:
        model, report = lm.train(self.cfg, self.corpus)
        self.model = model
        self.losses.append(report.train_losses)
        self.val_bpc.append((report.val_bpcs[0], report.final_val_bpc))

    def run_unit(self, clock: StepClock, with_forward: bool) -> list[float]:
        with self._hooks(lambda t: clock.stamp(at=t), lambda: None,
                         lambda: clock.stamp(close=True)):
            self._train()
        times = []
        if with_forward:
            for _ in range(self.forward_passes):
                started = time.perf_counter()
                with tensor.no_grad():
                    loss = lm.sequence_loss(self.model, self.batch)
                times.append(time.perf_counter() - started)
                self.forward_losses.append(loss.item())
        return times

    def instrumented_steps(self, instruments: list[Callable]) -> None:
        """Start one train call; instrument j covers whole step j + 1.

        A step here runs from one validation forward's return to the next,
        which spans batch sampling, forward, gradients, update and validation.
        Every step of a call has the same shapes, so the call is abandoned
        once the last instrument closes instead of running to its end.
        """
        state = {"step": 0, "active": None}

        def on_val_return():
            if state["active"] is not None:
                state["active"].__exit__(None, None, None)
                state["active"] = None
            j = state["step"]
            if j == len(instruments):
                raise _Abandon
            state["active"] = instruments[j]()
            state["active"].__enter__()
            state["step"] += 1

        with self._hooks(lambda t: None, on_val_return, lambda: None):
            try:
                self._train()
            except _Abandon:
                pass
        if state["active"] is not None:
            state["active"].__exit__(None, None, None)

    def flop_counts(self) -> tuple[int, int]:
        """Attention FLOPs of one training forward: closed form vs runtime."""
        total = [0]
        patcher = Patcher()

        def make(fn):
            def counted(*args, **kwargs):
                with tensor.count_flops_runtime() as counter:
                    out = fn(*args, **kwargs)
                total[0] += counter.total
                return out
            return counted

        patcher.wrap(attention, "multi_head", make)
        try:
            with tensor.no_grad():
                lm.sequence_loss(self.model, self.batch)
        finally:
            patcher.restore()
        rows = self.batch.shape[0]
        return _attention_flops(self.attention) * self.cfg.layers * rows, total[0]

    def checks(self) -> list[Check]:
        first_losses = self.losses[0]
        val0, final = self.val_bpc[0]
        same = all(l == first_losses for l in self.losses) and \
            all(v == self.val_bpc[0] for v in self.val_bpc)
        repeat = [self._loss_value() for _ in range(2)]
        forward_same = all(v == repeat[0] for v in self.forward_losses + repeat)
        return [
            ("train-bitwise", same, f"{len(self.losses)} train calls give identical losses and val_bpc"),
            ("finite", all(math.isfinite(v) for v in first_losses), "training losses are finite"),
            ("val-bpc-improves", final < val0, f"final val_bpc {final:.5f} < step-0 {val0:.5f}"),
            ("forward-repeatable", forward_same, "forward-only losses identical"),
            _flop_parity(*self.flop_counts()),
            self._finite_difference(),
            self._prefix_check(),
        ]

    def _prefix_check(self) -> Check:
        """Causality of the trained first block's attention layer."""
        cfg = self.attention

        def forward(x: Tensor) -> Tensor:
            return attention.multi_head(x, self.model.blocks[0].attn,
                                        lambda h, hp: causal.causal_aggregate_head(h, hp, cfg))

        x = Rng(self.seed).child(8).normal((cfg.seq_len, cfg.model_dim))
        return _prefix_check(forward, x, cfg, self.seed)

    def _loss_value(self) -> float:
        with tensor.no_grad():
            return lm.sequence_loss(self.model, self.batch).item()

    def _finite_difference(self) -> Check:
        heads = self.model.blocks[0].attn.heads
        params = [p for head in heads for p in (head.wq, head.wp)]
        grads = autodiff.gradients(lm.sequence_loss(self.model, self.batch), params)
        return _finite_difference(params, grads, self._loss_value, self.seed)

    def trace_layers(self) -> list[tuple]:
        def name_loss(tracer, sid, out):
            parent = tracer.parent[sid]
            if parent >= 0 and tracer.names[tracer.name[parent]] == "lm.evaluate_bpc":
                tracer.rename(sid, "lm.evaluate_bpc.forward")
            elif not out.requires_grad:
                tracer.rename(sid, "lm.val_forward")

        return [
            (lm, "sequence_loss", "lm.forward", name_loss),
            (lm, "evaluate_bpc", "lm.evaluate_bpc", None),
            (attention, "multi_head", "attention.multi_head", None),
            (causal, "causal_aggregate_head", "causal.aggregate_head", None),
            (autodiff, "gradients", "autodiff.gradients", None),
        ]


def make_workload(name: str, seed: int):
    """The bidir-long minimum warm-up sits past where minor faults settled in
    trial runs (about 20 steps, until glibc starts reusing freed chunks)."""
    if name == "lm-train":
        return LmTrain(seed)
    if name == "bidir-long":
        cfg = LSConfig(seq_len=8192, model_dim=64, heads=2, window=8, rank=32, dual_ln=True)
        return AttentionLayer(name, seed, cfg, 24)
    raise ValueError(f"unknown workload {name!r}")
