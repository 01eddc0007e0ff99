"""Instrumentation applied from outside the lsattn package.

Nothing here edits lsattn. Public functions are swapped for timing wrappers
in every lsattn module that holds a reference to them, and swapped back
afterwards. Three instruments share that mechanism:

- `StepClock` stamps step boundaries, so the end-to-end step time of a loop
  that runs inside `lm.train` can be read from outside.
- `Tracer` records one span per call into a layer or tensor op, plus one span
  per executed backward closure, and keeps them in memory until `write`.
- `ProcessCounters` reads garbage collector pauses and rusage around steps.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

# Ops whose per-step counters are reported. Other differentiable ops are
# still traced so that layer self times are not inflated by unwrapped work.
REPORTED_OPS = (
    "matmul", "masked_softmax", "layer_norm", "take", "slice_axis",
    "concat", "add", "reshape", "transpose_last", "scale",
)
TRACED_OPS = REPORTED_OPS + (
    "sub", "mul", "relu", "tensor_sum", "cross_entropy_mean", "scale_by_array",
)


class Patcher:
    """Replace a function in every lsattn module that references it; undo in reverse."""

    def __init__(self) -> None:
        self._undo: list[tuple[dict, str, object]] = []

    def wrap(self, module, name: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lsattn" or mod_name.startswith("lsattn.")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, attr, original))
                    namespace[attr] = wrapper

    def restore(self) -> None:
        while self._undo:
            namespace, attr, original = self._undo.pop()
            namespace[attr] = original


class StepClock:
    """Timestamps at step boundaries; durations are the gaps between stamps.

    A stamp with `close=True` ends the current step without starting a new
    one, so work between train calls never counts as a step. `at` dates a
    stamp taken late to an earlier perf_counter reading.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.minflt: list[int] = []
        self._open: tuple[float, int] | None = None
        self.on_step: Callable[[int], None] | None = None

    def stamp(self, close: bool = False, at: float | None = None) -> None:
        now = time.perf_counter() if at is None else at
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if self._open is not None:
            started, faults0 = self._open
            self.durations.append(now - started)
            self.minflt.append(faults - faults0)
            if self.on_step is not None:
                self.on_step(len(self.durations))
        self._open = None if close else (now, faults)


class ProcessCounters:
    """Garbage collector pauses and rusage totals over a measured interval."""

    def __init__(self) -> None:
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self.gc_collected = 0
        self._gc_started = 0.0
        self._start: tuple[float, float, int] | None = None
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.minflt = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_s += time.perf_counter() - self._gc_started
        self.gc_collected += info["collected"]
        if info["generation"] == 2:
            self.gc_gen2 += 1

    @staticmethod
    def _now() -> tuple[float, float, int]:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return time.perf_counter(), usage.ru_utime + usage.ru_stime, usage.ru_minflt

    def __enter__(self) -> "ProcessCounters":
        gc.callbacks.append(self._on_gc)
        self._start = self._now()
        return self

    def __exit__(self, *exc) -> None:
        wall, cpu, faults = self._now()
        gc.callbacks.remove(self._on_gc)
        wall0, cpu0, faults0 = self._start
        self.wall_s = wall - wall0
        self.cpu_s = cpu - cpu0
        self.minflt = faults - faults0


class Tracer:
    """In-memory spans for layer calls, tensor ops and backward closures.

    Spans are stored column-wise: name index, start, end, parent span, the
    span that created it (for backward spans: the op's forward span), and
    the step it belongs to. Backward time of an op counts toward every layer
    span that was open when the op was created.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cause = array("i")
        self.step = array("i")
        self.current_step = 0
        self._open: list[int] = []
        self._patcher = Patcher()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int, cause: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.cause.append(cause)
        self.step.append(self.current_step)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()

    def rename(self, sid: int, name: str) -> None:
        self.name[sid] = self._name_id(name)

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span; on_result(tracer, sid, result) may rename it."""
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            sid = self._begin(name_id, -1)
            self._open.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self._finish(sid)
            if on_result is not None:
                on_result(self, sid, result)
            return result

        return wrapper

    def op(self, name: str, fn: Callable) -> Callable:
        """Like span, and also wraps the backward closure attached to the output."""
        name_id = self._name_id(f"tensor.{name}")
        bwd_id = self._name_id(f"tensor.{name}.bwd")

        def wrapper(*args, **kwargs):
            sid = self._begin(name_id, -1)
            self._open.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self._finish(sid)
            backward = out._backward
            if backward is not None:
                def timed_backward() -> None:
                    bid = self._begin(bwd_id, sid)
                    try:
                        backward()
                    finally:
                        self._finish(bid)
                out._backward = timed_backward
            return out

        return wrapper

    def install(self, layers: list[tuple[object, str, str, Callable | None]], tensor_module) -> None:
        for module, attr, name, on_result in layers:
            self._patcher.wrap(module, attr, lambda fn, n=name, cb=on_result: self.span(n, fn, cb))
        for op in TRACED_OPS:
            self._patcher.wrap(tensor_module, op, lambda fn, n=op: self.op(n, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    # ----------------------------------------------------------- summaries --

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (np.frombuffer(self.name, dtype=np.intc), np.frombuffer(self.parent, dtype=np.intc),
                np.frombuffer(self.cause, dtype=np.intc),
                np.frombuffer(self.end) - np.frombuffer(self.start))

    def totals(self, exclude_below: str | None = None) -> dict:
        """Per span name: call count, inclusive seconds, self seconds, and
        attributed backward seconds (backward spans caused inside it).

        Spans nested under a span named `exclude_below` are left out, so that
        work outside the measured steps does not count toward them.
        """
        name, parent, cause, dur = self._columns()
        has_parent = parent >= 0
        below = np.zeros(len(dur), dtype=bool)
        if exclude_below in self._name_ids:
            below[has_parent] = name[parent[has_parent]] == self._name_ids[exclude_below]
            while True:
                deeper = below.copy()
                deeper[has_parent] |= below[parent[has_parent]]
                if (deeper == below).all():
                    break
                below = deeper
        keep = ~below
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        incl = np.bincount(name[keep], weights=dur[keep], minlength=k)
        nested = keep & has_parent
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(name[keep], weights=(dur - child)[keep], minlength=k)
        # Walk up from each backward span's op to every enclosing layer span.
        # No traced layer encloses itself, so each layer counts a span once.
        attributed = np.zeros(k)
        caused = keep & (cause >= 0)
        ancestor, weight = parent[cause[caused]], dur[caused]
        while (ancestor >= 0).any():
            up = ancestor >= 0
            attributed += np.bincount(name[ancestor[up]], weights=weight[up], minlength=k)
            ancestor = np.where(up, parent[np.maximum(ancestor, 0)], -1)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "incl_s": float(incl[i]),
                "self_s": float(self_s[i]),
                "bwd_attributed_s": float(attributed[i]),
            }
            for i in range(k) if calls[i]
        }

    def write(self, path: Path) -> None:
        """Write the spans column-wise; times in microseconds from the first span."""
        name, parent, cause, _ = self._columns()
        start = np.frombuffer(self.start)
        origin = start[0] if len(start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, cause=cause,
            step=np.frombuffer(self.step, dtype=np.intc),
            start_us=np.round((start - origin) * 1e6).astype(np.int64),
            end_us=np.round((np.frombuffer(self.end) - origin) * 1e6).astype(np.int64),
        )
