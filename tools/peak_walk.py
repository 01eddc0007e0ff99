"""Walk one benchmark step's backward closures and show where its memory peaks.

Run it from the root of a checkout, with that checkout's `src` on PYTHONPATH:

    PYTHONPATH=src python tools/peak_walk.py bidir-long

It builds the perfbench workload (perfbench is imported from this script's
checkout and only read), runs one untraced step so that first-call caches are
filled, and traces the next step with tracemalloc, as perfbench's
`worker.measure_memory` does. When that step calls `autodiff.gradients`, every
node of the graph is found by walking `_parents` from the output, as
perfbench's `GraphCounter` does, and each node's `_backward` is wrapped by a
probe that reads tracemalloc's current and peak bytes around the call.

It prints the bytes held after the forward pass; then, for each closure in the
order `gradients` runs them, named by the qualname of its `route` (for example
`attend.<locals>.route`), the bytes held on entry and the peak, both above
those held after the forward; then the step's peak and the closure that sets
it. The probes' own bytes are left out of every figure: each probe is counted
while the node still holds it. Last it runs `worker.measure_memory` on the same
workload and prints its `tracemalloc_peak_bytes`. The script exits 1 when the
two step peaks differ by more than 1 KiB.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

from lsattn import autodiff  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import worker  # noqa: E402
from tracing import Patcher  # noqa: E402
from workloads import make_workload  # noqa: E402

SEED = 901
MATCH_BYTES = 1024


def route_name(backward) -> str:
    """Qualname of the route a node's backward hands its gradient to."""
    cells = dict(zip(backward.__code__.co_freevars, backward.__closure__ or ()))
    route = cells["route"].cell_contents if "route" in cells else backward
    return route.__qualname__


class Probe:
    """Stands in for one node's `_backward` and records the bytes around its call."""

    __slots__ = ("walk", "backward", "index")

    def __init__(self, walk: "PeakWalk", backward, index: int) -> None:
        self.walk, self.backward, self.index = walk, backward, index

    def __call__(self) -> None:
        walk, row = self.walk, 3 * self.index
        walk.close_gap()
        walk.stats[row] = walk.ran = walk.ran + 1
        walk.stats[row + 1] = tracemalloc.get_traced_memory()[0] - walk.own()
        tracemalloc.reset_peak()
        self.backward()
        walk.stats[row + 2] = tracemalloc.get_traced_memory()[1] - walk.own()
        tracemalloc.reset_peak()


class PeakWalk:
    """Probes every backward closure of the graph behind one `gradients` call.

    A probe lives exactly as long as the closure it wraps would: `gradients`
    drops it from the node once the node is done. All probes have one size,
    so the walk's own bytes are its tables plus that size per probe still
    held by a node (`own`), and every reading leaves them out.
    """

    def __init__(self) -> None:
        self.held = self.ran = self.top = self.table_bytes = self.probe_bytes = 0
        self.top_name = "forward"
        self.nodes: list = []
        self.names: list[str] = []
        self.indices: list[int] = []
        self.stats = array("q")
        self._patcher = Patcher()

    def own(self) -> int:
        """Bytes the walk holds now: its tables and the probes not yet dropped."""
        alive = sum(type(node._backward) is Probe for node in self.nodes)
        return self.table_bytes + alive * self.probe_bytes

    def close_gap(self, name: str = "gradients, between closures") -> None:
        """Take the peak since the last reading, outside any closure."""
        peak = tracemalloc.get_traced_memory()[1] - self.own()
        if peak > self.top:
            self.top, self.top_name = peak, name
        tracemalloc.reset_peak()

    def install(self, root) -> None:
        """Wrap the `_backward` of each node reachable from root."""
        nodes, seen, stack = [], {id(root)}, [root]
        while stack:
            node = stack.pop()
            if node._backward is not None:
                nodes.append(node)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        del seen, stack
        self.nodes, self.names = nodes, [route_name(node._backward) for node in nodes]
        self.stats, self.ran = array("q", bytes(8 * 3 * len(nodes))), 0
        self.indices = list(range(len(nodes)))  # probes share these ints
        before = tracemalloc.get_traced_memory()[0]
        for node, i in zip(nodes, self.indices):
            node._backward = Probe(self, node._backward, i)
        now = tracemalloc.get_traced_memory()[0]
        self.probe_bytes = (now - before) // max(1, len(nodes))
        self.table_bytes = now - self.held - len(nodes) * self.probe_bytes

    def __enter__(self) -> "PeakWalk":
        def make(gradients):
            def walked(output, *args, **kwargs):
                if not tracemalloc.is_tracing():
                    return gradients(output, *args, **kwargs)
                self.held, self.top = tracemalloc.get_traced_memory()
                self.top_name = "forward"
                self.install(output._node)
                tracemalloc.reset_peak()
                try:
                    return gradients(output, *args, **kwargs)
                finally:
                    self.close_gap()
                    before = tracemalloc.get_traced_memory()[0]
                    self.nodes = []
                    self.table_bytes -= before - tracemalloc.get_traced_memory()[0]
            return walked
        self._patcher.wrap(autodiff, "gradients", make)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    @contextlib.contextmanager
    def traced_step(self):
        tracemalloc.start()
        try:
            yield
        finally:
            self.close_gap("after gradients")
            tracemalloc.stop()

    def report(self) -> int:
        """Print the walk; return the step's peak in bytes."""
        rows = sorted((self.stats[3 * i], name, self.stats[3 * i + 1], self.stats[3 * i + 2])
                      for i, name in enumerate(self.names) if self.stats[3 * i])
        print(f"held after the forward: {self.held:,} B")
        print(f"{'closure, in the order run':<40} {'entry above held':>17} {'peak above held':>16}")
        for _, name, entry, peak in rows:
            if peak > self.top:
                self.top, self.top_name = peak, name
            print(f"{name:<40} {entry - self.held:>17,} {peak - self.held:>16,}")
        print(f"step peak: {self.top:,} B, set by {self.top_name} "
              f"({self.top - self.held:,} B above held)")
        return self.top


def main() -> None:
    parser = argparse.ArgumentParser(description="per-closure memory peaks of one backward")
    parser.add_argument("workload", help="a perfbench workload: lm-train or bidir-long")
    args = parser.parse_args()
    workload = make_workload(args.workload, SEED)
    workload.build()
    with PeakWalk() as walk:
        workload.instrumented_steps([contextlib.nullcontext, walk.traced_step])
    peak = walk.report()
    measured = worker.measure_memory(workload)["tracemalloc_peak_bytes"]
    print(f"worker.measure_memory tracemalloc_peak_bytes: {measured:,} B "
          f"(difference {peak - measured:+,} B)")
    sys.exit(0 if abs(peak - measured) <= MATCH_BYTES else 1)


if __name__ == "__main__":
    main()
