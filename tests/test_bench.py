"""Sweep harness: schema, determinism, memory tracking, probe CSV."""

import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lsattn.bench import fmt, run_norm_probe, run_scaling, sweep_csv_rows, write_csv
from lsattn.config import LSConfig
from lsattn.errors import ConfigError
from lsattn import bench
from lsattn.flops import PRESETS, reference_encoder
from lsattn.tensor import (
    Tensor, cross_entropy_mean, matmul, reshape, slice_axis, swap_axes, track_peak_bytes,
)


def arch(variant, **fields):
    return replace(PRESETS["lra-listops"], variant=variant, **fields)


class TestRunScaling:
    def test_rows_and_monotone_flops(self):
        rows = run_scaling(arch("long-short", window=8, rank=8), [64, 128, 256], reps=5, seed=1)
        assert [r.n for r in rows] == [64, 128, 256]
        assert rows[0].flops < rows[1].flops < rows[2].flops
        assert all(r.status == "ok" for r in rows)
        assert all(r.wall_ms > 0 for r in rows)
        assert all(r.peak_bytes > 0 for r in rows)

    def test_flops_column_deterministic(self):
        a = run_scaling(arch("full"), [64, 128], reps=5, seed=3)
        b = run_scaling(arch("full"), [64, 128], reps=5, seed=3)
        assert [r.flops for r in a] == [r.flops for r in b]
        assert [r.peak_bytes for r in a] == [r.peak_bytes for r in b]

    def test_memory_grows_linearly_for_long_short(self):
        rows = run_scaling(arch("long-short", window=8, rank=8), [128, 256, 512], reps=5,
                           seed=2)
        ratio = rows[2].peak_bytes / rows[1].peak_bytes
        assert 1.5 <= ratio <= 2.5

    def test_timed_forwards_interleave_lengths(self, monkeypatch):
        seen = []

        def recording_encoder(arch, rng):
            forward = reference_encoder(arch, rng)

            def recording_forward(x):
                seen.append(arch.seq_len)
                return forward(x)

            return recording_forward

        monkeypatch.setattr(bench, "reference_encoder", recording_encoder)
        lengths = [32, 64, 128]
        rows = run_scaling(arch("long-short", window=8, rank=8), lengths, reps=5, seed=0)
        assert all(r.status == "ok" for r in rows)
        # A warm-up pass per length, then five timed rounds over all lengths,
        # then a peak-memory pass per length.
        assert seen == lengths * (1 + 5 + 1)

    def test_sequence_lengths_must_increase(self):
        with pytest.raises(ConfigError):
            run_scaling(arch("full"), [128, 64], reps=5, seed=0)

    def test_allocation_failure_marks_row_oom(self, monkeypatch):
        def exploding_build(arch, rng):
            raise MemoryError("simulated")

        monkeypatch.setattr(bench, "reference_encoder", exploding_build)
        rows = run_scaling(arch("full"), [64, 128], reps=5, seed=0)
        assert [r.status for r in rows] == ["oom", "oom"]
        assert all(r.flops > 0 for r in rows)  # modeled cost still reported


class TestCsv:
    def test_sweep_schema(self):
        rows = run_scaling(arch("window", window=4), [64], reps=5, seed=5)
        table = sweep_csv_rows(rows)
        assert table[0] == ["n", "w", "r", "mode", "variant", "flops",
                            "wall_ms", "peak_bytes", "status"]
        assert table[1][0] == "64"
        assert table[1][-1] == "ok"

    def test_write_csv_and_float_format(self):
        buf = io.StringIO()
        write_csv([["a", "b"], [fmt(1.23456789), fmt(7)]], buf)
        assert buf.getvalue() == "a,b\n1.23457,7\n"


class TestNormProbeCsv:
    def test_shape_and_direction(self):
        cfg = LSConfig(seq_len=128, model_dim=32, heads=2, window=8, rank=8)
        rows = run_norm_probe(cfg, layers=2, seeds=tuple(range(10)), projection="dynamic")
        assert rows[0] == ["layer", "seed", "key_ratio", "value_ratio", "dual_ln"]
        body = rows[1:]
        assert len(body) == 2 * 10 * 2  # layers x seeds x {plain, dual}
        dual = [float(r[2]) for r in body if r[4] == "true"]
        plain = [float(r[2]) for r in body if r[4] == "false"]
        assert all(0.98 <= v <= 1.02 for v in dual)
        assert np.mean(plain) > 1.05


class TestTrackPeakBytes:
    # Readings include the Python objects made in the block, a few hundred
    # bytes here; KIB bounds them.
    KIB = 1024

    def test_freed_array_leaves_the_peak_not_the_held_bytes(self):
        with track_peak_bytes() as tracker:
            held = tracemalloc.get_traced_memory()[0]
            a = np.ones((100, 100))
            nbytes = a.nbytes
            del a
            freed = tracemalloc.get_traced_memory()[0] - held
        with track_peak_bytes() as after:
            pass
        assert nbytes <= tracker.peak < nbytes + self.KIB
        assert freed < self.KIB
        assert after.peak < self.KIB

    def test_views_add_no_bytes(self):
        a = Tensor(np.zeros((40, 60, 8)))
        with track_peak_bytes() as tracker:
            views = [reshape(a, (2400, 8)), swap_axes(a, 0, 1), slice_axis(a, 1, 10, 50)]
        assert all(np.shares_memory(v.data, a.data) for v in views)
        assert tracker.peak < 4 * self.KIB < a.data.nbytes / 32

    def test_peak_is_tracemalloc_reading_of_the_block(self):
        # The logits are a tensor; cross_entropy_mean's exponentials are a
        # plain array beside them, and count as much.
        a, b = Tensor(np.ones((64, 96))), Tensor(np.ones((96, 128)))
        targets = np.zeros(64, dtype=np.intp)
        step = lambda: cross_entropy_mean(matmul(a, b), targets)
        step()
        with track_peak_bytes() as tracker:
            step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step()
            traced = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert traced >= 2 * 64 * 128 * 8  # the logits and their exponentials
        assert abs(tracker.peak - traced) < self.KIB, (tracker.peak, traced)

    def test_running_trace_keeps_tracing(self):
        tracemalloc.start()
        try:
            with track_peak_bytes() as tracker:
                a = np.ones(1000)
            assert tracemalloc.is_tracing()
            before = tracemalloc.get_traced_memory()[0]
            b = np.ones(1000)
            assert tracemalloc.get_traced_memory()[0] - before >= b.nbytes
        finally:
            tracemalloc.stop()
        assert a.nbytes <= tracker.peak < a.nbytes + self.KIB
