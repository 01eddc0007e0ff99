"""Sweep harness: schema, determinism, memory tracking, probe CSV."""

import io
from dataclasses import replace

import numpy as np
import pytest

from lsattn.bench import fmt, run_norm_probe, run_scaling, sweep_csv_rows, write_csv
from lsattn.config import LSConfig
from lsattn.errors import ConfigError
from lsattn.flops import PRESETS, ReferenceEncoder
from lsattn.tensor import Tensor, reshape, swap_axes, track_peak_bytes


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
        forward, seen = ReferenceEncoder.forward, []

        def recording_forward(encoder, x):
            seen.append(encoder.arch.seq_len)
            return forward(encoder, x)

        monkeypatch.setattr(ReferenceEncoder, "forward", recording_forward)
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
        from lsattn import bench

        def exploding_build(arch, rng):
            raise MemoryError("simulated")

        monkeypatch.setattr(bench.ReferenceEncoder, "build", exploding_build)
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


class TestPeakBytesTracker:
    def test_counts_allocation_and_release(self):
        with track_peak_bytes() as tracker:
            a = Tensor(np.zeros((100, 100)))
            first = tracker.current
            b = Tensor(np.zeros((100, 100)))
            assert tracker.current == first + a.data.nbytes
            del b
            assert tracker.peak >= 2 * a.data.nbytes
        assert first == a.data.nbytes

    def test_views_count_once(self):
        # Views share their buffer's bytes; the bytes go when the last
        # tensor on the buffer dies.
        with track_peak_bytes() as tracker:
            a = Tensor(np.zeros((4, 6, 8)))
            first = tracker.current
            flat = reshape(a, (24, 8))
            swapped = swap_axes(a, 0, 1)
            assert tracker.current == first
            b = Tensor(np.ones((3, 5)))
            assert tracker.current == first + b.data.nbytes
            del a, flat
            assert tracker.current == first + b.data.nbytes
            del swapped
            assert tracker.current == b.data.nbytes
            assert tracker.peak == first + b.data.nbytes
