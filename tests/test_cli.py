"""Command line behaviour: outputs, exit codes, file handling."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsattn.cli import main
from lsattn.config import MODES
from lsattn.flops import PRESETS, VARIANTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlopsCommand:
    def test_listops_full_prints_pinned_total(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--preset", "lra-listops", "--variant", "full")
        assert code == 0
        assert "total,1210056704" in out
        assert "total_formatted,1.21 G" in out

    def test_explicit_architecture(self, capsys):
        code, out, _ = run_cli(
            capsys, "flops", "--variant", "long-short", "--n", "256",
            "--w", "8", "--r", "8", "--dual-ln",
        )
        assert code == 0
        assert "dynamic_projection" in out

    def test_preset_file(self, capsys, tmp_path):
        preset = tmp_path / "enc.preset"
        preset.write_text(
            "layers = 2\nmodel_dim = 64\nheads = 2\nffn_dim = 128\nseq_len = 2048\n"
        )
        code, out, _ = run_cli(capsys, "flops", "--preset-file", str(preset))
        assert code == 0
        assert "total,1210056704" in out

    def test_preset_without_flags_is_the_preset(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--preset", "charlm-small")
        assert code == 0
        assert "total,218008387584" in out

    def test_given_flag_overrides_preset(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--preset", "charlm-small", "--layers", "6")
        assert code == 0
        assert "total,109004193792" in out

    def test_variant_repoints_preset_and_preset_file_alike(self, capsys, tmp_path):
        preset = tmp_path / "listops.preset"
        preset.write_text(
            "layers = 2\nmodel_dim = 64\nheads = 2\nffn_dim = 128\nseq_len = 2048\n"
        )
        for source in ([], ["--preset", "lra-listops"], ["--preset-file", str(preset)]):
            for flags, total in ((["--variant", "long-short"], 195035136),
                                 (["--variant", "long-short", "--mode", "causal"], 2325741568)):
                code, out, _ = run_cli(capsys, "flops", *source, *flags)
                assert code == 0
                assert f"total,{total}\n" in out

    @pytest.mark.parametrize("argv,total", [
        (["--preset", "lra-listops", "--variant", "long-short", "--dual-ln"], 197165056),
        (["--preset", "charlm-small", "--variant", "window"], 212751876096),
        (["--preset", "lra-listops", "--variant", "long-short", "--mode", "causal", "--w", "4"],
         None),
    ], ids=["dual-ln-only-when-given", "keeps-preset-window", "keeps-default-seg-len"])
    def test_variant_overrides_only_itself(self, capsys, argv, total):
        code, out, err = run_cli(capsys, "flops", *argv)
        if total is None:
            assert code == 2 and "seg_len" in err and out == ""
        else:
            assert code == 0 and f"total,{total}\n" in out

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "flops", "--preset", "lra-text",
                             "--variant", "full", "--out", str(out_path))
        assert code == 0
        assert "total,4567597056" in out_path.read_text()


class TestSweepCommand:
    def test_rows_with_monotone_flops(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "64,128,256", "--variant", "long-short",
            "--w", "8", "--r", "8", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,w,r,mode,variant,flops")
        flops = [int(line.split(",")[5]) for line in lines[1:]]
        assert flops == sorted(flops) and len(flops) == 3

    @pytest.mark.parametrize("variant,w,r", [
        ("long-short", "8", "4"), ("window", "8", "0"), ("projection", "0", "4"), ("full", "0", "0"),
    ])
    def test_rows_report_the_window_and_rank_run(self, capsys, variant, w, r):
        code, out, _ = run_cli(capsys, "sweep", "--n", "32", "--variant", variant,
                               "--w", "8", "--r", "4", "--d", "16", "--ffn", "16")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("n,w,r,") and row.startswith(f"32,{w},{r},")

    def test_bad_lengths_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "64,banana", "--variant", "full")
        assert code == 2
        assert "error:" in err


class TestNormsCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "norms", "--n", "64", "--d", "16", "--w", "4", "--r", "4",
            "--seeds", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "layer,seed,key_ratio,value_ratio,dual_ln"
        assert len(lines) == 1 + 20


class TestTrainingCommands:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        path = tmp_path / "corpus.bin"
        rng = np.random.default_rng(0)
        path.write_bytes(bytes((rng.integers(97, 101, size=3000)).astype(np.uint8)))
        return path

    def test_train_writes_metrics(self, capsys, tmp_path, corpus_file):
        out_path = tmp_path / "metrics.csv"
        code, _, _ = run_cli(
            capsys, "train", "--corpus", str(corpus_file), "--steps", "3",
            "--seq-len", "32", "--d", "16", "--ffn", "32", "--batch", "2",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "step,train_loss_nats,val_bpc,wall_ms"
        assert len(lines) == 1 + 3 + 1  # header, steps, final row

    def test_ablate_pairs_runs(self, capsys, corpus_file):
        code, out, _ = run_cli(
            capsys, "ablate", "--corpus", str(corpus_file), "--steps", "2",
            "--seeds", "2", "--seq-len", "32", "--d", "16", "--ffn", "32",
            "--batch", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "seed,step,val_bpc_with_dual_ln,val_bpc_without_dual_ln"
        finals = [line for line in lines if ",final," in line]
        assert len(finals) == 2

    def test_missing_corpus_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--corpus", str(tmp_path / "nope.bin"))
        assert code == 2
        assert "does not exist" in err


class TestCheckCommand:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--seed", "1")
        assert code == 0
        assert "7/7 checks passed" in out
        assert "FAIL" not in out


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["flops", "--bogus"])
        assert excinfo.value.code == 2

    def test_non_integer_preset_value_exits_2(self, capsys, tmp_path):
        preset = tmp_path / "words.preset"
        preset.write_text(
            "layers = two\nmodel_dim = 64\nheads = 2\nffn_dim = 128\nseq_len = 2048\n"
        )
        code, out, err = run_cli(capsys, "flops", "--preset-file", str(preset))
        assert code == 2
        assert "words.preset:1" in err and "'two'" in err
        assert "Traceback" not in err and out == ""

    def test_preset_and_preset_file_together_exit_2(self, capsys, tmp_path):
        preset = tmp_path / "tiny.preset"
        preset.write_text("layers = 1\nmodel_dim = 8\nheads = 1\nffn_dim = 8\nseq_len = 16\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["flops", "--preset", "charlm-small", "--preset-file", str(preset)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err and captured.out == ""

    def test_default_preset_named_with_preset_file_exits_2(self, capsys, tmp_path):
        # lra-listops is --preset's default, and argparse lets an option that
        # holds its default object pass the exclusion check.
        preset = tmp_path / "tiny.preset"
        preset.write_text("layers = 1\nmodel_dim = 8\nheads = 1\nffn_dim = 8\nseq_len = 16\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["flops", "--preset", "lra-listops", "--preset-file", str(preset)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err and captured.out == ""

    def test_unknown_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["flops", "--preset", "lra-pathfinder"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice" in captured.err and captured.out == ""

    def test_duplicate_preset_key_exits_2(self, capsys, tmp_path):
        preset = tmp_path / "twice.preset"
        preset.write_text(
            "layers = 1\nmodel_dim = 64\nheads = 2\nffn_dim = 128\nseq_len = 2048\nlayers = 4\n"
        )
        code, out, err = run_cli(capsys, "flops", "--preset-file", str(preset))
        assert code == 2
        assert "twice.preset:6: duplicate key 'layers'" in err
        assert "Traceback" not in err and out == ""

    def test_full_variant_bad_shape_exits_2(self, capsys, tmp_path):
        preset = tmp_path / "negative.preset"
        preset.write_text(
            "layers = 2\nmodel_dim = 64\nheads = 3\nffn_dim = 128\nseq_len = -5\n"
            "variant = full\n"
        )
        code, out, err = run_cli(capsys, "flops", "--preset-file", str(preset))
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err and "total" not in out

    def test_invalid_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "64", "--variant",
                               "long-short", "--w", "3", "--r", "2")
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize("flag", ["--n", "--docs"])
    def test_zero_count_flag_exits_2(self, capsys, flag):
        code, out, err = run_cli(capsys, "flops", flag, "0")
        assert code == 2
        assert "error:" in err and "total" not in out

    @pytest.mark.parametrize("line", ["mode = sideways", "rank = -1"])
    def test_full_variant_bad_attention_setting_exits_2(self, capsys, tmp_path, line):
        preset = tmp_path / "odd.preset"
        preset.write_text(
            f"layers = 2\nmodel_dim = 64\nheads = 2\nffn_dim = 128\nseq_len = 2048\n{line}\n"
        )
        code, out, err = run_cli(capsys, "flops", "--preset-file", str(preset))
        assert code == 2
        assert "error:" in err and "total" not in out

    def test_empty_sweep_lengths_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "", "--variant", "full")
        assert code == 2
        assert "error:" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "64", "--variant", "full", "--seed", "-1"],
        ["check", "--seed", "-1"],
        ["train", "--corpus", "CORPUS", "--steps", "1", "--seed", "-3"],
    ], ids=["sweep", "check", "train"])
    def test_negative_seed_exits_2(self, capsys, tmp_path, argv):
        corpus = tmp_path / "corpus.bin"
        corpus.write_bytes(b"abcd" * 500)
        argv = [str(corpus) if arg == "CORPUS" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error:" in err and "seed" in err and out == ""

    @pytest.mark.parametrize("flags", [
        ["--layers", "0"], ["--layers", "-1"], ["--d", "0"], ["--d", "1", "--heads", "1"],
    ], ids=["layers-0", "layers-neg", "width-0", "head-width-1"])
    def test_norms_degenerate_shape_exits_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "norms", *flags)
        assert code == 2
        assert "error:" in err and out == ""

    @pytest.mark.parametrize("flag,value", [("--steps", "-1"), ("--lr", "nan")])
    def test_train_bad_schedule_exits_2(self, capsys, tmp_path, flag, value):
        corpus = tmp_path / "corpus.bin"
        corpus.write_bytes(b"abcd" * 500)
        code, out, err = run_cli(capsys, "train", "--corpus", str(corpus), "--steps", "1",
                                 flag, value)
        assert code == 2
        assert "error:" in err and out == ""

    def test_ablate_zero_seeds_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.bin"
        corpus.write_bytes(b"abcd" * 500)
        code, out, err = run_cli(capsys, "ablate", "--corpus", str(corpus), "--seeds", "0")
        assert code == 2
        assert "--seeds" in err and out == ""


class TestIoErrors:
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_preset_file_exits_2(self, capsys, tmp_path, kind):
        path = tmp_path / "enc.preset"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"layers = 2\n\xff\xfe\n")
        code, out, err = run_cli(capsys, "flops", "--preset-file", str(path))
        assert code == 2
        assert str(path) in err and out == ""

    def test_corpus_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--corpus", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err

    @pytest.mark.parametrize("command,work", [
        (["train", "--corpus", "CORPUS"], "train"),
        (["sweep", "--n", "64", "--variant", "full"], "run_scaling"),
    ], ids=["train", "sweep"])
    def test_out_checked_before_work(self, capsys, tmp_path, monkeypatch, command, work):
        def fail(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was opened")

        monkeypatch.setattr(f"lsattn.cli.{work}", fail)
        corpus = tmp_path / "corpus.bin"
        corpus.write_bytes(b"abcd" * 500)
        out_path = tmp_path / "missing" / "report.csv"
        argv = [str(corpus) if arg == "CORPUS" else arg for arg in command]
        code, _, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert str(out_path) in err

    @pytest.mark.parametrize("command", [
        ["train", "--corpus", "CORPUS", "--seed", "-3"],
        ["ablate", "--corpus", "SMALL", "--seeds", "1"],
    ], ids=["train-seed", "ablate-corpus"])
    def test_failed_run_leaves_out_untouched(self, capsys, tmp_path, command):
        corpus, small = tmp_path / "corpus.bin", tmp_path / "small.bin"
        corpus.write_bytes(b"abcd" * 500)
        small.write_bytes(b"abcd" * 10)
        argv = [{"CORPUS": str(corpus), "SMALL": str(small)}.get(arg, arg) for arg in command]
        existing = tmp_path / "existing.csv"
        existing.write_text("earlier results\n")
        code, _, err = run_cli(capsys, *argv, "--out", str(existing))
        assert code == 2 and "error:" in err
        assert existing.read_text() == "earlier results\n"
        fresh = tmp_path / "fresh.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(fresh))
        assert code == 2 and not fresh.exists()

    def test_train_out_directory_exits_2_and_creates_nothing(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.bin"
        corpus.write_bytes(b"abcd" * 500)
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        code, out, err = run_cli(capsys, "train", "--corpus", str(corpus), "--out", str(out_dir))
        assert code == 2 and out == ""
        assert f"cannot write {out_dir}: Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.bin", "results"]
        assert not any(out_dir.iterdir())

    def test_out_into_missing_directory_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.csv"
        code, _, err = run_cli(capsys, "flops", "--preset", "lra-listops",
                               "--out", str(out_path))
        assert code == 2
        assert str(out_path) in err


_INT_FLAGS = ("--n", "--docs", "--layers", "--d", "--heads", "--ffn", "--w", "--r", "--l")
_PRESET_KEYS = ("layers", "model_dim", "heads", "ffn_dim", "seq_len", "variant", "window",
                "rank", "seg_len", "mode", "dual_ln", "docs", "colour")
_WORDS = VARIANTS + MODES + ("true", "no", "two", "", "1e3", "= 4")
_VALID_BASE = b"layers = 2\nmodel_dim = 64\nheads = 2\nffn_dim = 128\nseq_len = 256\n"

_preset_line = st.one_of(
    st.builds(
        lambda key, value: f"{key} = {value}".encode(),
        st.sampled_from(_PRESET_KEYS),
        st.one_of(st.integers(-3, 70).map(str), st.sampled_from(_WORDS)),
    ),
    st.binary(max_size=12),
)
_preset_bytes = st.builds(
    lambda base, lines: (_VALID_BASE if base else b"") + b"\n".join(lines),
    st.booleans(), st.lists(_preset_line, max_size=8),
)


@st.composite
def _flops_argv(draw):
    argv = ["flops"]
    for flag in _INT_FLAGS:
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-3, 70)))]
    for flag, choices in (("--variant", VARIANTS), ("--mode", MODES),
                          ("--preset", tuple(sorted(PRESETS)))):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(choices))]
    if draw(st.booleans()):
        argv.append("--dual-ln")
    preset_file = draw(st.none() | _preset_bytes)
    return argv, preset_file


class TestFlopsFuzz:
    @given(case=_flops_argv())
    @settings(max_examples=200, deadline=None)
    def test_exit_code_and_total(self, case):
        argv, preset_file = case
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if preset_file is not None:
                path = Path(tmp) / "fuzz.preset"
                path.write_bytes(preset_file)
                argv = argv + ["--preset-file", str(path)]
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 2), stderr.getvalue()
        if code == 0:
            totals = [line for line in stdout.getvalue().splitlines()
                      if line.startswith("total,")]
            assert len(totals) == 1
            assert int(totals[0].split(",")[1]) > 0


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), np.errstate(all="ignore"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def _csv_body(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.splitlines()[1:]]


def _all_finite(rows: list[list[str]], columns: slice) -> bool:
    return all(np.isfinite(float(v)) for row in rows for v in row[columns] if v)


# Hypothesis favours the ends of a sampled list, so the rare case sits mid-list.
_ONE_IN_TEN = st.sampled_from((False,) * 4 + (True,) + (False,) * 5)


def _value(draw, valid, invalid=()) -> str:
    """A value that is valid about nine times in ten."""
    pool = invalid if invalid and draw(_ONE_IN_TEN) else valid
    return str(draw(st.sampled_from(pool)))


def _flag(draw, flag: str, valid, invalid=()) -> list[str]:
    """Leave the flag out, or give it a `_value`."""
    return [flag, _value(draw, valid, invalid)] if draw(st.booleans()) else []


@st.composite
def _sweep_argv(draw):
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
    if draw(_ONE_IN_TEN):
        n = draw(st.sampled_from(_WORDS + ("0", "-2", "16,8", "8,8")))
    else:
        n = ",".join(map(str, sorted(lengths)))
    argv = ["sweep", "--n", n, "--variant", draw(st.sampled_from(VARIANTS))]
    argv += _flag(draw, "--reps", (5, 6), (-1, 0, 4))
    argv += _flag(draw, "--seed", (0, 1, 3), (-3, -1))
    argv += _flag(draw, "--layers", (1, 2), (-1, 0))
    argv += _flag(draw, "--d", (4, 8, 16), (0, 3))
    argv += _flag(draw, "--heads", (1, 2), (0, 3))
    argv += _flag(draw, "--ffn", (4, 16), (0, -1))
    argv += _flag(draw, "--w", (0, 2, 4, 8), (-2, 3))
    argv += _flag(draw, "--r", (0, 1, 4, 8), (-1,))
    argv += _flag(draw, "--l", (1, 2, 4, 8), (0, -1))
    argv += _flag(draw, "--mode", MODES)
    if draw(st.booleans()):
        argv.append("--dual-ln")
    return argv


@st.composite
def _norms_argv(draw):
    argv = ["norms"]
    argv += _flag(draw, "--n", (8, 16, 32), (-1, 0))
    argv += _flag(draw, "--d", (8, 16), (0, 1, 3))
    argv += _flag(draw, "--heads", (1, 2), (0, 3))
    argv += _flag(draw, "--w", (2, 4, 8), (-1, 0, 3))
    argv += _flag(draw, "--r", (1, 4, 8, 16, 32), (-1, 0))
    argv += _flag(draw, "--layers", (1, 2), (-1, 0))
    argv += _flag(draw, "--seeds", (10, 12), (-1, 0, 9))
    argv += _flag(draw, "--projection", ("dynamic", "identity"))
    return argv


@st.composite
def _lm_argv(draw, command: str):
    argv = [command]
    argv += ["--steps", _value(draw, (0, 1, 2, 3), (-1, -2))]
    if command == "ablate":
        argv += ["--seeds", _value(draw, (1, 2), (0, -1))]
    else:
        argv += _flag(draw, "--dropout", (0.0, 0.3), (-0.1, 1.0, "nan"))
        argv += _flag(draw, "--seed", (0, 1, 3), (-3, -1))
        if draw(st.booleans()):
            argv.append("--no-dual-ln")
    argv += _flag(draw, "--seq-len", (4, 8), (-1, 0))
    argv += _flag(draw, "--d", (4, 8), (0, 3))
    argv += _flag(draw, "--heads", (1, 2), (0, 3))
    argv += _flag(draw, "--layers", (1, 2), (-1, 0))
    argv += _flag(draw, "--ffn", (4, 8), (0,))
    argv += _flag(draw, "--w", (2, 4), (-1, 0, 3))
    argv += _flag(draw, "--r", (1, 2), (-1,))
    argv += _flag(draw, "--l", (2, 4), (0, 16))
    argv += _flag(draw, "--batch", (1, 2, 3), (0, -1))
    argv += _flag(draw, "--lr", (0.1, 0.5), ("nan", "inf", -1.0, 0.0, 1e9))
    size = int(_value(draw, (700, 900), (0, 30, 100)))
    corpus = np.random.default_rng(draw(st.integers(0, 2**16))).integers(0, 256, size)
    return argv, corpus.astype(np.uint8).tobytes()


class TestCommandFuzz:
    """Generated argv for the other commands: exit 0, 1 or 2, never a traceback.

    Sizes stay tiny so an example takes milliseconds. A run that exits 0 must
    also print the rows it promises, with finite numbers.
    """

    @given(argv=_sweep_argv())
    @settings(max_examples=100, deadline=None)
    def test_sweep(self, argv):
        code, out, err = _run_main(argv)
        assert code in (0, 2) and "Traceback" not in err, err
        if code == 0:
            body = _csv_body(out)
            lengths = [int(part) for part in argv[2].split(",") if part]
            assert [int(row[0]) for row in body] == lengths
            assert all(int(row[5]) > 0 and row[-1] == "ok" for row in body)

    @given(argv=_norms_argv())
    @settings(max_examples=100, deadline=None)
    def test_norms(self, argv):
        code, out, err = _run_main(argv)
        assert code in (0, 2) and "Traceback" not in err, err
        if code == 0:
            flags = dict(zip(argv[1::2], argv[2::2]))
            layers, seeds = int(flags.get("--layers", 1)), int(flags.get("--seeds", 10))
            body = _csv_body(out)
            assert len(body) == layers * seeds * 2
            assert _all_finite(body, slice(2, 4))

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lm_commands(self, command, data):
        argv, corpus = data.draw(_lm_argv(command))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.bin"
            path.write_bytes(corpus)
            code, out, err = _run_main(argv + ["--corpus", str(path)])
        assert code in (0, 2) and "Traceback" not in err, err
        if code == 0:
            steps, body = int(argv[2]), _csv_body(out)
            if command == "train":
                assert len(body) == steps + 1 and body[-1][0] == "final"
                assert _all_finite(body, slice(1, 3))
            else:
                assert len(body) == int(argv[4]) * (steps + 1)
                assert _all_finite(body, slice(2, 4))

    @given(seed=st.integers(-5, 5))
    @settings(max_examples=8, deadline=None)
    def test_check(self, seed):
        code, out, err = _run_main(["check", "--seed", str(seed)])
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if code != 2:
            assert "checks passed" in out


_LISTOPS_FILE = b"layers = 2\nmodel_dim = 64\nheads = 2\nffn_dim = 128\nseq_len = 2048\n"


@st.composite
def _override_flags(draw):
    flags = _flag(draw, "--variant", VARIANTS) + _flag(draw, "--mode", MODES)
    flags += _flag(draw, "--w", (0, 2, 4, 8, 16))
    flags += _flag(draw, "--r", (0, 1, 8, 32))
    flags += _flag(draw, "--l", (1, 4, 16, 32))
    flags += _flag(draw, "--n", (1, 100, 2048))
    if draw(st.booleans()):
        flags.append("--dual-ln")
    return flags


def _total_or_exit(argv: list[str]) -> str | int:
    code, out, err = _run_main(argv)
    assert code in (0, 2) and "Traceback" not in err, err
    return code or next(line for line in out.splitlines() if line.startswith("total,"))


class TestFlopsRoutes:
    """One architecture, one total: flags alone, the lra-listops preset named,
    and a preset file with its five required keys give the same `total` row,
    or all exit 2."""

    @given(flags=_override_flags())
    @settings(max_examples=100, deadline=None)
    def test_three_routes_agree(self, flags):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "listops.preset"
            path.write_bytes(_LISTOPS_FILE)
            results = [_total_or_exit(["flops", *source, *flags]) for source in
                       ([], ["--preset", "lra-listops"], ["--preset-file", str(path)])]
        assert results[1] == results[0] and results[2] == results[0], results
