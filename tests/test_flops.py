"""FLOP accounting: reference totals, dual-route parity, scaling ratios."""

import itertools
from dataclasses import replace

import pytest

from lsattn.errors import ConfigError
from lsattn.flops import PRESETS, ArchSpec, count_flops, load_preset_file, measured_flops


class TestReferenceTotals:
    @pytest.mark.parametrize("preset,total,formatted", [
        ("lra-listops", 1_210_056_704, "1.21 G"),
        ("lra-text", 4_567_597_056, "4.57 G"),
        ("lra-retrieval", 9_135_194_112, "9.14 G"),
    ])
    def test_full_attention_exact(self, preset, total, formatted):
        report = count_flops(replace(PRESETS[preset], variant="full"))
        assert report.total == total
        assert report.formatted == formatted

    @pytest.mark.parametrize("preset,reference", [
        ("lra-listops", 0.20e9),
        ("lra-text", 0.40e9),
        ("lra-retrieval", 0.80e9),
    ])
    def test_long_short_within_ten_percent(self, preset, reference):
        report = count_flops(replace(PRESETS[preset], variant="long-short", window=8, rank=32))
        assert abs(report.total - reference) / reference <= 0.10

    def test_report_total_is_component_sum(self):
        report = count_flops(replace(PRESETS["lra-listops"], variant="long-short"))
        assert report.total == sum(report.components.values()) * report.layers * report.docs


class TestDualRouteParity:
    @pytest.mark.parametrize("variant,mode,dual", [
        (v, m, d)
        for v, m, d in itertools.product(
            ("full", "window", "projection", "long-short"),
            ("bidirectional", "causal"),
            (False, True),
        )
        if not (v == "projection" and m == "causal")
    ])
    def test_closed_form_equals_runtime_counter(self, variant, mode, dual):
        for n, w, r, l in ((32, 4, 3, 4), (24, 8, 2, 4), (17, 2, 1, 2)):
            arch = ArchSpec(
                layers=2, model_dim=8, heads=2, ffn_dim=16, seq_len=n,
                variant=variant, window=w, rank=r, seg_len=l, mode=mode,
                dual_ln=dual,
            )
            assert count_flops(arch).total == measured_flops(arch)

    @pytest.mark.parametrize("variant,mode", [
        ("window", "bidirectional"), ("window", "causal"), ("projection", "bidirectional"),
        ("long-short", "bidirectional"), ("long-short", "causal"),
    ])
    def test_dual_ln_adds_exactly_the_executed_norms(self, variant, mode):
        # Dual LN normalizes the keys and values of each branch the layer
        # runs, at 4 FLOPs per element: the n_att window rows (when w > 0)
        # and the projected slots (when r > 0), for each of h heads.
        plain = ArchSpec(layers=2, model_dim=8, heads=2, ffn_dim=16, seq_len=17,
                         variant=variant, window=4, rank=3, seg_len=4, mode=mode)
        dual = replace(plain, dual_ln=True)
        for arch in (plain, dual):
            assert arch.attention_config().dual_ln == arch.dual_ln
            assert measured_flops(arch) == count_flops(arch).total
        cfg = dual.attention_config()
        n_att, slots = cfg.padded_len, cfg.projected_slots
        rows = {"window": n_att, "projection": slots, "long-short": n_att + slots}[variant]
        added = count_flops(dual).per_layer - count_flops(plain).per_layer
        assert added == 4 * 2 * dual.heads * dual.head_dim * rows

    def test_parity_with_padding(self):
        # Sequence lengths that are not multiples of the segment sizes. With
        # n=5, w=4, l=2 tokens 6-7 form a padding-only projection segment.
        for n, w, l in ((13, 4, 4), (29, 4, 4), (31, 4, 4), (5, 4, 2)):
            arch = ArchSpec(
                layers=1, model_dim=8, heads=1, ffn_dim=8, seq_len=n,
                variant="long-short", window=w, rank=2, seg_len=l, mode="causal",
                dual_ln=True,
            )
            assert count_flops(arch).total == measured_flops(arch)


class TestScalingRatios:
    def ls_total(self, n):
        return count_flops(ArchSpec(
            layers=2, model_dim=64, heads=2, ffn_dim=128, seq_len=n,
            variant="long-short", window=8, rank=32,
        )).total

    def full_total(self, n):
        return count_flops(ArchSpec(
            layers=2, model_dim=64, heads=2, ffn_dim=128, seq_len=n, variant="full",
        )).total

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    def test_long_short_doubles(self, n):
        assert 1.9 <= self.ls_total(2 * n) / self.ls_total(n) <= 2.1

    @pytest.mark.parametrize("n", [2048, 4096])
    def test_full_quadruples(self, n):
        assert 3.6 <= self.full_total(2 * n) / self.full_total(n) <= 4.0


class TestArchValidation:
    def test_window_variant_needs_window(self):
        with pytest.raises(ConfigError):
            ArchSpec(layers=1, model_dim=8, heads=1, ffn_dim=8, seq_len=16,
                     variant="window", window=0)

    def test_causal_projection_rejected(self):
        with pytest.raises(ConfigError):
            ArchSpec(layers=1, model_dim=8, heads=1, ffn_dim=8, seq_len=16,
                     variant="projection", rank=2, mode="causal")


class TestPresetFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "arch.preset"
        path.write_text(
            "# encoder used for the text benchmark\n"
            "layers = 2\n"
            "model_dim = 64\n"
            "heads = 2\n"
            "ffn_dim = 128\n"
            "seq_len = 4096\n"
            "variant = long-short\n"
            "window = 8\n"
            "rank = 32\n"
            "dual_ln = true\n"
        )
        arch = load_preset_file(path)
        assert arch == ArchSpec(
            layers=2, model_dim=64, heads=2, ffn_dim=128, seq_len=4096,
            variant="long-short", window=8, rank=32, dual_ln=True,
        )

    def test_bad_line_reported_with_location(self, tmp_path):
        path = tmp_path / "broken.preset"
        path.write_text("layers = 2\nwhat is this\n")
        with pytest.raises(ConfigError, match="broken.preset:2"):
            load_preset_file(path)

    def test_duplicate_key_reported_with_location(self, tmp_path):
        path = tmp_path / "twice.preset"
        path.write_text("layers = 1\n# the same key again\nlayers = 4\n")
        with pytest.raises(ConfigError, match=r"twice.preset:3: duplicate key 'layers'"):
            load_preset_file(path)

    def test_bad_boolean_reported_with_key(self, tmp_path):
        path = tmp_path / "odd.preset"
        path.write_text("dual_ln = maybe\n")
        with pytest.raises(ConfigError, match=r"odd.preset:1: bad bool 'maybe' for dual_ln"):
            load_preset_file(path)

    def test_unknown_key_reported_with_location(self, tmp_path):
        path = tmp_path / "extra.preset"
        path.write_text("layers = 2\ncolour = blue\n")
        with pytest.raises(ConfigError, match=r"extra.preset:2: unknown key 'colour'"):
            load_preset_file(path)

    def test_unknown_variant_rejected(self, tmp_path):
        path = tmp_path / "odd.preset"
        path.write_text("layers = 2\nmodel_dim = 8\nheads = 2\nffn_dim = 16\nseq_len = 32\n"
                        "variant = sparse\n")
        with pytest.raises(ConfigError, match="variant must be one of .* got 'sparse'"):
            load_preset_file(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "partial.preset"
        path.write_text("layers = 2\n")
        with pytest.raises(ConfigError, match="missing required"):
            load_preset_file(path)
