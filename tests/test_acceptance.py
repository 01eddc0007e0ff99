"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a PASS line with the measured
quantity, so `pytest tests/test_acceptance.py -v -s` reads as a checklist.
Full-scale accuracy and bits-per-character results are out of scope
here; see the README section "What is deliberately not reproduced".
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lsattn import (
    LSConfig,
    Rng,
    Tensor,
    aggregate_head,
    causal_aggregate_head,
    causal_full_attention_oracle,
    dynamic_projection,
    full_attention_head,
    init_head_params,
    norm_ratio_probe,
)
from lsattn.autodiff import finite_diff_check
from lsattn.bench import run_scaling
from lsattn.cli import main
from lsattn.config import desk_causal_config
from lsattn.flops import ArchSpec, count_flops
from lsattn.lm import ModelConfig, build_model, dualln_ablation, evaluate_bpc, train
from lsattn.tensor import mul, tensor_sum


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------- corpora --

def long_range_copy_corpus(seed: int, size: int = 40000,
                           block: int = 16, repeats: int = 6) -> np.ndarray:
    """Random 16-letter blocks, each written several times in a row.

    After its first occurrence a block is predictable only from 16 positions
    back, far outside a small causal window, so the projected segments carry
    all of the learnable signal.
    """
    rng = np.random.default_rng(seed)
    out = bytearray()
    while len(out) < size:
        blk = bytes(97 + rng.integers(0, 16, size=block).astype(np.uint8))
        out += blk * repeats
    return np.frombuffer(bytes(out[:size]), dtype=np.uint8)


def single_copy_corpus(seed: int, size: int = 40000) -> np.ndarray:
    """Sentences whose closing word repeats their opening word."""
    rng = np.random.default_rng(seed)
    words = [b"alpha", b"bravo", b"carol", b"delta", b"echos", b"fungi", b"grape", b"hotel"]
    fillers = [b"went to", b"saw", b"liked", b"found", b"kept", b"lost"]
    out = bytearray()
    while len(out) < size:
        w = words[rng.integers(0, len(words))]
        f = fillers[rng.integers(0, len(fillers))]
        out += w + b" " + f + b" the " + w + b". "
    return np.frombuffer(bytes(out[:size]), dtype=np.uint8)


# ------------------------------------------------------------- criterion 1 -

def test_criterion_1_flop_table(capsys):
    """Reference cost table: full attention exact, long-short within 10%."""
    expectations = [
        ("lra-listops", "full", 1_210_056_704, "1.21 G"),
        ("lra-text", "full", 4_567_597_056, "4.57 G"),
        ("lra-retrieval", "full", 9_135_194_112, "9.14 G"),
    ]
    for preset, variant, total, formatted in expectations:
        assert main(["flops", "--preset", preset, "--variant", variant]) == 0
        out = capsys.readouterr().out
        assert f"total,{total}" in out
        assert f"total_formatted,{formatted}" in out
    reference = {"lra-listops": 0.20e9, "lra-text": 0.40e9, "lra-retrieval": 0.80e9}
    gaps = []
    for preset, target in reference.items():
        assert main(["flops", "--preset", preset, "--variant", "long-short",
                     "--w", "8", "--r", "32"]) == 0
        out = capsys.readouterr().out
        total = int(next(line for line in out.splitlines()
                         if line.startswith("total,")).split(",")[1])
        gaps.append(abs(total - target) / target)
        assert gaps[-1] <= 0.10
    report("1 flop-table", f"full exact; long-short gaps {[f'{g:.1%}' for g in gaps]}")


# ------------------------------------------------------------- criterion 2 -

def test_criterion_2_oracle_equivalence():
    """Whole-sequence window with no projections reproduces full attention."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(2, 65))
        d = int(rng.choice([4, 8, 16]))
        w = n if n % 2 == 0 else n + 1
        cfg = LSConfig(seq_len=n, model_dim=d, heads=1, window=w, rank=0)
        p = init_head_params(Rng(1000 + case), cfg)
        x = Tensor(Rng(2000 + case).normal((n, d)))
        gap = np.abs(
            aggregate_head(x, p, cfg).data - full_attention_head(x, p).data
        ).max()
        worst = max(worst, float(gap))
    assert worst <= 1e-12
    report("2 oracle-equivalence", f"20 instances, max |diff| {worst:.2e}")


# ------------------------------------------------------------- criterion 3 -

def test_criterion_3_stochasticity():
    """Attention rows and projection columns are distributions, 100 configs."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for case in range(100):
        d = int(rng.choice([4, 8])) * int(rng.choice([1, 2]))
        heads = int(rng.choice([1, 2]))
        if d % heads:
            heads = 1
        causal = bool(rng.integers(0, 2))
        w = 2 * int(rng.integers(1, 4))
        if causal:
            l = int(rng.choice([2, 4]))
            w = max(w, (l + 1) // 2 * 2)
            r = int(rng.integers(0, 3))
            cfg = LSConfig(seq_len=int(rng.integers(4, 21)), model_dim=d, heads=heads,
                           window=w, rank=r, seg_len=l, mode="causal",
                           dual_ln=bool(rng.integers(0, 2)))
        else:
            r = int(rng.integers(0, 4))
            w = 0 if (r > 0 and rng.integers(0, 4) == 0) else w
            cfg = LSConfig(seq_len=int(rng.integers(2, 21)), model_dim=d, heads=heads,
                           window=w, rank=r, dual_ln=bool(rng.integers(0, 2)))
        p = init_head_params(Rng(int(rng.integers(0, 10_000))), cfg)
        x = Tensor(Rng(int(rng.integers(0, 10_000))).normal((cfg.seq_len, d)))
        if cfg.mode == "causal":
            _, info = causal_aggregate_head(x, p, cfg, return_weights=True)
        else:
            _, info = aggregate_head(x, p, cfg, return_weights=True)
        worst = max(worst, float(np.abs(info.row_sums() - 1.0).max()))
        if cfg.rank > 0:
            # Columns are distributions over each projection segment: the
            # whole sequence bidirectionally, each seg_len block causally.
            pkv = dynamic_projection(x, p, cfg)
            seg = cfg.seg_len if cfg.mode == "causal" else cfg.seq_len
            sums = pkv.p.data.reshape(-1, seg, cfg.rank).sum(axis=1)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
            assert (pkv.p.data >= 0).all()
    assert worst <= 1e-12
    report("3 stochasticity", f"100 configs, max |sum-1| {worst:.2e}")


# ------------------------------------------------------------- criterion 4 -

def test_criterion_4_causality_exhaustive():
    """Future edits leave earlier outputs bit-identical, all t, 10 seeds."""
    checked = 0
    for seed in range(10):
        n = 16 + 2 * seed  # 16..34, capped below
        n = min(n, 32)
        cfg = LSConfig(seq_len=n, model_dim=8, heads=1, window=4, rank=1,
                       seg_len=4, mode="causal", dual_ln=bool(seed % 2))
        p = init_head_params(Rng(seed), cfg)
        x = Tensor(Rng(100 + seed).normal((n, 8)))
        base_agg = causal_aggregate_head(x, p, cfg).data.copy()
        base_full = causal_full_attention_oracle(x, p).data.copy()
        for t in range(1, n):
            bumped = Tensor(x.data.copy())
            bumped.data[t] = -bumped.data[t] + 3.0
            out_agg = causal_aggregate_head(bumped, p, cfg).data
            out_full = causal_full_attention_oracle(bumped, p).data
            assert np.array_equal(base_agg[:t], out_agg[:t]), f"aggregate leak at t={t}"
            assert np.array_equal(base_full[:t], out_full[:t]), f"oracle leak at t={t}"
            checked += 1
    report("4 causality", f"{checked} perturbations, all prefixes bit-identical")


# ------------------------------------------------------------- criterion 5 -

def test_criterion_5_gradient_checks():
    """Analytic vs central differences for all six variants, 5 seeds each."""
    n, d = 8, 4

    def aggregate_loss(x, p, cfg, probe):
        return tensor_sum(mul(aggregate_head(x, p, cfg), probe))

    variants = {
        "full": (LSConfig(seq_len=n, model_dim=d, heads=1, window=2, rank=1),
                 lambda x, p, cfg, probe: tensor_sum(mul(full_attention_head(x, p), probe))),
        "window": (LSConfig(seq_len=n, model_dim=d, heads=1, window=2, rank=0),
                   aggregate_loss),
        "projection": (LSConfig(seq_len=n, model_dim=d, heads=1, window=0, rank=2),
                       aggregate_loss),
        "plain-aggregate": (LSConfig(seq_len=n, model_dim=d, heads=1, window=2, rank=2),
                            aggregate_loss),
        "dualln-aggregate": (LSConfig(seq_len=n, model_dim=d, heads=1, window=2, rank=2,
                                      dual_ln=True),
                             aggregate_loss),
        "causal-aggregate": (LSConfig(seq_len=n, model_dim=d, heads=1, window=2, rank=1,
                                      seg_len=4, mode="causal", dual_ln=True),
                             lambda x, p, cfg, probe: tensor_sum(mul(causal_aggregate_head(x, p, cfg), probe))),
    }
    worst = {}
    for name, (cfg, loss_fn) in variants.items():
        worst[name] = 0.0
        for seed in range(5):
            rng = Rng(7000 + 10 * seed)
            p = init_head_params(rng, cfg)
            x = Tensor(rng.child(1).normal((n, d)), requires_grad=True)
            # Random linear functional: a plain sum is degenerate for the
            # normalized variants (zero feature-mean value rows).
            probe = Tensor(rng.child(2).normal((n, cfg.head_dim)))
            params = [x] + [t for _, t in p.named_parameters()]
            err = finite_diff_check(lambda: loss_fn(x, p, cfg, probe), params)
            worst[name] = max(worst[name], err)
        assert worst[name] < 1e-5, f"{name}: max rel err {worst[name]:.2e}"
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report("5 gradient-checks", detail)


# ------------------------------------------------------------- criterion 6 -

def test_criterion_6_norm_ratio_probe():
    """Window keys outweigh projected keys at init; dual LN pins ratio to 1."""
    cfg = LSConfig(seq_len=256, model_dim=64, heads=2, window=8, rank=8)
    seeds = tuple(range(10))
    plain = norm_ratio_probe(cfg, seeds)
    dual = norm_ratio_probe(replace(cfg, dual_ln=True), seeds)
    assert plain.key_ratio > 1.05 and plain.value_ratio > 1.05
    assert 0.98 <= dual.key_ratio <= 1.02 and 0.98 <= dual.value_ratio <= 1.02
    report("6 norm-ratios",
           f"plain {plain.key_ratio:.2f}/{plain.value_ratio:.2f}, "
           f"dual {dual.key_ratio:.4f}/{dual.value_ratio:.4f}")


# ------------------------------------------------------------- criterion 7 -

def test_criterion_7_scaling():
    """Linear cost growth for long-short, quadratic for full; bounded wall time."""
    def ls_flops(n):
        return count_flops(ArchSpec(layers=2, model_dim=64, heads=2, ffn_dim=128,
                                    seq_len=n, variant="long-short", window=8, rank=32)).total

    def full_flops(n):
        return count_flops(ArchSpec(layers=2, model_dim=64, heads=2, ffn_dim=128,
                                    seq_len=n, variant="full")).total

    ls_ratios = [ls_flops(2 * n) / ls_flops(n) for n in (1024, 2048)]
    assert all(1.9 <= r <= 2.1 for r in ls_ratios)
    full_ratios = [full_flops(2 * n) / full_flops(n) for n in (2048, 4096)]
    assert all(3.6 <= r <= 4.4 for r in full_ratios)

    arch = ArchSpec(layers=2, model_dim=64, heads=2, ffn_dim=128, seq_len=1024,
                    variant="long-short", window=8, rank=32)
    rows = run_scaling(arch, [1024, 2048, 4096], reps=5, seed=7)
    wall_ratios = [b.wall_ms / a.wall_ms for a, b in zip(rows, rows[1:])]
    assert all(r <= 2.5 for r in wall_ratios), wall_ratios
    report("7 scaling",
           f"flops x{ls_ratios[0]:.3f} (long-short), x{full_ratios[0]:.2f} (full); "
           f"wall ratios {[f'{r:.2f}' for r in wall_ratios]}")


# ------------------------------------------------------------- criterion 8 -

@pytest.fixture(scope="module")
def lm_base_config():
    return dict(layers=2, ffn_dim=64, learning_rate=0.5, batch_size=8)


def test_criterion_8a_untrained_uniform(lm_base_config):
    cfg = ModelConfig(attention=desk_causal_config(), steps=1, seed=0, **lm_base_config)
    model = build_model(cfg, Rng(0))
    data = Rng(1).integers(0, 256, size=10_000).astype(np.uint8)
    bpc = evaluate_bpc(model, data)
    assert abs(bpc - 8.0) <= 0.1
    report("8a untrained-bpc", f"{bpc:.6f} bits")


def test_criterion_8b_one_byte_corpus(lm_base_config):
    corpus = np.full(20_000, 65, dtype=np.uint8)
    cfg = ModelConfig(attention=desk_causal_config(), steps=200, seed=0, **lm_base_config)
    _, rep = train(cfg, corpus)
    assert rep.final_val_bpc < 0.05
    # While above threshold the loss keeps falling across 50-step windows.
    bpcs = rep.val_bpcs
    for i in range(len(bpcs) - 50):
        if bpcs[i] >= 0.05:
            assert bpcs[i + 50] < bpcs[i]
    first_below = next(i for i, v in enumerate(bpcs) if v < 0.05)
    report("8b one-byte-corpus",
           f"bpc {rep.final_val_bpc:.4f} after 200 steps, below 0.05 at step {first_below}")


def test_criterion_8c_periodic_corpus(lm_base_config):
    corpus = np.frombuffer(b"abcd" * 5000, dtype=np.uint8)
    cfg = ModelConfig(attention=desk_causal_config(), steps=300, seed=0, **lm_base_config)
    _, rep = train(cfg, corpus)
    assert rep.final_val_bpc < 0.5
    report("8c periodic-corpus", f"bpc {rep.final_val_bpc:.4f} after 300 steps (limit 2000)")


def test_criterion_8d_dualln_ablation(lm_base_config):
    """Soft directional check; the full-scale result is not reproducible here.

    On a corpus whose signal is purely long-range, matching the branch norms
    at initialization lets the projection branch start learning earlier, so
    the paired run with dual LN should end at or below the plain run's
    validation loss on most seeds.
    """
    corpus = long_range_copy_corpus(0)
    attention = LSConfig(seq_len=64, model_dim=32, heads=2, window=2, rank=4,
                         seg_len=4, mode="causal")
    wins = 0
    finals = []
    for seed in range(5):
        cfg = ModelConfig(attention=attention, steps=400, seed=seed, **lm_base_config)
        with_report, without_report = dualln_ablation(cfg, corpus)
        finals.append((round(with_report.final_val_bpc, 4),
                       round(without_report.final_val_bpc, 4)))
        wins += with_report.final_val_bpc <= without_report.final_val_bpc
        # Sanity on both curves: finite and improving.
        for rep in (with_report, without_report):
            assert np.isfinite(rep.train_losses).all()
            assert rep.final_val_bpc < rep.val_bpcs[0]
    assert wins >= 3, f"dual LN preferred on only {wins}/5 seeds: {finals}"
    report("8d dualln-ablation", f"{wins}/5 seeds favour dual LN: {finals}")


def test_criterion_8_determinism(lm_base_config):
    corpus = single_copy_corpus(1, size=10_000)
    cfg = ModelConfig(attention=desk_causal_config(), steps=8, seed=3, **lm_base_config)
    _, a = train(cfg, corpus)
    _, b = train(cfg, corpus)
    assert a.train_losses == b.train_losses and a.final_val_bpc == b.final_val_bpc
    report("8e determinism", "training is bit-reproducible")


# ------------------------------------------------------------- criterion 9 -

def test_criterion_9_scope_statement():
    """The README spells out which full-scale results are not reproduced."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "not reproduced" in text.lower()
    for marker in ("accurac", "bits per character", "ImageNet", "full-scale"):
        assert marker.lower() in text.lower(), f"README must mention {marker}"
    report("9 scope-statement", "README documents the non-reproduced results")
