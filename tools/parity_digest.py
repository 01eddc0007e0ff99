"""Print sha256 digests of the outputs a behaviour-preserving change must keep.

Run it once per tree, with that tree's `src` on PYTHONPATH, and compare the
two JSON objects; equal digests mean bit-identical outputs:

    PYTHONPATH=src python tools/parity_digest.py > digest.json

With `--save FILE.npz` it also writes the values behind the digests, one
entry per key (text as a string array). A change that is not bit-identical
then reads how far each moved key went:

    PYTHONPATH=src python tools/parity_digest.py --save new.npz > digest.json
    PYTHONPATH=src python tools/parity_digest.py --compare old.npz new.npz

`--compare` prints each key whose value differs, with the normwise relative
difference ||new - old|| / ||old|| (Frobenius norms) for numbers, or
"text differs", then the count of equal keys. It exits 1 when any key moved
or exists in only one file, and 0 when every key is equal, so a claim of
bit-identity can be checked by exit status. An array digest covers its
shape, dtype and bytes. Covered:

- the perfbench `bidir-long` layer (seed 901): output and every gradient;
- the perfbench `lm-train` config: a 50-step `lm.train` at seed 901, its
  train losses, val bpcs, final val bpc and trained parameters;
- five stacked-head `multi_head` layers, each on a batch of 2, with one
  branch empty or padding rows (window-only dual LN in both modes,
  projection-only, a padded causal layer with a padding-only projection
  segment, and a padded bidirectional layer with both branches, at 1,024
  padded rows): output, the gradients of x and of every `named_parameters()`
  entry, the runtime FLOPs of that forward, and
  `count_flops`/`measured_flops` of the matching one-layer `ArchSpec`;
- `count_flops` of every preset, and both workloads' closed-form and runtime
  flop-parity totals;
- stdout and exit code of 18 `lsattn` commands, run in this process, with the
  `wall_ms` column blanked; `train` and `ablate` read a corpus written to a
  temporary directory.

perfbench is imported from this script's checkout and only read. BLAS runs
on one thread, so matrix products sum in the same order on every run.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import lsattn  # noqa: E402
from lsattn import cli, flops, lm  # noqa: E402
from lsattn import (  # noqa: E402
    LSConfig, Rng, Tensor, aggregate_head, count_flops_runtime, gradients,
    init_multi_head_params, multi_head, no_grad,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import long_range_copy_corpus, make_workload  # noqa: E402

SEED = 901


def digest(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.shape} {a.dtype}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bidir_long() -> dict:
    workload = make_workload("bidir-long", SEED)
    workload.build()
    out, grads = workload.step()
    names = ["x"] + [name for name, _ in workload.params.named_parameters()]
    result = {"bidir-long.output": out}
    result.update({f"bidir-long.grad.{name}": g for name, g in zip(names, grads)})
    result["bidir-long.flop_parity"] = repr(workload.flop_counts())
    return result


def lm_train() -> dict:
    workload = make_workload("lm-train", SEED)
    workload.build()
    model, report = lm.train(workload.cfg, workload.corpus)
    workload.model = model  # flop_counts runs one forward of the trained model
    result = {
        "lm-train.train_losses": report.train_losses,
        "lm-train.val_bpcs": report.val_bpcs,
        "lm-train.final_val_bpc": report.final_val_bpc,
        "lm-train.flop_parity": repr(workload.flop_counts()),
    }
    result.update({f"lm-train.param.{name}": t.data for name, t in model.named_parameters()})
    return result


# Layers whose rank-0, window-0 or padding paths the two workloads never run.
EDGE_LAYERS = {
    "window-only-dual": LSConfig(seq_len=10, model_dim=12, heads=3, window=4, rank=0,
                                 dual_ln=True),
    "causal-window-only-dual": LSConfig(seq_len=12, model_dim=12, heads=3, window=2, rank=0,
                                        seg_len=4, mode="causal", dual_ln=True),
    "projection-only-dual": LSConfig(seq_len=10, model_dim=12, heads=3, window=0, rank=3,
                                     dual_ln=True),
    # n=5, w=4, l=2: tokens 6-7 form a padding-only projection segment.
    "causal-padded-dual": LSConfig(seq_len=5, model_dim=8, heads=2, window=4, rank=2,
                                   seg_len=2, mode="causal", dual_ln=True),
    # n=1021 pads to 1024 rows, so both branches see padding rows.
    "padded-dual": LSConfig(seq_len=1021, model_dim=32, heads=2, window=8, rank=16,
                            dual_ln=True),
}


def edge_layers() -> dict:
    result = {}
    for name, cfg in EDGE_LAYERS.items():
        rng = Rng(SEED)
        params = init_multi_head_params(rng.child(0), cfg)
        x = Tensor(rng.child(1).normal((2, cfg.seq_len, cfg.model_dim)), requires_grad=True)
        probe = rng.child(2).normal((2, cfg.seq_len, cfg.model_dim))
        head = lambda t, p: aggregate_head(t, p, cfg)  # noqa: E731
        out = multi_head(x, params, head)
        named = [("x", x)] + list(params.named_parameters())
        grads = gradients(out, [t for _, t in named], seed=probe)
        with no_grad(), count_flops_runtime() as counter:
            multi_head(x, params, head)
        variant = "projection" if cfg.window == 0 else "window" if cfg.rank == 0 else "long-short"
        arch = flops.ArchSpec(
            layers=1, model_dim=cfg.model_dim, heads=cfg.heads, ffn_dim=cfg.model_dim,
            seq_len=cfg.seq_len, variant=variant, window=cfg.window, rank=cfg.rank,
            seg_len=cfg.seg_len, mode=cfg.mode, dual_ln=cfg.dual_ln)
        result[f"{name}.output"] = out.data
        result.update({f"{name}.grad.{param}": g for (param, _), g in zip(named, grads)})
        result[f"{name}.flops"] = repr((
            counter.total, flops.count_flops(arch), flops.measured_flops(arch)))
    return result


def flop_counts() -> dict:
    return {f"count_flops.{name}": repr(flops.count_flops(arch))
            for name, arch in sorted(flops.PRESETS.items())}


def blank_wall_ms(text: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if "wall_ms" not in header:
        return text
    col = header.index("wall_ms")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[col] = ""
    return "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"


def cli_commands(corpus: str) -> list[list[str]]:
    lm_args = ["--corpus", corpus]
    sweeps = [["--variant", v] for v in flops.VARIANTS] + [
        ["--variant", "long-short", "--mode", "causal", "--l", "16", "--dual-ln"]]
    return [
        ["flops"],
        *(["flops", "--preset", name] for name in sorted(flops.PRESETS)),
        *(["sweep", "--n", "64,128", *args] for args in sweeps),
        ["norms"],
        ["norms", "--layers", "2"],
        ["norms", "--n", "16", "--r", "16", "--projection", "identity"],
        ["train", *lm_args],
        ["train", *lm_args, "--no-dual-ln"],
        ["train", *lm_args, "--dropout", "0.1", "--seed", "3"],
        ["ablate", *lm_args, "--steps", "8", "--seeds", "2"],
        ["check", "--seed", "1"],
    ]


def cli_outputs() -> dict:
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.bin"
        corpus.write_bytes(long_range_copy_corpus(SEED).tobytes())
        for argv in cli_commands(str(corpus)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            key = " ".join(argv).replace(str(corpus), "CORPUS")
            result[f"cli.{key}"] = f"exit {code}\n{blank_wall_ms(stdout.getvalue())}"
    return result


def compare(old_path: str, new_path: str) -> bool:
    """Print the keys whose saved values differ; True when every key is equal."""
    with np.load(old_path) as old_file, np.load(new_path) as new_file:
        old, new = dict(old_file), dict(new_file)
    equal = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            print(f"{key}: only in {old_path if key in old else new_path}")
        elif old[key].dtype.kind == "U" or new[key].dtype.kind == "U":
            if np.array_equal(old[key], new[key]):
                equal += 1
            else:
                print(f"{key}: text differs")
        elif old[key].shape != new[key].shape:
            print(f"{key}: shape {old[key].shape} -> {new[key].shape}")
        elif np.array_equal(old[key], new[key]):
            equal += 1
        else:
            scale = np.linalg.norm(old[key]) or 1.0
            print(f"{key}: {np.linalg.norm(new[key] - old[key]) / scale:.3e}")
    print(f"{equal} of {len(old.keys() | new.keys())} keys equal")
    return equal == len(old.keys() | new.keys())


def main() -> None:
    parser = argparse.ArgumentParser(description="digests of the outputs parity is judged on")
    parser.add_argument("--save", metavar="FILE.npz", help="also write the values to FILE.npz")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.npz", "NEW.npz"),
                        help="print the keys whose saved values differ, and by how much")
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    print(f"lsattn from {lsattn.__file__}", file=sys.stderr)
    values = {**bidir_long(), **lm_train(), **edge_layers(), **flop_counts(), **cli_outputs()}
    result = {key: text_digest(v) if isinstance(v, str) else digest(v) for key, v in values.items()}
    print(json.dumps(result, indent=1, sort_keys=True))
    if args.save:
        np.savez(args.save, **{key: np.asarray(v) for key, v in values.items()})


if __name__ == "__main__":
    main()
