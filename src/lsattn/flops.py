"""Exact cost model for encoder stacks built on the attention variants.

Counting convention: one multiply-accumulate inside a matrix product is one
FLOP, and a layer normalization costs 4 FLOPs per normalized element.
Softmax, masking, scaling, and bias additions are free. The closed forms
here mirror the executed operations term by term, so they agree exactly
with the runtime counter (`measured_flops`) on every variant. `ArchSpec` is
the one description of an architecture: a preset or a preset file is a whole
ArchSpec, and callers change its fields with `dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, get_type_hints

from .attention import aggregate_head, block_forward, full_attention_head
from .causal import causal_full_attention_oracle
from .config import MODES, LSConfig
from .errors import ConfigError
from .params import init_blocks
from .tensor import Rng, Tensor, count_flops_runtime, no_grad

__all__ = ["ArchSpec", "FlopReport", "count_flops", "measured_flops",
           "PRESETS", "load_preset_file", "reference_encoder"]

VARIANTS = ("full", "window", "projection", "long-short")


@dataclass(frozen=True)
class ArchSpec:
    """Architecture and attention settings for one cost query.

    dual_ln applies to every variant but `full`, which has no branch to normalize.
    """

    layers: int
    model_dim: int
    heads: int
    ffn_dim: int
    seq_len: int
    variant: str = "full"
    # Span settings w, r, l: every variant runs from the shape fields alone.
    window: int = 8
    rank: int = 32
    seg_len: int = 16
    mode: str = "bidirectional"
    dual_ln: bool = False
    docs: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.window < 0 or self.rank < 0 or self.seg_len < 1:
            raise ConfigError("window and rank must be non-negative and seg_len positive")
        if min(self.layers, self.docs, self.seq_len, self.model_dim, self.ffn_dim) < 1:
            raise ConfigError("layers, docs, seq_len, model_dim and ffn_dim must be positive")
        if self.heads < 1:
            raise ConfigError(f"heads must be positive, got {self.heads}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} must be divisible by heads {self.heads}")
        if self.variant == "window" and self.window < 2:
            raise ConfigError("window variant requires window >= 2")
        if self.variant == "projection":
            if self.rank < 1:
                raise ConfigError("projection variant requires rank >= 1")
            if self.mode == "causal":
                raise ConfigError("causal mode has no projection-only variant")
        if self.variant == "long-short" and (self.window < 2 or self.rank < 1):
            raise ConfigError("long-short variant requires window >= 2 and rank >= 1")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    def attention_config(self) -> LSConfig | None:
        """The LSConfig executed by this variant; None for full attention."""
        if self.variant == "full":
            return None
        window = 0 if self.variant == "projection" else self.window
        rank = 0 if self.variant == "window" else self.rank
        return LSConfig(
            seq_len=self.seq_len,
            model_dim=self.model_dim,
            heads=self.heads,
            window=window,
            rank=rank,
            seg_len=self.seg_len,
            mode=self.mode,
            dual_ln=self.dual_ln,
        )


@dataclass(frozen=True)
class FlopReport:
    """Itemized per-layer FLOPs; total = sum of components x layers x docs."""

    components: dict[str, int]
    layers: int
    docs: int = 1

    @property
    def per_layer(self) -> int:
        return sum(self.components.values())

    @property
    def total(self) -> int:
        return self.per_layer * self.layers * self.docs

    @property
    def formatted(self) -> str:
        return f"{self.total / 1e9:.2f} G"


def count_flops(arch: ArchSpec) -> FlopReport:
    """Closed-form per-component FLOPs for one layer of the given stack."""
    n, d, h, dk, ffn = arch.seq_len, arch.model_dim, arch.heads, arch.head_dim, arch.ffn_dim
    cfg = arch.attention_config()
    n_att = n if cfg is None else cfg.padded_len

    comp: dict[str, int] = {
        "qkv_projections": 3 * h * n_att * d * dk,
        "output_projection": n * d * d,
        "feed_forward": 2 * n * d * ffn,
        "layer_norm": 4 * 2 * n * d,
    }

    if arch.variant == "full":
        comp["attention_scores"] = h * n * n * dk
        comp["attention_values"] = h * n * n * dk
        return FlopReport(components=comp, layers=arch.layers, docs=arch.docs)

    # One softmax per query over 2w window slots plus every projected slot
    # (causally the slots a query may not see are masked, not skipped).
    w, r, slots = cfg.window, cfg.rank, cfg.projected_slots
    comp["attention_scores"] = h * n_att * (2 * w + slots) * dk
    comp["attention_values"] = h * n_att * (2 * w + slots) * dk
    if r > 0:
        comp["dynamic_projection"] = h * n_att * d * r
        comp["projected_kv"] = 2 * h * n_att * r * dk
    if cfg.dual_ln:
        comp["layer_norm"] += 4 * 2 * h * ((n_att if w else 0) + slots) * dk
    return FlopReport(components=comp, layers=arch.layers, docs=arch.docs)


def reference_encoder(arch: ArchSpec, rng: Rng) -> Callable[[Tensor], Tensor]:
    """The forward of a bare stack of the LM's pre-LN blocks, drawn by `init_blocks`.

    No embeddings, classifier, final norm or dropout: exactly the per-layer
    work the cost model describes. `full` runs the exact oracle of its mode.
    """
    cfg = arch.attention_config()
    if cfg is None:
        head_fn = causal_full_attention_oracle if arch.mode == "causal" else full_attention_head
        cfg = LSConfig(seq_len=arch.seq_len, model_dim=arch.model_dim, heads=arch.heads,
                       window=2, rank=0)
    else:
        head_fn = partial(aggregate_head, cfg=cfg)
    blocks = init_blocks(rng, cfg, arch.ffn_dim, arch.layers)

    def forward(x: Tensor) -> Tensor:
        for block in blocks:
            x = block_forward(x, block, head_fn)
        return x

    return forward


def measured_flops(arch: ArchSpec, seed: int = 0) -> int:
    """FLOPs reported by the runtime counter for one actual forward pass."""
    rng = Rng(seed)
    encoder = reference_encoder(arch, rng)
    x = Tensor(rng.child(999).normal((arch.seq_len, arch.model_dim)))
    with no_grad():
        with count_flops_runtime() as counter:
            for _ in range(arch.docs):
                encoder(x)
    return counter.total


_LRA_BASE = dict(layers=2, model_dim=64, heads=2, ffn_dim=128)

PRESETS: dict[str, ArchSpec] = {
    "lra-listops": ArchSpec(seq_len=2048, **_LRA_BASE),
    "lra-text": ArchSpec(seq_len=4096, **_LRA_BASE),
    "lra-retrieval": ArchSpec(seq_len=4096, docs=2, **_LRA_BASE),
    "charlm-small": ArchSpec(
        layers=12, model_dim=768, heads=12, ffn_dim=3072, seq_len=2048,
        variant="long-short", window=512, rank=1, seg_len=16, mode="causal",
        dual_ln=True,
    ),
}

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}
# A preset file's keys, their value types and its required keys are ArchSpec's fields.
_FIELD_TYPES = get_type_hints(ArchSpec)
_PARSERS = {int: int, str: str, bool: lambda value: _BOOL_VALUES[value.lower()]}


def load_preset_file(path: str | Path) -> ArchSpec:
    """Parse a `key = value` preset file (one setting per line, # comments)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read preset file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"preset file {path} is not UTF-8 text") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            values[key] = _PARSERS[kind](value)
        except (KeyError, ValueError):
            raise ConfigError(f"{path}:{lineno}: bad {kind.__name__} {value!r} for {key}") from None
    missing = {f.name for f in fields(ArchSpec) if f.default is MISSING} - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")
    return ArchSpec(**values)
