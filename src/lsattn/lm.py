"""Byte-level autoregressive language model over causal long-short attention.

Pre-LN transformer blocks, learned absolute position embeddings, an untied
zero-initialized output head (so an untrained model scores exactly uniform),
and plain fixed-step SGD. Everything is deterministic given (seed, corpus,
config).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar

import numpy as np

from .attention import block_forward
from .autodiff import gradients
from .causal import causal_aggregate_head
from .config import LSConfig
from .errors import ConfigError, DivergenceError, ShapeError
from .params import BlockParams, LnParams, Params, _ln_params, init_blocks
from .tensor import (
    Rng,
    Tensor,
    add,
    cross_entropy_mean,
    init_matrix,
    layer_norm,
    matmul,
    no_grad,
    scale_by_array,
    take,
)

__all__ = ["ModelConfig", "ModelParams", "TrainReport", "StepMetrics",
           "build_model", "train", "evaluate_bpc", "dualln_ablation", "param_count"]

LN2 = math.log(2.0)
# Windows `evaluate_bpc` scores per forward pass, so its memory does not grow
# with the evaluated slice.
EVAL_CHUNK_ROWS = 64


@dataclass(frozen=True)
class ModelConfig:
    attention: LSConfig
    layers: int = 2
    ffn_dim: int = 64
    dropout: float = 0.0
    learning_rate: float = 0.5
    steps: int = 200
    batch_size: int = 8
    seed: int = 0
    vocab_size: ClassVar[int] = 256
    val_fraction: ClassVar[float] = 0.1

    def __post_init__(self):
        if self.attention.mode != "causal":
            raise ConfigError("the language model requires a causal attention config")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.layers < 1 or self.ffn_dim < 1 or self.batch_size < 1:
            raise ConfigError("layers, ffn_dim and batch_size must be positive")
        if self.steps < 0:
            raise ConfigError(f"steps must be non-negative, got {self.steps}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )

    @property
    def seq_len(self) -> int:
        return self.attention.seq_len


@dataclass
class ModelParams(Params):
    config: ModelConfig
    token_embedding: Tensor
    position_embedding: Tensor
    blocks: list[BlockParams] = field(metadata={"item": "block"})
    ln_final: LnParams
    head_weight: Tensor
    head_bias: Tensor

    def parameter_list(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def build_model(cfg: ModelConfig, rng: Rng) -> ModelParams:
    """Fresh parameters; the output head starts at zero so initial logits are uniform."""
    d = cfg.attention.model_dim
    return ModelParams(
        config=cfg,
        token_embedding=init_matrix(rng.child(0), cfg.vocab_size, d),
        position_embedding=init_matrix(rng.child(1), cfg.seq_len, d),
        blocks=init_blocks(rng, cfg.attention, cfg.ffn_dim, cfg.layers),
        ln_final=_ln_params(d),
        head_weight=Tensor(np.zeros((d, cfg.vocab_size)), requires_grad=True),
        head_bias=Tensor(np.zeros(cfg.vocab_size), requires_grad=True),
    )


def param_count(model: ModelParams) -> int:
    return sum(t.size for t in model.parameter_list())


def _dropout(rng: Rng | None, rate: float) -> Callable[[Tensor], Tensor]:
    """Inverted dropout with masks drawn from rng; the identity without rng or at rate 0."""
    if rng is None or rate <= 0.0:
        return lambda t: t

    def drop(t: Tensor) -> Tensor:
        keep = rng.uniform(t.shape) >= rate
        return scale_by_array(t, keep / (1.0 - rate))

    return drop


def forward_logits(
    model: ModelParams, tokens: np.ndarray, dropout_rng: Rng | None = None
) -> Tensor:
    """Next-token logits, shape tokens.shape + (vocab,)."""
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.shape[-1] != cfg.seq_len:
        raise ShapeError(f"token rows must have length {cfg.seq_len}, got {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ShapeError("token ids outside vocabulary")
    x = add(take(model.token_embedding, tokens), model.position_embedding)
    dropout = _dropout(dropout_rng, cfg.dropout)
    for block in model.blocks:
        x = block_forward(
            x, block, lambda h, hp: causal_aggregate_head(h, hp, cfg.attention), dropout
        )
    x = layer_norm(x, model.ln_final.gain, model.ln_final.bias)
    return add(matmul(x, model.head_weight), model.head_bias)


def sequence_loss(model: ModelParams, batch: np.ndarray, dropout_rng: Rng | None = None) -> Tensor:
    """Mean next-token cross-entropy in nats over a (batch, seq+1) id array."""
    batch = np.asarray(batch, dtype=np.intp)
    logits = forward_logits(model, batch[..., :-1], dropout_rng)
    return cross_entropy_mean(logits, batch[..., 1:])


def evaluate_bpc(model: ModelParams, corpus_slice: np.ndarray | bytes) -> float:
    """Mean next-token cross-entropy of the slice, in bits per byte.

    The slice is cut into windows of seq_len + 1 bytes, scored EVAL_CHUNK_ROWS
    windows at a time; chunk means are weighted by their share of the windows.
    """
    data = _as_bytes(corpus_slice)
    n = model.config.seq_len
    if data.size < n + 1:
        raise ConfigError(f"evaluation slice must hold at least {n + 1} bytes")
    windows = (data.size - 1) // n
    loss = 0.0
    for start in range(0, windows, EVAL_CHUNK_ROWS):
        stop = min(start + EVAL_CHUNK_ROWS, windows)
        rows = np.stack([data[i * n : i * n + n + 1] for i in range(start, stop)])
        with no_grad():
            loss += sequence_loss(model, rows).item() * ((stop - start) / windows)
    return loss / LN2


@dataclass
class StepMetrics:
    step: int
    train_loss_nats: float
    val_bpc: float
    wall_ms: float


@dataclass
class TrainReport:
    steps: list[StepMetrics] = field(default_factory=list)
    final_val_bpc: float = float("nan")

    @property
    def train_losses(self) -> list[float]:
        return [s.train_loss_nats for s in self.steps]

    @property
    def val_bpcs(self) -> list[float]:
        return [s.val_bpc for s in self.steps]


def _as_bytes(corpus: np.ndarray | bytes | bytearray) -> np.ndarray:
    """The corpus as an array without a copy; `sequence_loss` casts each batch to ids."""
    if isinstance(corpus, (bytes, bytearray)):
        return np.frombuffer(corpus, dtype=np.uint8)
    return np.asarray(corpus)


def _sample_batch(data: np.ndarray, n: int, batch: int, rng: Rng) -> np.ndarray:
    offsets = rng.integers(0, data.size - n, size=batch)
    return np.stack([data[o : o + n + 1] for o in offsets])


def train(cfg: ModelConfig, corpus: np.ndarray | bytes) -> tuple[ModelParams, TrainReport]:
    """SGD with a fixed step size; per-step metrics on a fixed validation batch."""
    data = _as_bytes(corpus)
    n = cfg.seq_len
    if data.size < 10 * n:
        raise ConfigError(f"corpus must hold at least {10 * n} bytes")
    split = data.size - max(int(data.size * cfg.val_fraction), n + 1)
    train_data, val_data = data[:split], data[split:]

    rng = Rng(cfg.seed)
    model = build_model(cfg, rng.child(0))
    batch_rng = rng.child(1)
    dropout_rng = rng.child(2) if cfg.dropout > 0 else None
    val_batch = _sample_batch(val_data, n, min(cfg.batch_size, 4), rng.child(3))

    params = model.parameter_list()
    report = TrainReport()
    lr = cfg.learning_rate
    for step in range(cfg.steps):
        started = time.perf_counter()
        batch = _sample_batch(train_data, n, cfg.batch_size, batch_rng)
        loss = sequence_loss(model, batch, dropout_rng)
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            raise DivergenceError(
                f"non-finite training loss {loss_value} at step {step}; "
                f"lr={lr}, seed={cfg.seed}"
            )
        grads = gradients(loss, params)
        del loss  # frees the graph before the validation forward runs
        for p, g in zip(params, grads):
            p.data -= lr * g
        with no_grad():
            val_loss = sequence_loss(model, val_batch).item()
        report.steps.append(
            StepMetrics(
                step=step,
                train_loss_nats=loss_value,
                val_bpc=val_loss / LN2,
                wall_ms=(time.perf_counter() - started) * 1e3,
            )
        )
    report.final_val_bpc = evaluate_bpc(model, val_data)
    return model, report


def dualln_ablation(
    cfg: ModelConfig, corpus: np.ndarray | bytes
) -> tuple[TrainReport, TrainReport]:
    """Train twice from identical seeds and data order, toggling only dual_ln."""
    with_cfg = replace(cfg, attention=replace(cfg.attention, dual_ln=True))
    without_cfg = replace(cfg, attention=replace(cfg.attention, dual_ln=False))
    _, with_report = train(with_cfg, corpus)
    _, without_report = train(without_cfg, corpus)
    return with_report, without_report
