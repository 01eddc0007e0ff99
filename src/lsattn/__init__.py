"""Long-short attention: sliding windows joined with dynamic low-rank projections.

The package provides the attention variants (exact, windowed, projected,
aggregated, causal), reverse-mode gradients over all of them, a byte-level
toy language model, an exact FLOP model, and benchmarking/probing tools
behind the `lsattn` command line.
"""

from .autodiff import finite_diff_check, gradients
from .attention import (
    AttentionWeights,
    NormRatioResult,
    ProjectedKV,
    aggregate_head,
    dynamic_projection,
    full_attention_head,
    multi_head,
    norm_ratio_probe,
)
from .causal import causal_aggregate_head, causal_full_attention_oracle
from .config import LSConfig, desk_causal_config
from .errors import ConfigError, DivergenceError, FullyMaskedRowError, ShapeError
from .params import HeadParams, LnParams, MultiHeadParams, init_head_params, init_multi_head_params
from .tensor import (
    Rng,
    Tensor,
    concat,
    count_flops_runtime,
    init_matrix,
    layer_norm,
    masked_softmax,
    matmul,
    no_grad,
    track_peak_bytes,
)

__version__ = "0.1.0"
