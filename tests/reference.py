"""Plain-numpy references shared by the attention tests, written from the definitions.

`window_keys` derives a query's window from the paper's definition and calls
no `lsattn.spans` code, so a wrong window in the fast path cannot also hide
in the oracles that check it.
"""

import numpy as np

from lsattn import Rng, Tensor, init_head_params


def np_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_reference(a, eps=1e-5):
    mu = a.mean(-1, keepdims=True)
    var = ((a - mu) ** 2).mean(-1, keepdims=True)
    return (a - mu) / np.sqrt(var + eps)


def make_head(cfg, seed=0, x_seed=100):
    p = init_head_params(Rng(seed), cfg)
    x = Tensor(Rng(x_seed).normal((cfg.seq_len, cfg.model_dim)))
    return p, x


def window_keys(t, cfg):
    """Real window keys of query t in increasing order (window w > 0).

    The sequence is cut into window segments of length w, and query t lives
    in segment s = t // w. Bidirectionally the window is the home segment
    [s*w, (s+1)*w) plus w/2 neighbours on each side; causally it is the
    positions s*w - w ... t. Both are clipped to [0, n).
    """
    n, w = cfg.seq_len, cfg.window
    home = t // w * w
    if cfg.mode == "causal":
        lo, hi = home - w, t + 1
    else:
        lo, hi = home - w // 2, home + w + w // 2
    return np.arange(max(lo, 0), min(hi, n))
