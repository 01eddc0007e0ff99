"""The dynamic projection against a plain-numpy oracle of its definition.

Each projection segment's tokens get `rank` distributions, one softmax of
x @ wp per column over the segment's real tokens; K̄ = Pᵀ K and V̄ = Pᵀ V
(arXiv 2107.02192). The draws cover both modes, padding rows, padding-only
causal segments, one head or stacked heads, and a leading batch axis.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsattn import HeadParams, LnParams, LSConfig, Rng, Tensor, dynamic_projection
from lsattn.autodiff import finite_diff_check
from lsattn.tensor import add, mul, tensor_sum
from reference import np_softmax


def projection_oracle(x, wp, wk, wv, seq_len, l):
    """One head's pt (segments, r, l) and its kbar, vbar (segments * r, d_k).

    x (n, d) is cut into segments of l tokens, zero rows completing the last.
    Column c of segment s is a softmax of x @ wp[:, c] over the segment's
    tokens before seq_len, or over all its tokens if it has none; the other
    tokens get weight 0. Row s * r + c of kbar is that distribution applied
    to the segment's rows of x @ wk, and of vbar to those of x @ wv.
    """
    segments, r = -(-x.shape[0] // l), wp.shape[1]
    x = np.concatenate([x, np.zeros((segments * l - x.shape[0], x.shape[1]))])
    pt = np.zeros((segments, r, l))
    kbar, vbar = [], []
    for s in range(segments):
        tokens = list(range(s * l, (s + 1) * l))
        real = [t for t in tokens if t < seq_len] or tokens
        for c in range(r):
            logits = np.array([x[t] @ wp[:, c] for t in real])
            pt[s, c, [t - s * l for t in real]] = np_softmax(logits)
        kbar.append(pt[s] @ (x[tokens] @ wk))
        vbar.append(pt[s] @ (x[tokens] @ wv))
    return pt, np.concatenate(kbar), np.concatenate(vbar)


def close(got, want):
    return got.shape == want.shape and (
        np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()))


@given(
    causal=st.booleans(), seq_len=st.integers(1, 12), w=st.sampled_from([2, 4, 6]),
    l=st.integers(1, 4), r=st.integers(1, 4), dk=st.integers(1, 3),
    heads=st.sampled_from([0, 1, 3]), batch=st.sampled_from([(), (2,)]),
    padded_input=st.booleans(), seed=st.integers(0, 2**31),
)
@example(causal=True, seq_len=3, w=2, l=1, r=1, dk=1, heads=0, batch=(),
         padded_input=True, seed=0)
@example(causal=False, seq_len=3, w=4, l=1, r=2, dk=1, heads=0, batch=(),
         padded_input=True, seed=1)
@example(causal=True, seq_len=3, w=2, l=2, r=1, dk=1, heads=1, batch=(2,),
         padded_input=False, seed=2)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_matches_the_definition(causal, seq_len, w, l, r, dk, heads, batch, padded_input, seed):
    # heads 0 is one head's (d, d_k) and (d, r) weights against x (..., n, d);
    # otherwise the weights are stacked on a head axis and x has a unit one.
    # A padded input carries random rows past seq_len, which must get no
    # weight; causally, whole segments of them are padding only.
    h = max(heads, 1)
    cfg = LSConfig(seq_len=seq_len, model_dim=h * dk, heads=h, window=w, rank=r,
                   seg_len=l if causal else 1, mode="causal" if causal else "bidirectional")
    n, d = cfg.padded_len if padded_input else seq_len, cfg.model_dim
    rng = Rng(seed)
    head_axis = (h,) if heads else ()
    x = Tensor(rng.child(0).normal(batch + (1,) * len(head_axis) + (n, d)), requires_grad=True)
    wk, wv, wp = (Tensor(rng.child(i).normal(head_axis + (d, cols)), requires_grad=True)
                  for i, cols in ((1, dk), (2, dk), (3, r)))
    unused = Tensor(np.zeros(head_axis + (d, dk)))
    ln = LnParams(Tensor(np.ones(head_axis + (1, dk))), Tensor(np.zeros(head_axis + (1, dk))))
    p = HeadParams(wq=unused, wk=wk, wv=wv, wp=wp, ln_local=ln, ln_global=ln)

    pkv = dynamic_projection(x, p, cfg)
    seg_len = l if causal else n
    segments = -(-n // seg_len)
    assert pkv.pt.shape == batch + head_axis + (segments, r, seg_len)
    for index in np.ndindex(batch + head_axis):
        head = index[len(batch):]
        want = projection_oracle(x.data[index[:len(batch)]].reshape(n, d), wp.data[head],
                                 wk.data[head], wv.data[head], seq_len, seg_len)
        for got, ref in zip((pkv.pt, pkv.kbar, pkv.vbar), want):
            assert close(got.data[index], ref), index

    # Central differences on the smallest draws; a small gradient coordinate
    # reads the step's truncation error as relative error, hence 1e-5.
    if x.size + wp.size <= 24:
        probes = [Rng(seed + 1).child(i).normal(pkv.kbar.shape) for i in range(2)]

        def loss():
            out = dynamic_projection(x, p, cfg)
            return add(tensor_sum(mul(out.kbar, Tensor(probes[0]))),
                       tensor_sum(mul(out.vbar, Tensor(probes[1]))))

        assert finite_diff_check(loss, [x, wp]) < 1e-5
