"""Parameter containers: names come from the dataclass fields."""

from dataclasses import dataclass, field, fields

import numpy as np

from lsattn import lm
from lsattn.config import LSConfig
from lsattn.params import BlockParams, LnParams, Params, init_block_params
from lsattn.tensor import Rng, Tensor

LM_TRAIN = LSConfig(seq_len=64, model_dim=32, heads=2, window=2, rank=4, seg_len=4,
                    mode="causal", dual_ln=True)


def ln(dim: int) -> LnParams:
    return LnParams(gain=Tensor(np.ones(dim)), bias=Tensor(np.zeros(dim)))


@dataclass
class Stack(Params):
    weight: Tensor
    joined: LnParams = field(metadata={"views": "norms"})
    norms: list[LnParams] = field(metadata={"item": "n"})
    empty: Tensor


def stack() -> Stack:
    return Stack(weight=Tensor(np.ones((2, 3))), joined=ln(4), norms=[ln(2), ln(2)],
                 empty=Tensor(np.zeros((3, 0))))


def names(params: Params) -> list[str]:
    return [name for name, _ in params.named_parameters()]


def test_list_items_are_named_by_their_metadata():
    params = stack()
    assert names(params) == ["weight", "n0.gain", "n0.bias", "n1.gain", "n1.bias"]
    assert dict(params.named_parameters())["n1.bias"] is params.norms[1].bias


def test_views_field_and_zero_size_tensor_are_left_out():
    params = stack()
    listed = {id(t) for _, t in params.named_parameters()}
    assert not listed & {id(params.joined.gain), id(params.joined.bias), id(params.empty)}
    assert names(params.joined) == ["gain", "bias"]


def test_added_tensor_field_is_listed_without_further_code():
    @dataclass
    class GatedBlock(BlockParams):
        gate: Tensor

    block = init_block_params(Rng(0), LM_TRAIN, ffn_dim=8)
    gated = GatedBlock(**{f.name: getattr(block, f.name) for f in fields(block)},
                       gate=Tensor(np.ones(3)))
    assert names(gated) == names(block) + ["gate"]


def test_lm_train_model_keeps_its_parameter_names():
    model = lm.build_model(lm.ModelConfig(attention=LM_TRAIN, layers=2, ffn_dim=64), Rng(0))
    listed = names(model)
    assert len(listed) == len(set(listed)) == 56
    assert listed[:3] == ["token_embedding", "position_embedding", "block0.ln_attn.gain"]
    assert listed[-3:] == ["ln_final.bias", "head_weight", "head_bias"]
    assert listed.index("block1.attn.h1.ln_global.bias") + 1 == listed.index("block1.attn.wo")
