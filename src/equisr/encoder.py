"""Feature encoders: a plain CNN baseline and its rotation-equivariant twin.

Both variants share one mini-EDSR layout -- head convolution, `blocks`
residual blocks (conv, relu, conv, skip add), tail convolution, and a global
skip from the head output to the tail output.  No batch normalization.

The equivariant variant uses a lifting convolution for the head and group
convolutions elsewhere; the plain variant is simply the same code path with
group order t = 1.  Channel budgets are compared as n * t, so a plain
encoder with n = 32 matches an equivariant one with t = 4, n = 8.

Biases are per-channel and shared across group slots, which keeps the bias
add equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import diff
from .diff import Tensor
from .errors import ShapeError
from .filters import ParamFilter, group_conv_t, make_param_filter

if TYPE_CHECKING:  # inr imports this module
    from .inr import INRModel, ModelConfig


@dataclass
class EncoderParams:
    filters: dict[str, ParamFilter]
    biases: dict[str, Tensor]

    def named_parameters(self) -> dict[str, Tensor]:
        params = {f"{name}.w": pf.coeffs for name, pf in self.filters.items()}
        params.update({f"{name}.b": b for name, b in self.biases.items()})
        return params


def build_encoder(cfg: ModelConfig, seed: int = 0) -> EncoderParams:
    """Initialize the encoder of model `cfg`: He-uniform fan-in scaled
    weights (seeded) and zero biases."""
    rng = np.random.default_rng(seed)
    t, n, p = cfg.t, cfg.n, cfg.p
    filters: dict[str, ParamFilter] = {}
    biases: dict[str, Tensor] = {}

    def add_conv(name: str, g_in: int, c_in: int, c_out: int):
        filters[name] = make_param_filter(c_out, g_in, c_in, p, rng=rng)
        biases[name] = diff.parameter(np.zeros(c_out))

    add_conv("head", 1, cfg.c_in, n)
    for b in range(cfg.blocks):
        add_conv(f"block{b}.conv0", t, n, n)
        add_conv(f"block{b}.conv1", t, n, n)
    add_conv("tail", t, n, n)
    return EncoderParams(filters, biases)


def encode_t(model: INRModel, x: Tensor) -> Tensor:
    """Image tensor ([b,] h, w, c_in) -> feature tensor ([b,] h, w, t, n) of
    the model's encoder."""
    cfg, enc = model.cfg, model.encoder
    if x.shape[-1] != cfg.c_in:
        raise ShapeError(f"encoder expects {cfg.c_in} channels, image has {x.shape[-1]}")

    def conv(name: str, y: Tensor) -> Tensor:
        return group_conv_t(y, enc.filters[name], model.group, bias=enc.biases[name])

    # the head is a lifting convolution: an image is a one-slot feature map
    head = conv("head", diff.reshape(x, x.shape[:-1] + (1, x.shape[-1])))
    y = head
    for b in range(cfg.blocks):
        r = conv(f"block{b}.conv0", y)
        r = diff.relu(r)
        r = conv(f"block{b}.conv1", r)
        y = diff.add(y, r)
    y = conv("tail", y)
    return diff.add(y, head)
