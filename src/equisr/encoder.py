"""Feature encoders: a plain CNN baseline and its rotation-equivariant twin.

Both variants share one mini-EDSR layout -- head convolution, `blocks`
residual blocks (conv, relu, conv, skip add), tail convolution, and a global
skip from the head output to the tail output.  No batch normalization.

The equivariant variant uses a lifting convolution for the head and group
convolutions elsewhere; the plain variant is simply the same code path with
group order t = 1.  Channel budgets are compared as n * t, so a plain
encoder with n = 32 matches an equivariant one with t = 4, n = 8.

Biases are per-channel and shared across group slots, which keeps the bias
add equivariant.  The weights are the model's table entries `enc.head`,
`enc.block<b>.conv0`, `enc.block<b>.conv1` and `enc.tail`, each a `.w`
coefficient grid and a `.b` bias (see inr._layout).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import diff
from .diff import Tensor
from .errors import ShapeError
from .filters import group_conv_t

if TYPE_CHECKING:  # inr imports this module
    from .inr import INRModel


def encode_t(model: INRModel, x: Tensor) -> Tensor:
    """Image tensor ([b,] h, w, c_in) -> feature tensor ([b,] h, w, t, n) of
    the model's encoder."""
    cfg, params = model.cfg, model.params
    if x.shape[-1] != cfg.c_in:
        raise ShapeError(f"encoder expects {cfg.c_in} channels, image has {x.shape[-1]}")

    def conv(name: str, y: Tensor) -> Tensor:
        return group_conv_t(y, params[f"enc.{name}.w"], model.group, bias=params[f"enc.{name}.b"])

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
