"""Cyclic rotation groups and their action on images and group feature maps.

The group of order t consists of the matrices

    A_k = [[ cos(2*pi*k/t), sin(2*pi*k/t)],
           [-sin(2*pi*k/t), cos(2*pi*k/t)]],   k = 0..t-1.

A_k composes cyclically (A_k A_j = A_{k+j mod t}).  Acting on a 2-D function
by f -> f(A_k^{-1} x), the element k rotates the picture clockwise by
2*pi*k/t; in the counter-clockwise-positive angle convention used by
`rotate_image` this is an angle of -2*pi*k/t (see `element_image_angle`).

A group feature map is an (h, w, t, n) array, t slots of n channels each;
rotating it combines the spatial rotation of every slot with a cyclic shift
of the slot axis.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import GroupIndexError, InvalidOrderError, ShapeError
from .image import Image, bilinear_sample, pixel_coords

RIGHT_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class RotationGroup:
    """Cyclic rotation group of order t with its 2x2 matrices."""

    t: int
    matrices: np.ndarray  # (t, 2, 2)


def _is_int(v) -> bool:
    """The package's integer rule (group orders, model and data configs): a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """The package's number rule: an int or float that a float64 holds finitely."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def make_group(t: int) -> RotationGroup:
    """Build the cyclic rotation group of order t."""
    if not _is_int(t) or t < 1:
        raise InvalidOrderError(f"group order must be a positive integer, got {t!r}")
    angles = 2.0 * np.pi * np.arange(t) / t
    c, s = np.cos(angles), np.sin(angles)
    # snap quarter-turn entries so p4 algebra is bit-exact
    for v in (c, s):
        v[np.abs(v) < 1e-15] = 0.0
        v[np.abs(v - 1.0) < 1e-15] = 1.0
        v[np.abs(v + 1.0) < 1e-15] = -1.0
    mats = np.empty((t, 2, 2))
    mats[:, 0, 0] = c
    mats[:, 0, 1] = s
    mats[:, 1, 0] = -s
    mats[:, 1, 1] = c
    return RotationGroup(int(t), mats)


def element_image_angle(group: RotationGroup, k: int) -> float:
    """Counter-clockwise image-rotation angle realizing element k's action."""
    return -2.0 * np.pi * (k % group.t) / group.t


def _right_angle_quarter_turns(angle: float) -> int | None:
    k = round(angle / (np.pi / 2.0))
    if abs(angle - k * (np.pi / 2.0)) < RIGHT_ANGLE_TOL:
        return k % 4
    return None


def _rotate_array(data: np.ndarray, angle: float) -> np.ndarray:
    """Rotate an (h, w, c) array CCW by `angle` about the domain center."""
    k = _right_angle_quarter_turns(angle)
    if k is not None:
        if k % 2 == 1 and data.shape[0] != data.shape[1]:
            raise ShapeError(
                "exact right-angle rotation by an odd quarter turn requires a "
                f"square image, got {data.shape[0]}x{data.shape[1]}"
            )
        return np.ascontiguousarray(np.rot90(data, k, axes=(0, 1)))
    # generic angle: output pixel at x takes the input value at R(-angle) x
    h, w = data.shape[:2]
    c, s = np.cos(angle), np.sin(angle)
    xy = pixel_coords(h, w)
    src = np.empty_like(xy)
    src[..., 0] = c * xy[..., 0] + s * xy[..., 1]
    src[..., 1] = -s * xy[..., 0] + c * xy[..., 1]
    return bilinear_sample(data, src)


def rotate_image(img: Image, angle: float) -> Image:
    """Rotate an image CCW by `angle` radians.

    Multiples of pi/2 (within 1e-12) are exact index permutations; any other
    angle uses bilinear interpolation with out-of-domain samples set to 0.
    Group element k's image action is the angle `element_image_angle(group, k)`.
    """
    return Image(_rotate_array(img.data, float(angle)))


def rotate_feature(f: np.ndarray, group: RotationGroup, k: int) -> np.ndarray:
    """Apply group element k to an (h, w, t, n) feature array.

    Output slot j holds the spatially rotated input slot (j - k) mod t; the
    spatial rotation is element k's image action (exact permutation for
    quarter turns, bilinear otherwise).
    """
    if f.ndim != 4 or f.shape[2] != group.t:
        raise ShapeError(f"feature array {f.shape} is not h x w x t x n with t={group.t}")
    if not 0 <= k < group.t:
        raise GroupIndexError(f"group index {k} outside [0, {group.t})")
    perm = [(j - k) % group.t for j in range(group.t)]
    h, w, t, n = f.shape
    rotated = _rotate_array(f[:, :, perm].reshape(h, w, t * n), element_image_angle(group, k))
    return rotated.reshape(h, w, t, n)
