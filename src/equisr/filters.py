"""Bicubic filter parametrization and rotation-equivariant convolutions.

A p x p filter is stored as coefficients of the separable bicubic basis

    phi_{a,b}(x) = phi_bic(x1 - a) * phi_bic(x2 - b),
    a, b in {-(p-1)/2, ..., (p-1)/2}   (filter mesh size 1),

where phi_bic is the classic three-branch piecewise cubic interpolation
kernel.  Because the basis interpolates (phi_{a,b} is 1 at its own grid node
and 0 at every other node), the coefficient grid *is* the filter at the
identity rotation, and the filter at any rotation A is obtained by
resampling the continuous function at A^{-1} u over the grid nodes u.

Resampling is a fixed linear map per (p, A).  A layer's whole kernel is
assembled in two differentiable steps: one matrix product of every
coefficient grid with the t resample matrices placed side by side (cached
per p and group), then one gather by a cached index that puts filter slot
(b - a) mod g_in, rotated by A_a, at block (a, b).

Synthesized taps (and the coefficients themselves) outside the disk of
radius (p+1)/2 cells are zeroed so that rotated filters never lose mass off
the corner of the grid; for p in {3, 5} this mask is all ones.

One size-preserving (zero-padded) layer is built on top: `group_conv_t`
maps ([b,] h, w, g_in, n) group features to ([b,] h, w, t, n_out).  With
g_in = 1 it is the lifting convolution (an image is a feature map with one
slot) by every rotated copy of one filter; with g_in = t it is the group
convolution, pairing spatial rotation with a cyclic shift of the filter's
own group index, and with p = 1 the equivariant pointwise (1x1) layer.
"""

from __future__ import annotations

import functools

import numpy as np

from . import diff
from .diff import Tensor
from .errors import GroupError, MatrixError, ShapeError
from .groups import RotationGroup


def phi_bic(y):
    """Piecewise cubic interpolation kernel (support |y| <= 2)."""
    y = np.abs(np.asarray(y, dtype=np.float64))
    out = np.where(
        y <= 1.0,
        (1.5 * y - 2.5) * y * y + 1.0,
        np.where(y <= 2.0, ((-0.5 * y + 2.5) * y - 4.0) * y + 2.0, 0.0),
    )
    return float(out) if out.ndim == 0 else out


def _grid_nodes(p: int) -> np.ndarray:
    """(p*p, 2) coordinates of the filter grid nodes, row-major.

    Row r, column c sits at (x1, x2) = (c - (p-1)/2, (p-1)/2 - r), matching
    the image coordinate orientation (x1 right, x2 up).
    """
    half = (p - 1) / 2.0
    r, c = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    return np.stack([c.ravel() - half, half - r.ravel()], axis=-1)


def coeff_disk_mask(p: int) -> np.ndarray:
    """Boolean (p, p) mask of grid nodes within radius (p+1)/2 cells."""
    nodes = _grid_nodes(p)
    return (np.hypot(nodes[:, 0], nodes[:, 1]) <= (p + 1) / 2.0).reshape(p, p)


def _design_matrix(p: int, points: np.ndarray) -> np.ndarray:
    """The p*p separable bicubic basis functions at `points` (N, 2) -> (N, p*p)."""
    nodes = _grid_nodes(p)
    d1 = points[:, None, 0] - nodes[None, :, 0]
    d2 = points[:, None, 1] - nodes[None, :, 1]
    return phi_bic(d1) * phi_bic(d2)


def _check_orthogonal(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (2, 2) or np.max(np.abs(A.T @ A - np.eye(2))) > 1e-9:
        raise MatrixError(f"rotation matrix is not orthogonal: {A!r}")
    return A


def resample_matrix(p: int, A: np.ndarray) -> np.ndarray:
    """(p^2, p^2) map from basis coefficients to the kernel rotated by A.

    Row u of the matrix evaluates the basis at A^{-1} u; rows and columns of
    out-of-disk nodes are zeroed.  At the identity the matrix is the disk
    mask itself (the interpolation property).
    """
    A = _check_orthogonal(A)
    nodes = _grid_nodes(p)
    src = nodes @ A  # row-vector form of A^{-1} u for orthogonal A
    M = _design_matrix(p, src)
    mask = coeff_disk_mask(p).ravel()
    M[~mask, :] = 0.0
    M[:, ~mask] = 0.0
    return M


@functools.lru_cache(maxsize=None)
def _side_by_side(p: int, matrices: bytes) -> np.ndarray:
    """(p^2, k p^2): the transposed resample matrices of k rotations, given
    as the bytes of a (k, 2, 2) array, side by side."""
    mats = np.frombuffer(matrices).reshape(-1, 2, 2)
    return np.concatenate([resample_matrix(p, A).T for A in mats], axis=1)


@functools.lru_cache(maxsize=None)
def _block_index(k: int, c_out: int, g_in: int, c_in: int) -> np.ndarray:
    """Kernel row (a, o, b, i) is row (o, (b - a) mod g_in, i, a) of the
    resampled stack: filter slot (b - a) mod g_in rotated by matrix a."""
    a, o, b, i = np.ix_(range(k), range(c_out), range(g_in), range(c_in))
    return (((o * g_in + (b - a) % g_in) * c_in + i) * k + a).ravel()


def _rotated_kernels(coeffs: Tensor, matrices: np.ndarray) -> Tensor:
    """Kernels (k c_out, g_in c_in, p, p) of k (2, 2) rotation matrices.

    Block (a, b) holds filter slot (b - a) mod g_in rotated by matrices[a]:
    one product resamples every coefficient grid by all k matrices, and one
    gather puts each resampled grid at its block.
    """
    if coeffs.ndim != 5 or coeffs.shape[3] != coeffs.shape[4] or coeffs.shape[3] % 2 == 0:
        raise ShapeError(f"filter coefficients must be [c_out, g_in, c_in, p, p] with p odd, "
                         f"got {coeffs.shape}")
    c_out, g_in, c_in, p, _ = coeffs.shape
    k, rows = len(matrices), c_out * g_in * c_in
    flat = diff.reshape(coeffs, (rows, p * p))
    rotated = diff.matmul(flat, diff.constant(_side_by_side(p, matrices.tobytes())))
    grids = diff.reshape(rotated, (rows * k, p * p))
    kern = diff.gather(grids, _block_index(k, c_out, g_in, c_in))
    return diff.reshape(kern, (k * c_out, g_in * c_in, p, p))


def synthesize_kernel(coeffs: Tensor, A: np.ndarray) -> Tensor:
    """Discrete kernel of the filter `coeffs` rotated by A, of the same shape."""
    return diff.reshape(_rotated_kernels(coeffs, _check_orthogonal(A)[None]), coeffs.shape)


# ---------------------------------------------------------------------------
# convolution layers (features are ([b,] h, w, t, n) arrays)
# ---------------------------------------------------------------------------

def lifting_kernel(coeffs: Tensor, group: RotationGroup) -> Tensor:
    """Stacked rotated kernels (t*c_out, c_in, p, p); slot k is rotation A_k."""
    if coeffs.shape[1:2] != (1,):
        raise ShapeError(f"lifting filter must have g_in=1, got shape {coeffs.shape}")
    return _rotated_kernels(coeffs, group.matrices)


def group_kernel(coeffs: Tensor, group: RotationGroup) -> Tensor:
    """Assembled group-convolution kernel (t*c_out, t*c_in, p, p).

    The block for output slot a and input slot b holds the filter at group
    index (b - a) mod t spatially rotated by A_a.
    """
    if coeffs.shape[1:2] != (group.t,):
        raise GroupError(f"group filter of shape {coeffs.shape} does not have g_in = group "
                         f"order {group.t}")
    return _rotated_kernels(coeffs, group.matrices)


def group_conv_t(x: Tensor, coeffs: Tensor, group: RotationGroup,
                 bias: Tensor | None = None) -> Tensor:
    """Feature tensor ([b,] h, w, g_in, n_in) -> ([b,] h, w, t, n_out).

    Output slot a sums, over input slots b, the convolution of slot b with
    the filter at group index (b - a) mod g_in spatially rotated by A_a, of
    the coefficient grids `coeffs` [c_out, g_in, c_in, p, p].  A filter with
    g_in = 1 is a lifting filter (an image is a feature map with one slot);
    otherwise g_in is the group order t.  An optional per-channel `bias` is
    shared by all t output slots, which keeps the layer equivariant.
    """
    lifting = coeffs.shape[1:2] == (1,)
    kernel = lifting_kernel(coeffs, group) if lifting else group_kernel(coeffs, group)
    _, g_in, c_in = coeffs.shape[:3]
    if x.ndim not in (4, 5) or x.shape[-2] != g_in:
        raise GroupError(f"feature tensor {x.shape} does not match filter g_in {g_in}")
    if x.shape[-1] != c_in:
        raise ShapeError(f"group_conv_t: feature channels {x.shape[-1]} vs filter c_in {c_in}")
    return slot_conv(x, kernel, group.t, bias)


def slot_conv(x: Tensor, kernel: Tensor, slots: int, bias: Tensor | None = None) -> Tensor:
    """Feature tensor ([b,] h, w, g, n) by an assembled (slots c_out, g n, p, p)
    kernel -> ([b,] h, w, slots, c_out), plus an optional per-channel `bias`
    (c_out,) shared by the slots."""
    y = diff.conv2d(diff.reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],)), kernel)
    y = diff.reshape(y, y.shape[:-1] + (slots, kernel.shape[0] // slots))
    if bias is not None and diff.recording():
        y = diff.add(y, diff.reshape(bias, (1, 1, 1, bias.shape[0])))
    elif bias is not None:
        y.data += bias.data  # conv2d's fresh output: no second full array
    return y
