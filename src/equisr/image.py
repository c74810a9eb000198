"""Raster images on the cell-centered domain [-1, 1]^2.

Conventions used throughout the package:

* pixel (i, j) of an h x w image sits at coordinate
  (x1, x2) = (-1 + (j + 0.5) * 2/w,  1 - (i + 0.5) * 2/h),
  i.e. x1 grows rightward with the column index and x2 grows upward
  (opposite to the row index);
* the mesh size is delta = 2/h (rows); square images are required wherever
  rotations are measured, in which case row and column spacing coincide.

This cell-centered layout is symmetric under any rotation about the image
center, which is what makes quarter-turn rotations exact index permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class Image:
    """h x w x c raster of 64-bit floats on [-1, 1]^2."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ShapeError(f"image data must be h x w x c, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("image data contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]

    @property
    def c(self) -> int:
        return self.data.shape[2]


def pixel_coords(h: int, w: int | None = None) -> np.ndarray:
    """Cell-center coordinates, shape (h, w, 2) holding (x1, x2) per pixel."""
    if w is None:
        w = h
    x1 = -1.0 + (np.arange(w) + 0.5) * (2.0 / w)
    x2 = 1.0 - (np.arange(h) + 0.5) * (2.0 / h)
    out = np.empty((h, w, 2))
    out[:, :, 0] = x1[None, :]
    out[:, :, 1] = x2[:, None]
    return out


def cell_position(x: np.ndarray, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) position of coordinates x (..., 2) on an h x w raster, in
    cells: pixel (i, j)'s center is at (i, j)."""
    x = np.asarray(x, dtype=np.float64)
    return (1.0 - x[..., 1]) * (h / 2.0) - 0.5, (x[..., 0] + 1.0) * (w / 2.0) - 0.5


def disk_mask(h: int, w: int | None = None, margin_cells: float = 0.0,
              delta: float | None = None) -> np.ndarray:
    """Boolean mask of pixels inside the inscribed disk.

    The disk radius is 1 - margin_cells * delta; `delta` defaults to the
    image's own mesh size but can be set to a coarser grid's mesh when the
    mask is evaluated on an upsampled raster.
    """
    if w is None:
        w = h
    if delta is None:
        delta = 2.0 / h
    xy = pixel_coords(h, w)
    r = np.hypot(xy[..., 0], xy[..., 1])
    return r <= 1.0 - margin_cells * delta


def bilinear_sample(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sample an (h, w, c) array at coordinates x (..., 2), zero outside.

    Bilinear interpolation between cell centers; samples whose four-point
    stencil leaves the raster use 0 for the missing corners.
    """
    h, w = data.shape[:2]
    fi, fj = cell_position(x, h, w)
    i0 = np.floor(fi).astype(np.int64)
    j0 = np.floor(fj).astype(np.int64)
    di = fi - i0
    dj = fj - j0

    out = np.zeros(fi.shape + (data.shape[2],))
    for oi, wi in ((i0, 1.0 - di), (i0 + 1, di)):
        for oj, wj in ((j0, 1.0 - dj), (j0 + 1, dj)):
            valid = (oi >= 0) & (oi < h) & (oj >= 0) & (oj < w)
            ii = np.where(valid, oi, 0)
            jj = np.where(valid, oj, 0)
            wgt = np.where(valid, wi * wj, 0.0)
            out += wgt[..., None] * data[ii, jj]
    return out
