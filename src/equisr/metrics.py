"""Equivariance-error metrics, per-case evaluation, and grid sweeps.

The equivariance error of a model Phi on image I under rotation angle a
compares x_r = Phi(rotate(I, a)) against x_0 = rotate(Phi(I), a):

    NMSE = ||x_r - x_0||_2 / ||x_0||_2,   NMAE = ||x_r - x_0||_1 / ||x_0||_1.

For angles that are not quarter turns the comparison is masked to an
inscribed disk by default (margin of 3 LR cells), because the zero fill
outside a rotated frame is not itself equivariant.

`sweep_cells` evaluates a grid in one pass: per (model, image, scale) one
batched SR computes Phi(I) and Phi of every rotated input, and each cell
keeps its per-seed entries (error maps included) for callers that need more
than the CSV `sweep` formats from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import DatasetSpec, bicubic_resize, csv_text, gen_synthetic
from .errors import ConfigError, MetricError, ShapeError
from .groups import _right_angle_quarter_turns, rotate_image
from .image import Image, disk_mask
from .inr import (INRModel, ModelConfig, batch_limit, build_model, super_resolve,
                  super_resolve_batch)

MASK_MARGIN_LR_CELLS = 3.0


def _norm_ratio(x_r: Image, x_0: Image, mask: np.ndarray | None, ord_: int) -> float:
    if x_r.data.shape != x_0.data.shape:
        raise ShapeError(f"metric operands differ: {x_r.data.shape} vs {x_0.data.shape}")
    d = x_r.data - x_0.data
    ref = x_0.data
    if mask is not None:
        if mask.shape != x_0.data.shape[:2]:
            raise ShapeError(f"mask shape {mask.shape} does not match image {x_0.data.shape[:2]}")
        d, ref = d[mask], ref[mask]
    if ord_ == 2:
        denom = np.linalg.norm(ref.ravel())
        num = np.linalg.norm(d.ravel())
    else:
        denom = np.abs(ref).sum()
        num = np.abs(d).sum()
    if denom == 0.0:
        raise MetricError("reference image has zero norm; metric undefined")
    return float(num / denom)


def nmse(x_r: Image, x_0: Image, mask: np.ndarray | None = None) -> float:
    """L2 norm ratio ||x_r - x_0||_2 / ||x_0||_2 (optionally masked)."""
    return _norm_ratio(x_r, x_0, mask, 2)


def nmae(x_r: Image, x_0: Image, mask: np.ndarray | None = None) -> float:
    """L1 norm ratio ||x_r - x_0||_1 / ||x_0||_1 (optionally masked)."""
    return _norm_ratio(x_r, x_0, mask, 1)


def psnr(a: Image, b: Image) -> float:
    """10 log10(1 / MSE) over all channels; identical images give inf."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"psnr operands differ: {a.data.shape} vs {b.data.shape}")
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


@dataclass(frozen=True)
class EquivEntry:
    angle: float
    scale: float
    nmse: float
    nmae: float
    err_map: Image  # per-pixel channel-max absolute difference


@dataclass(frozen=True)
class EquivReport:
    nmse_mean: float
    nmse_std: float
    nmae_mean: float
    nmae_std: float


def aggregate(entries) -> EquivReport:
    """Mean and sample standard deviation over a list of entries."""
    entries = tuple(entries)
    ns = np.array([e.nmse for e in entries])
    na = np.array([e.nmae for e in entries])
    std = (lambda v: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0)
    return EquivReport(float(ns.mean()), std(ns), float(na.mean()), std(na))


def _auto_mask(angle: float, hr_h: int, hr_w: int, lr_h: int) -> np.ndarray | None:
    if _right_angle_quarter_turns(angle) is not None:
        return None
    return disk_mask(hr_h, hr_w, margin_cells=MASK_MARGIN_LR_CELLS, delta=2.0 / lr_h)


def _check_mask(mask) -> None:
    if not (mask is None or (isinstance(mask, str) and mask == "auto")):
        raise ConfigError(f"mask must be \"auto\" or None, got {mask!r}")


def _with_eps(model: INRModel, eps: float | None) -> INRModel:
    """The model, with its config's eps replaced (and checked, else ConfigError)
    unless `eps` is None."""
    return model if eps is None else replace(model, cfg=replace(model.cfg, eps=eps))


def _compare(y1: Image, y0: Image, angle: float, scale: float, lr_h: int,
             mask) -> EquivEntry:
    """The entry of y1 = Phi(rotate(I, angle)) against y0 = Phi(I), for an
    input I of lr_h rows."""
    ref = rotate_image(y0, angle)
    if mask is not None:
        mask = _auto_mask(angle, ref.h, ref.w, lr_h)
    err_map = Image(np.max(np.abs(y1.data - ref.data), axis=2, keepdims=True))
    return EquivEntry(angle, scale, nmse(y1, ref, mask), nmae(y1, ref, mask), err_map)


def equivariance_error(model: INRModel, img: Image, angle: float, scale: float,
                       eps: float | None = None, mask="auto") -> EquivEntry:
    """One (image, angle, scale) equivariance measurement.

    An `eps` replaces the model config's stabilizer.  `mask` is "auto"
    (inscribed disk for non-right angles, none otherwise) or None; a bad
    `eps` or `mask` raises ConfigError before any SR.
    """
    _check_mask(mask)
    model = _with_eps(model, eps)
    y0 = super_resolve(model, img, scale)
    y1 = super_resolve(model, rotate_image(img, angle), scale)
    return _compare(y1, y0, angle, scale, img.h, mask)


# ---------------------------------------------------------------------------
# grid sweeps
# ---------------------------------------------------------------------------

SWEEP_HEADER = ("model,variant,t,angle_rad,scale,resolution,seed_count,"
                "nmse_mean,nmse_std,nmae_mean,nmae_std")


def _budget_config(cfg: ModelConfig, t: int) -> ModelConfig:
    """Override the group order, preserving the n*t channel budget."""
    budget = cfg.n * cfg.t
    if budget % t != 0:
        raise ConfigError(f"channel budget {budget} not divisible by t={t}")
    return ModelConfig(**{**cfg.__dict__, "t": t, "n": budget // t})


def sweep_image(data: DatasetSpec, resolution: int, seed: int) -> Image:
    """Corpus image for one grid point: generate at spec size, resize."""
    spec = DatasetSpec(**{**data.__dict__, "seed": seed})
    img = gen_synthetic(spec, 0)
    return bicubic_resize(img, resolution, resolution)


def sweep_cells(model_cfgs, angles, scales, resolutions, t_values=None, seeds=(0,),
                data: DatasetSpec | None = None, mask="auto", eps: float | None = None,
                model: INRModel | None = None):
    """Evaluate an equivariance-error grid in one pass, yielding its cells.

    `model_cfgs` is a list of (name, ModelConfig); `t_values` optionally
    re-runs each config at several group orders with the channel budget
    held fixed.  When `model` is given (a trained checkpoint), it is used
    as-is for every grid point and seeds only vary the test image; it has
    one group order, so `t_values` must then be None (else ConfigError).
    An `eps` replaces every model config's stabilizer, as in
    equivariance_error.

    Cells are (name, run_cfg, angle, scale, resolution, entries) in that
    row order, entries in seed order; grids must be non-empty.  Each loop
    computes only what depends on it: the test image and its rotations once
    per (seed, resolution), then per scale one super_resolve_batch of y0's
    input and every rotated input (sweep images are square, so all share one
    shape), split into consecutive batches of at most inr.batch_limit
    images: outputs within the one-request pixel limit, latent codes within
    one chunk budget.
    """
    angles, scales = list(angles), list(scales)
    resolutions, seeds = list(resolutions), list(seeds)
    for grid_name, grid in (("angles", angles), ("scales", scales),
                            ("resolutions", resolutions), ("seeds", seeds)):
        if not grid:
            raise ConfigError(f"sweep grid {grid_name!r} is empty")
    _check_mask(mask)
    if model is not None and t_values:
        raise ConfigError(f"t_values {t_values} need a model per group order, not a given model")
    if model is not None:
        model = _with_eps(model, eps)
    if data is None:
        data = DatasetSpec(kind="shapes", count=1, size=64)
    for name, cfg in model_cfgs:
        for t in (t_values if t_values else [cfg.t]):
            run_cfg = _budget_config(cfg, t) if t != cfg.t else cfg
            entries = {}  # (angle index, scale index, resolution index) -> per-seed list
            for seed in seeds:
                m = model if model is not None else _with_eps(build_model(run_cfg, seed=seed), eps)
                for ri, res in enumerate(resolutions):
                    img = sweep_image(data, res, seed)
                    # square, so every rotation keeps the shape: one batch per scale
                    inputs = [img] + [rotate_image(img, angle) for angle in angles]
                    for si, scale_ in enumerate(scales):
                        y0, *ys = _super_resolve_all(m, inputs, scale_)
                        for ai, (angle, y1) in enumerate(zip(angles, ys)):
                            entries.setdefault((ai, si, ri), []).append(_compare(
                                y1, y0, angle, scale_, img.h, mask))
            for ai, si, ri in sorted(entries):  # row order: angle, scale, resolution
                yield (name, run_cfg, angles[ai], scales[si], resolutions[ri],
                       tuple(entries[ai, si, ri]))


def _super_resolve_all(model: INRModel, images: list[Image], scale: float) -> list[Image]:
    """super_resolve_batch of same-shaped images, in consecutive batches of
    at most inr.batch_limit images."""
    size = batch_limit(model, images[0].h, images[0].w, scale)
    return [y for a in range(0, len(images), size)
            for y in super_resolve_batch(model, images[a:a + size], scale)]


def sweep_csv(cells) -> str:
    """Deterministic CSV text of `sweep_cells` output."""
    rows = []
    for name, run_cfg, angle, scale_, res, entries in cells:
        rep = aggregate(entries)
        rows.append((name, run_cfg.variant, run_cfg.t, f"{angle:.12g}", f"{scale_:.12g}", res,
                     len(entries), f"{rep.nmse_mean:.10e}", f"{rep.nmse_std:.10e}",
                     f"{rep.nmae_mean:.10e}", f"{rep.nmae_std:.10e}"))
    return csv_text(SWEEP_HEADER, rows)


def sweep(model_cfgs, angles, scales, resolutions, t_values=None, seeds=(0,),
          data: DatasetSpec | None = None, mask="auto", eps: float | None = None,
          model: INRModel | None = None) -> str:
    """`sweep_cells` as a CSV: one row per cell, mean +- sample std over seeds."""
    return sweep_csv(sweep_cells(model_cfgs, angles, scales, resolutions, t_values,
                                 seeds, data, mask, eps, model))
