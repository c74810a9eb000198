"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Desk-scale reference model: 4 residual blocks, channel budget n*t = 32,
filter size 5, LIIF/OPE/LTE heads at their default widths.
"""

import dataclasses
import time

import numpy as np
import pytest

from equisr import diff, inr
from equisr.checks import run_all
from equisr.cli import main as cli_main
from equisr.data import DatasetSpec, bicubic_resize, gen_synthetic, read_image, write_image
from equisr.groups import make_group, rotate_image
from equisr.image import Image, disk_mask
from equisr.inr import (
    ModelConfig,
    _cyclic_layer,
    _input_stage,
    _output_head,
    build_model,
    super_resolve,
)
from equisr.metrics import nmae, nmse, psnr, sweep
from equisr.training import load_checkpoint, save_checkpoint, train

BUDGET = 32  # total channels n * t for every model under comparison


def _report(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {desc}"
    if detail:
        line += f" [{detail}]"
    print("\n" + line)
    assert ok, line


def _desk_cfg(variant: str, t: int = 4) -> ModelConfig:
    assert BUDGET % t == 0
    return ModelConfig(variant=variant, t=t, n=BUDGET // t, blocks=4, p=5)


def _shapes_image(seed: int, h: int) -> Image:
    img = gen_synthetic(DatasetSpec(kind="shapes", count=1, size=64, seed=seed), 0)
    return bicubic_resize(img, h, h)


def _field_image(seed: int, h: int) -> Image:
    # band limited to 3 cycles, well below the Nyquist of the coarsest grid
    spec = DatasetSpec(kind="smooth-field", count=1, size=128, seed=seed,
                       cutoff=0.046875)
    return bicubic_resize(gen_synthetic(spec, 0), h, h)


def _eps0(model):
    """The model with its config's stabilizer eps set to 0."""
    return dataclasses.replace(model, cfg=dataclasses.replace(model.cfg, eps=0.0))


def _quarter_turn_nmse(model, img: Image, scale: float = 2.0) -> float:
    """Worst NMSE over the three non-trivial quarter turns, eps = 0."""
    model = _eps0(model)
    y0 = super_resolve(model, img, scale)
    worst = 0.0
    for k in (1, 2, 3):
        angle = k * np.pi / 2
        y1 = super_resolve(model, rotate_image(img, angle), scale)
        worst = max(worst, nmse(y1, rotate_image(y0, angle)))
    return worst


def _masked_equiv_nmse(model, img: Image, angle: float, scale: float = 2.0) -> float:
    # 5-LR-cell margin keeps the rotation fill's influence zone out of the metric
    model = _eps0(model)
    y0 = super_resolve(model, img, scale)
    y1 = super_resolve(model, rotate_image(img, angle), scale)
    ref = rotate_image(y0, angle)
    mask = disk_mask(ref.h, margin_cells=5.0, delta=2.0 / img.h)
    return nmse(y1, ref, mask)


def test_criterion_1_exact_p4_equivariance():
    t0 = time.time()
    worst = {}
    for variant in ("liif", "ope", "lte"):
        cfg = _desk_cfg(variant)
        errs = []
        for seed in range(10):
            model = build_model(cfg, seed=seed)
            img = _shapes_image(seed, 32)
            errs.append(_quarter_turn_nmse(model, img))
        worst[variant] = max(errs)
    elapsed = time.time() - t0
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 120.0
    detail = ", ".join(f"{k} max={v:.2e}" for k, v in worst.items())
    _report(1, ok, "exact p4 equivariance, 3 variants x 10 seeds, eps=0",
            f"{detail}; {elapsed:.0f}s")


def test_criterion_2_plain_vs_equivariant_contrast():
    ratios, plain_means = {}, {}
    for variant in ("liif", "ope", "lte"):
        eq_cfg = _desk_cfg(variant, t=4)
        plain_cfg = ModelConfig(variant=variant, t=1, n=BUDGET, blocks=4, p=5)
        plain_errs, eq_errs = [], []
        for seed in range(5):
            img = _shapes_image(100 + seed, 32)
            plain_errs.append(_quarter_turn_nmse(build_model(plain_cfg, seed=seed), img))
            eq_errs.append(_quarter_turn_nmse(build_model(eq_cfg, seed=seed), img))
        plain_means[variant] = float(np.mean(plain_errs))
        ratios[variant] = plain_means[variant] / max(float(np.mean(eq_errs)), 1e-300)
    ok = all(m >= 0.3 for m in plain_means.values()) and \
        all(r >= 1e4 for r in ratios.values())
    detail = ", ".join(f"{k}: plain={plain_means[k]:.2f} ratio={ratios[k]:.1e}"
                       for k in plain_means)
    _report(2, ok, "plain t=1 NMSE >= 0.3 and plain/equivariant ratio >= 1e4", detail)


def test_criterion_3_p8_error_magnitude_and_resolution_trend():
    cfg = _desk_cfg("liif", t=8)
    medians = []
    for h in (16, 32, 64):
        errs = [
            _masked_equiv_nmse(build_model(cfg, seed=seed), _field_image(seed, h),
                               np.pi / 4)
            for seed in range(20)
        ]
        medians.append(float(np.median(errs)))
    ok = medians[1] <= 0.15 and medians[0] > medians[1] > medians[2]
    _report(3, ok, "p8 45-degree masked NMSE: <= 0.15 at h=32, strictly "
                   "decreasing over h in {16,32,64}",
            "medians " + ", ".join(f"{m:.4f}" for m in medians))


def test_criterion_4_orientation_count_trend():
    medians = []
    for t in (4, 8, 16):
        cfg = _desk_cfg("liif", t=t)
        errs = [
            _masked_equiv_nmse(build_model(cfg, seed=seed), _field_image(seed, 32),
                               np.pi / 8)
            for seed in range(20)
        ]
        medians.append(float(np.median(errs)))
    ok = medians[0] >= medians[1] >= medians[2]
    _report(4, ok, "22.5-degree masked NMSE non-increasing over t in {4,8,16}",
            "medians " + ", ".join(f"{m:.4f}" for m in medians))


def test_criterion_5_layer_exactness():
    # the stages SR and training run, on one query row of codes in the
    # served (t, c) layout
    worst = 0.0
    for variant in ("liif", "ope", "lte"):
        for t in (2, 4, 8):
            g = make_group(t)
            cfg = ModelConfig(variant=variant, t=t, n=4, blocks=1, p=3, width=8,
                              psi_widths=(8,), K=3, k_max=1)
            for seed in range(3):
                model = build_model(cfg)
                model.params.update(inr._draw(cfg, "inr.", np.random.default_rng(seed)))
                rng = np.random.default_rng(1000 + seed)
                if variant == "lte":
                    latent = (rng.standard_normal((t, 2 * cfg.K)),
                              rng.standard_normal((t, 2 * cfg.K)))
                else:
                    n_lat = cfg.n if variant == "liif" else 3 * (2 * cfg.k_max + 1) ** 2
                    latent = (rng.standard_normal((t, n_lat)),)
                x = rng.uniform(-1, 1, size=2)

                def shift(lat, k):
                    perm = [(j - k) % t for j in range(t)]
                    return tuple(a[perm] for a in lat)

                def input_h(lat, x):
                    # liif's H (t, m); ope's and lte's H is constant in B, one row
                    rows = tuple(diff.constant(a[None]) for a in lat)
                    return _input_stage(model, rows, x[None]).data[0]

                base_h = input_h(latent, x)
                if base_h.ndim == 1:
                    base_h = np.tile(base_h, (t, 1))
                w_mid = diff.constant(rng.standard_normal((t, 8, base_h.shape[1])))
                w_out = diff.constant(rng.standard_normal((3, w_mid.shape[1])))

                def mid(h):
                    return _cyclic_layer(diff.constant(h[None]), w_mid).data[0]

                def out(h):
                    z = diff.reduce_sum(diff.constant(h[None]), axes=1)
                    return _output_head({"inr.W_out1": w_out}, z).data[0]

                base_mid = mid(base_h)
                base_out = out(base_mid)
                for k in range(t):
                    perm = [(b - k) % t for b in range(t)]
                    # line 1: input layer intertwines shift with rotation
                    lhs = input_h(shift(latent, k), x)
                    rot = input_h(latent, g.matrices[k % g.t].T @ x)
                    rhs = rot[perm] if rot.ndim == 2 else rot
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
                    # line 2: intermediate layer commutes with the slot shift
                    lhs2 = mid(base_h[perm])
                    worst = max(worst, float(np.max(np.abs(lhs2 - base_mid[perm]))))
                    # line 3: output layer is invariant to the slot shift
                    lhs3 = out(base_mid[perm])
                    worst = max(worst, float(np.max(np.abs(lhs3 - base_out))))
    _report(5, worst <= 1e-12,
            "Theorem-1 layer identities for all variants, t in {2,4,8}",
            f"worst deviation {worst:.2e}")


def test_criterion_6_gradient_suite():
    results = run_all()
    worst = max(r.max_rel_err for r in results)
    ok = all(r.ok for r in results)
    code = cli_main(["gradcheck"])
    _report(6, ok and code == 0,
            "finite-difference checks for every primitive and layer (rel err <= 1e-4)",
            f"{len(results)} checks, worst {worst:.2e}, cli exit {code}")


def test_criterion_7_filter_parametrization_exactness():
    from equisr.filters import coeff_disk_mask, synthesize_kernel
    g = make_group(4)
    worst_id, worst_rot = 0.0, 0.0
    for p in (3, 5, 7):
        for seed in range(3):
            # a lifting filter's He-uniform coefficients, masked to the filter disk
            bound = np.sqrt(6.0 / (2 * p * p))
            grids = np.random.default_rng(seed).uniform(-bound, bound, size=(2, 1, 2, p, p))
            pf = diff.parameter(grids * coeff_disk_mask(p))
            k_id = synthesize_kernel(pf, np.eye(2)).data
            worst_id = max(worst_id, float(np.max(np.abs(k_id - pf.data))))
            k_rot = synthesize_kernel(pf, g.matrices[1]).data
            expected = np.rot90(pf.data, -1, axes=(3, 4))
            worst_rot = max(worst_rot, float(np.max(np.abs(k_rot - expected))))
    ok = worst_id <= 1e-12 and worst_rot <= 1e-12
    _report(7, ok, "kernel synthesis: identity == coeffs, 90 degrees == rot90, "
                   "p in {3,5,7}", f"id {worst_id:.2e}, rot {worst_rot:.2e}")


def test_criterion_8_training_smoke_preserves_equivariance(tmp_path):
    cfg = _desk_cfg("liif")
    data = DatasetSpec(kind="stripes", count=8, size=96, seed=0,
                       scale_lo=2.0, scale_hi=4.0)
    ratios, equiv_errs = [], []
    for seed in range(3):
        result = train(cfg, data, steps=200, lr=1e-4, decay_steps=500,
                       batch=4, patch=24, seed=seed)
        losses = [row[1] for row in result.loss_rows]
        smoothed_initial = float(np.mean(losses[:20]))
        smoothed_final = float(np.mean(losses[-20:]))
        ratios.append(smoothed_final / smoothed_initial)
        # checkpoint round trip, then criterion-1 exactness on the trained net
        prefix = str(tmp_path / f"ckpt{seed}")
        save_checkpoint(prefix, result.model)
        reloaded = load_checkpoint(prefix + ".json")
        for name, p in result.model.named_parameters().items():
            assert np.array_equal(p.data, reloaded.named_parameters()[name].data)
        equiv_errs.append(_quarter_turn_nmse(reloaded, _shapes_image(seed, 32)))
    ok = all(r <= 0.7 for r in ratios) and all(e <= 1e-6 for e in equiv_errs)
    _report(8, ok, "200-step training smoke: smoothed loss <= 0.7x initial and "
                   "trained checkpoint stays p4-exact",
            f"ratios {[f'{r:.2f}' for r in ratios]}, "
            f"equiv max {max(equiv_errs):.2e}")


def test_criterion_9_metric_and_format_unit_suite(tmp_path):
    checks = []
    # NMSE / NMAE ratio formulas
    x0 = Image(np.array([[3.0, 4.0]])[:, :, None])
    xr = Image(np.zeros((1, 2, 1)))
    checks.append(abs(nmse(xr, x0) - 1.0) <= 1e-15)
    checks.append(abs(nmae(xr, x0) - 1.0) <= 1e-15)
    img = Image(np.random.default_rng(0).random((6, 6, 3)))
    checks.append(nmse(img, img) == 0.0 and nmae(img, img) == 0.0)
    # PSNR definition
    a, b = Image(np.zeros((4, 4, 1))), Image(np.full((4, 4, 1), 0.1))
    checks.append(abs(psnr(a, b) - 20.0) <= 1e-12)
    checks.append(psnr(a, a) == float("inf"))
    # PPM / PGM bit-exact round trip
    rng = np.random.default_rng(1)
    lattice = Image(rng.integers(0, 256, size=(8, 5, 3)).astype(np.float64) / 255.0)
    path = str(tmp_path / "rt.ppm")
    write_image(path, lattice)
    checks.append(np.array_equal(read_image(path).data, lattice.data))
    # checkpoint round trip
    model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                    width=8, psi_widths=(8,)), seed=2)
    prefix = str(tmp_path / "m")
    save_checkpoint(prefix, model)
    back = load_checkpoint(prefix + ".json")
    checks.append(all(np.array_equal(p.data, back.named_parameters()[n].data)
                      for n, p in model.named_parameters().items()))
    # deterministic CSV sweeps
    cfgs = [("eq", ModelConfig(variant="liif", t=4, n=2, blocks=1, p=3,
                               width=8, psi_widths=(8,), eps=0.0))]
    kw = dict(angles=[np.pi / 2], scales=[2.0], resolutions=[12], seeds=[0, 1],
              data=DatasetSpec(kind="shapes", count=1, size=48))
    checks.append(sweep(cfgs, **kw) == sweep(cfgs, **kw))
    _report(9, all(checks), "metric formulas, netpbm and checkpoint round trips, "
                            "deterministic sweeps", f"{sum(checks)}/{len(checks)} exact")
