"""Finite-difference gradient suite covering every primitive and layer.

Each check builds a small scalar-valued function of some Tensors -- new
ones, or parameters a model holds -- writes each of three seeds' standard
normal draws into them, and runs `diff.check_gradients`, which perturbs
them in place at its one fixed step over every coordinate.  It reports the
worst relative error against the 1e-4 tolerance.  The whole-loss cases
differentiate `training.step_loss`, the loss `train()` minimizes.  The CLI
`gradcheck` command exits nonzero if any check fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diff
from .encoder import encode_t
from .filters import group_conv_t, synthesize_kernel
from .groups import make_group
from .inr import ModelConfig, _eval_local_batch, build_model
from .training import step_loss

GRAD_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= self.tol


def _tensor(*shape) -> diff.Tensor:
    return diff.Tensor(np.zeros(shape))


def _check(name, fn, inputs, scale=1.0):
    """Worst error over seeds 0, 1, 2; each writes standard normal draws
    times `scale` into the input Tensors."""
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        for t in inputs:
            t.data[...] = rng.standard_normal(t.shape) * scale
        worst = max(worst, diff.check_gradients(fn, inputs))
    return CheckResult(name, worst, GRAD_TOL)


def _primitive_checks() -> list[CheckResult]:
    n = _tensor
    idx = np.array([2, 0, 1, 0])
    wave_weights = diff.constant(np.linspace(-1.5, 2.0, 12).reshape(2, 6))  # cos, sin halves
    cases = [
        ("add", lambda a, b: diff.reduce_sum(diff.mul(diff.add(a, b), diff.add(a, b))),
         [n(3, 4), n(3, 4)]),
        ("add.broadcast", lambda a, b: diff.reduce_sum(diff.sin(diff.add(a, b))),
         [n(3, 4), n(1, 4)]),
        ("sub", lambda a, b: diff.reduce_sum(diff.mul(diff.sub(a, b), diff.sub(a, b))),
         [n(3, 4), n(4,)]),
        ("mul", lambda a, b: diff.reduce_sum(diff.mul(a, b)), [n(5,), n(5,)]),
        ("matmul", lambda a, b: diff.reduce_sum(diff.sin(diff.matmul(a, b))),
         [n(3, 4), n(4, 2)]),
        ("conv2d", lambda x, k: diff.reduce_sum(diff.sin(diff.conv2d(x, k))),
         [n(5, 5, 2), n(2, 2, 3, 3)]),
        ("relu", lambda x: diff.reduce_sum(diff.mul(diff.relu(x), diff.relu(x))), [n(4, 4)]),
        ("sin", lambda x: diff.reduce_sum(diff.sin(x)), [n(7,)]),
        ("cos", lambda x: diff.reduce_sum(diff.cos(x)), [n(7,)]),
        ("waves", lambda x: diff.reduce_sum(diff.mul(diff.waves(x), wave_weights)), [n(2, 3)]),
        ("concat", lambda a, b: diff.reduce_sum(diff.sin(diff.concat([a, b], axis=1))),
         [n(2, 3), n(2, 4)]),
        ("sum.axes", lambda x: diff.reduce_sum(diff.sin(diff.reduce_sum(x, axes=1))),
         [n(3, 4, 2)]),
        ("scale", lambda x: diff.reduce_sum(diff.scale(diff.sin(x), 2.5)), [n(6,)]),
        ("gather", lambda x: diff.reduce_sum(diff.sin(diff.gather(x, idx))), [n(3, 4)]),
        ("reshape", lambda x: diff.reduce_sum(diff.sin(diff.reshape(x, (6, 2)))), [n(3, 4)]),
        ("transpose", lambda x: diff.reduce_sum(diff.sin(diff.transpose(x, (1, 0, 2)))),
         [n(3, 4, 2)]),
        ("transpose.cycle", lambda x: diff.reduce_sum(diff.mul(
            diff.transpose(x, (2, 0, 1)), diff.constant(np.arange(24.0).reshape(2, 3, 4)))),
         [n(3, 4, 2)]),
        ("einsum.cyclic",
         lambda u, w: diff.reduce_sum(diff.sin(diff.einsum("qai,abmi->qbm", u, w))),
         [n(3, 2, 4), n(2, 2, 3, 4)]),
        ("einsum.batch",
         lambda f, p: diff.reduce_sum(diff.sin(diff.einsum("qtck,qtk->qc", f, p))),
         [n(3, 2, 2, 4), n(3, 2, 4)]),
        ("einsum.three",
         lambda a, b, c: diff.reduce_sum(diff.sin(diff.einsum("ij,jk,k->i", a, b, c))),
         [n(2, 3), n(3, 4), n(4,)]),
        ("abs", lambda x: diff.reduce_sum(diff.absolute(x)), [n(9,)]),
    ]
    return [_check(name, fn, inputs) for name, fn, inputs in cases]


def _filter_checks() -> list[CheckResult]:
    g8, g4, g2 = make_group(8), make_group(4), make_group(2)
    c45, s45 = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A45 = np.array([[c45, s45], [-s45, c45]])

    def synth(coeffs):
        return diff.reduce_sum(diff.sin(synthesize_kernel(coeffs, A45)))

    def lift(x, coeffs):
        x = diff.reshape(x, x.shape[:-1] + (1, x.shape[-1]))  # an image is a one-slot map
        return diff.reduce_sum(diff.sin(group_conv_t(x, coeffs, g4)))

    def gconv(group):
        return lambda x, coeffs: diff.reduce_sum(diff.sin(group_conv_t(x, coeffs, group)))

    return [
        _check("filters.synthesize", synth, [_tensor(2, 1, 1, 5, 5)]),
        _check("filters.lifting_conv", lift, [_tensor(6, 6, 3), _tensor(2, 1, 3, 3, 3)]),
        _check("filters.group_conv", gconv(g2), [_tensor(5, 5, 2, 2), _tensor(2, 2, 2, 3, 3)]),
        # t = 2 and t = 4 resample by masked permutations, t = 8 interpolates
        _check("filters.group_conv.t8", gconv(g8), [_tensor(4, 4, 8, 1), _tensor(2, 8, 1, 3, 3)]),
    ]


def _layer_checks() -> list[CheckResult]:
    x_loc = np.random.default_rng(99).uniform(-1, 1, size=(3, 2))
    out = []
    for variant in ("liif", "ope", "lte"):
        cfg = ModelConfig(variant=variant, t=4, n=2, blocks=1, p=3, width=6,
                          psi_widths=(6,), K=2, k_max=1, L=1 if variant == "liif" else 0)
        model = build_model(cfg, seed=0)

        if variant == "lte":
            def local(amp, freq, _m=model):
                return diff.reduce_sum(diff.sin(_eval_local_batch(_m, (amp, freq), x_loc)))

            inputs = [_tensor(3, cfg.t, 2 * cfg.K), _tensor(3, cfg.t, 2 * cfg.K)]
        else:
            n_lat = cfg.n if variant == "liif" else 3 * (2 * cfg.k_max + 1) ** 2

            def local(latq, _m=model):
                return diff.reduce_sum(diff.sin(_eval_local_batch(_m, (latq,), x_loc)))

            inputs = [_tensor(3, cfg.t, n_lat)]
        out.append(_check(f"inr.local.{variant}", local, inputs))
    return out


def _composite_checks() -> list[CheckResult]:
    rng = np.random.default_rng(5)
    lr = rng.random((1, 6, 6, 3))
    coords = rng.uniform(-0.9, 0.9, size=(8, 2))
    targets = rng.random((8, 3))
    scale = 0.4  # keep pre-activations away from systematic kinks

    def check(name, variant, fn, *names, t=2):
        """Check `fn` of a new model over the parameters it holds as `names`."""
        model = build_model(ModelConfig(variant=variant, t=t, n=2, blocks=1, p=3, width=4,
                                        psi_widths=(4,), k_max=1, K=2, eps=1e-7), seed=0)
        held = model.named_parameters()
        return _check(name, lambda *_: fn(model), [held[k] for k in names], scale)

    def encoder_loss(model):
        return diff.reduce_sum(diff.sin(encode_t(model, diff.constant(lr[0]))))

    def pipeline_loss(model):
        return step_loss(model, lr, coords, targets)

    return [
        check("encoder.encode", "liif", encoder_loss, "enc.head.w", "enc.block0.conv0.w"),
        check("pipeline.l1", "liif", pipeline_loss, "enc.head.w", "inr.W_in", "inr.psi0.w"),
        check("pipeline.l1.ope", "ope", pipeline_loss,
              "enc.head.w", "inr.ope_head.w", "inr.ope_head.b"),
        # ope's slot fold only flips signs at t = 2; at t = 4 it also swaps axes
        check("pipeline.l1.ope.t4", "ope", pipeline_loss,
              "enc.head.w", "inr.ope_head.w", "inr.ope_head.b", t=4),
        check("pipeline.l1.lte", "lte", pipeline_loss,
              "enc.head.w", "inr.amp_head.w", "inr.freq_head.w", "inr.W_out1"),
    ]


def run_all(module: str | None = None) -> list[CheckResult]:
    groups = {
        "diff": _primitive_checks,
        "filters": _filter_checks,
        "inr": _layer_checks,
        "encoder": _composite_checks,
    }
    if module is not None:
        if module not in groups:
            raise KeyError(f"unknown gradcheck module {module!r} (choose from {sorted(groups)})")
        return groups[module]()
    results = []
    for fn in groups.values():
        results.extend(fn())
    return results
