"""Rotation-equivariant INR layers: exactness identities and assembly."""

import contextlib
import dataclasses
import inspect
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisr import config, diff, inr, metrics, parallel
from equisr.data import DatasetSpec
from equisr.errors import ConfigError, DomainError, ShapeError
from equisr.filters import group_conv_t
from equisr.groups import make_group, rotate_image
from equisr.image import Image, cell_position, pixel_coords
from equisr.inr import (
    INRModel,
    ModelConfig,
    _cyclic_layer,
    _eval_local_batch,
    _input_stage,
    _output_head,
    build_model,
    compute_latents,
    eval_global_batch,
    lift_coordinate,
    ope_basis,
    output_size,
    parameter_count,
    super_resolve,
    super_resolve_batch,
)
from equisr.encoder import encode_t
from equisr.metrics import nmse
from equisr.training import train


def _shift(latent, k, t):
    """Cyclic slot shift matching the feature-map rotation law."""
    perm = [(j - k) % t for j in range(t)]
    return tuple(x[perm] for x in latent)


def _random_latent(rng, cfg):
    """One pixel's latent codes in the served (t, c) layout: (feat,), (coeffs,)
    or lte's (amp, freq), whose freq row holds K (x, y) pairs."""
    t = cfg.t
    if cfg.variant == "lte":
        return (rng.standard_normal((t, 2 * cfg.K)), rng.standard_normal((t, 2 * cfg.K)))
    if cfg.variant == "ope":
        return (rng.standard_normal((t, 3 * (2 * cfg.k_max + 1) ** 2)),)
    return (rng.standard_normal((t, cfg.n)),)


def _rows(latent):
    """The codes of one pixel as a Q = 1 batch of the batched stages."""
    return tuple(diff.constant(x[None]) for x in latent)


def _input_h(model, latent, x):
    """H(x, B) for every B, (t, width), from _input_stage; ope's and lte's H,
    constant in B, is one row tiled t times."""
    h = _input_stage(model, _rows(latent), x[None]).data[0]
    return h if h.ndim == 2 else np.tile(h, (model.cfg.t, 1))


def _mid(h, W):
    """The cyclic intermediate layer of one H (t, m_in) -> (t, m_out)."""
    return _cyclic_layer(diff.constant(h[None]), diff.constant(W)).data[0]


def _out(h, W_out1, psi=()):
    """The output layer of one H (t, m): the group sum, then _output_head of
    a table holding W_out1 and the psi layers (W, b)."""
    params = {"inr.W_out1": diff.constant(W_out1)}
    for i, (w, b) in enumerate(psi):
        params[f"inr.psi{i}.w"], params[f"inr.psi{i}.b"] = w, b
    z = diff.reduce_sum(diff.constant(h[None]), axes=1)
    return _output_head(params, z).data[0]


def _local(model, latent, x):
    """One pixel's local function at one normalized offset x, as SR runs it."""
    return _eval_local_batch(model, _rows(latent), x[None]).data[0]


def _inr_model(cfg, seed):
    """A model of `cfg` whose table holds the INR weights drawn from default_rng(seed)."""
    model = build_model(cfg)
    model.params.update(inr._draw(cfg, "inr.", np.random.default_rng(seed)))
    return model


def _small_cfg(variant, t, **kw):
    defaults = dict(variant=variant, t=t, n=4, blocks=1, p=3, width=8,
                    psi_widths=(8,), K=3, k_max=1)
    defaults.update(kw)
    return ModelConfig(**defaults)


def coord_to_index(x, h):
    """Nearest-pixel (row, column) indices on an h x h raster for coordinates
    x (..., 2); ties on cell boundaries go to the smaller index (ceil - 1),
    and indices are clamped to the raster."""
    fi, fj = cell_position(x, h, h)
    i = np.clip(np.ceil(fi + 0.5).astype(np.int64) - 1, 0, h - 1)
    j = np.clip(np.ceil(fj + 0.5).astype(np.int64) - 1, 0, h - 1)
    return np.stack([i, j], axis=-1)


def _in_mode(model, mode):
    """The model with its config's evaluation mode set to `mode`."""
    return dataclasses.replace(model, cfg=dataclasses.replace(model.cfg, mode=mode))


def _with_eps(model, eps):
    """The model with its config's stabilizer set to `eps`."""
    return dataclasses.replace(model, cfg=dataclasses.replace(model.cfg, eps=eps))


class TestLiftCoordinate:
    def test_origin_is_fixed_point(self):
        g = make_group(6)
        out = lift_coordinate(np.zeros(2), g)
        assert np.array_equal(out, np.zeros((6, 2)))

    def test_t4_unit_vector(self):
        g = make_group(4)
        out = lift_coordinate(np.array([1.0, 0.0]), g)
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_norm_preserved(self):
        g = make_group(8)
        x = np.array([0.3, -0.7])
        out = lift_coordinate(x, g)
        assert np.max(np.abs(np.hypot(out[:, 0], out[:, 1]) - np.hypot(*x))) <= 1e-14


class TestInputLayer:
    def test_t1_reduces_to_plain_phi(self):
        cfg = _small_cfg("liif", 1)
        model = _inr_model(cfg, 0)
        rng = np.random.default_rng(1)
        latent = (rng.standard_normal((1, cfg.n)),)
        x = rng.standard_normal(2)
        h = _input_h(model, latent, x)
        direct = model.params["inr.W_in"].data[0] @ np.concatenate([latent[0][0], x])
        assert np.max(np.abs(h[0] - direct)) <= 1e-14

    def test_t2_scalar_hand_expansion(self):
        cfg = ModelConfig(variant="liif", t=2, n=1, blocks=1, p=3, width=1,
                          psi_widths=())
        model = _inr_model(cfg, 0)
        model.params["inr.W_in"].data[0] = [[1.0, 2.0, 3.0]]
        model.params["inr.W_in"].data[1] = [[10.0, 20.0, 30.0]]
        latent = (np.array([[5.0], [7.0]]),)
        x = np.array([0.5, -0.25])
        h = _input_h(model, latent, x)
        #4-term expansion over (A, B) with A_1 = -I:
        #   H(x,0) = W0.[5, .5, -.25] + W1.[7, -.5, .25] = 5.25 + 67.5
        #   H(x,1) = W1.[5, .5, -.25] + W0.[7, -.5, .25] = 52.5 + 6.75
        assert np.allclose(h.ravel(), [72.75, 59.25], atol=1e-12)

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("t", [2, 4, 8])
    def test_equivariance_theorem_line_one(self, variant, t):
        cfg = _small_cfg(variant, t)
        g = make_group(t)
        for seed in range(10):
            model = _inr_model(cfg, seed)
            rng = np.random.default_rng(100 + seed)
            latent = _random_latent(rng, cfg)
            x = rng.uniform(-1, 1, size=2)
            for k in range(t):
                lhs = _input_h(model, _shift(latent, k, t), x)
                rot = _input_h(model, latent, g.matrices[k % g.t].T @ x)
                rhs = rot[[(b - k) % t for b in range(t)]]
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestIntermediateLayer:
    def test_identity_blocks(self):
        t, m = 4, 3
        W = np.zeros((t, m, m))
        W[0] = np.eye(m)
        h = np.random.default_rng(0).standard_normal((t, m))
        assert np.array_equal(_mid(h, W), h)

    def test_t2_hand_example(self):
        a, b = 2.0, -3.0
        W = np.array([[[a]], [[b]]])
        h = np.array([[5.0], [7.0]])
        out = _mid(h, W)
        assert np.allclose(out.ravel(), [a * 5 + b * 7, b * 5 + a * 7], atol=1e-15)

    @pytest.mark.parametrize("t", [2, 4, 8])
    def test_equivariance_is_pure_permutation(self, t):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((t, 5, 5))
        h = rng.standard_normal((t, 5))
        base = _mid(h, W)
        for k in range(t):
            perm = [(j - k) % t for j in range(t)]
            lhs = _mid(h[perm], W)
            assert np.max(np.abs(lhs - base[perm])) <= 1e-13


class TestOutputLayer:
    def test_average_with_identity_psi(self):
        t, m = 4, 3
        h = np.random.default_rng(4).standard_normal((t, m))
        out = _out(h, np.eye(m) / t)
        assert np.max(np.abs(out - h.mean(axis=0))) <= 1e-14

    def test_constant_rows_scale_by_t(self):
        t, m = 5, 2
        row = np.array([1.5, -0.5])
        h = np.tile(row, (t, 1))
        w1 = np.array([[2.0, 0.0], [1.0, 1.0]])
        out = _out(h, w1)
        assert np.allclose(out, t * (w1 @ row), atol=1e-13)

    @pytest.mark.parametrize("t", [2, 4, 8])
    def test_slot_shift_invariance(self, t):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((t, 6))
        w1 = rng.standard_normal((3, 6))
        psi = [(diff.constant(rng.standard_normal((2, 3))), diff.constant(rng.standard_normal(2)))]
        base = _out(h, w1, psi)
        for k in range(t):
            perm = [(j - k) % t for j in range(t)]
            assert np.max(np.abs(_out(h[perm], w1, psi) - base)) <= 1e-12


def _closed_form_oracle(cfg, params, group, latent, x):
    """Independent transcription of the L = 0 closed forms, of the parameter
    table `params`."""
    t = group.t
    layers = len(cfg.psi_widths) + 1

    def run_psi(z):
        for i in range(layers):
            z = params[f"inr.psi{i}.w"].data @ z + params[f"inr.psi{i}.b"].data
            if i + 1 < layers:
                z = np.maximum(z, 0.0)
        return z

    if cfg.variant == "liif":
        (feat,) = latent
        acc = np.zeros(params["inr.W_out1"].shape[0])
        for a in range(t):
            xa = group.matrices[a % group.t].T @ x
            v = np.concatenate([feat[a], xa])
            for b in range(t):
                acc += params["inr.W_out1"].data @ (params["inr.W_in"].data[(a - b) % t] @ v)
        return run_psi(acc)
    if cfg.variant == "ope":
        (coeffs,) = latent
        kb = (2 * cfg.k_max + 1) ** 2
        acc = np.zeros(3)
        for a in range(t):
            p_vec = ope_basis((group.matrices[a % group.t].T @ x)[None, :], cfg.k_max)[0]
            acc += coeffs[a].reshape(3, kb) @ p_vec
        return acc
    amp, freq = latent
    acc = np.zeros(2 * cfg.K)
    for a in range(t):
        xa = group.matrices[a % group.t].T @ x
        ang = np.pi * (freq[a].reshape(cfg.K, 2) @ xa)
        acc += amp[a] * np.concatenate([np.cos(ang), np.sin(ang)])
    return run_psi(t * (params["inr.W_out1"].data @ acc))


class TestEvalLocal:
    def test_zero_parameters_give_zero(self):
        cfg = _small_cfg("liif", 4)
        model = _inr_model(cfg, 0)
        for name, p in model.params.items():
            if name.startswith("inr."):
                p.data[...] = 0.0
        latent = (np.random.default_rng(1).standard_normal((4, cfg.n)),)
        out = _local(model, latent, np.array([0.3, 0.4]))
        assert np.array_equal(out, np.zeros(3))

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    def test_corollary_local_equivariance(self, variant):
        # shifting the latent slots produces exactly the rotated local
        # function: eval(shift_k F, x) == eval(F, A_k^{-1} x); equivalently,
        # with the inverse shift, eval(ishift_k F, A_k^{-1} x) == eval(F, x)
        cfg = _small_cfg(variant, 4)
        g = make_group(4)
        for seed in range(5):
            model = _inr_model(cfg, seed)
            rng = np.random.default_rng(50 + seed)
            latent = _random_latent(rng, cfg)
            x = rng.uniform(-1, 1, size=2)
            base = _local(model, latent, x)
            for k in range(4):
                fwd = _local(model, _shift(latent, k, 4), x)
                rot = _local(model, latent, g.matrices[k % g.t].T @ x)
                assert np.max(np.abs(fwd - rot)) <= 1e-11
                inv = _local(model, _shift(latent, (4 - k) % 4, 4), g.matrices[k % g.t].T @ x)
                assert np.max(np.abs(inv - base)) <= 1e-11

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    def test_closed_form_oracle(self, variant):
        cfg = _small_cfg(variant, 4)
        g = make_group(4)
        model = _inr_model(cfg, 7)
        rng = np.random.default_rng(8)
        latent = _random_latent(rng, cfg)
        x = rng.uniform(-1, 1, size=2)
        got = _local(model, latent, x)
        expected = _closed_form_oracle(cfg, model.params, g, latent, x)
        assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("t", [1, 2, 4, 8])
    def test_closed_form_oracle_query_batch(self, variant, t):
        # the batched core evaluates Q different latents at Q offsets at once
        cfg = _small_cfg(variant, t)
        g = make_group(t)
        model = _inr_model(cfg, t)
        rng = np.random.default_rng(20 + t)
        latents = [_random_latent(rng, cfg) for _ in range(5)]
        X = rng.uniform(-1, 1, size=(5, 2))
        batch = tuple(diff.constant(np.stack(parts)) for parts in zip(*latents))
        got = _eval_local_batch(model, batch, X).data
        for q in range(5):
            expected = _closed_form_oracle(cfg, model.params, g, latents[q], X[q])
            assert np.max(np.abs(got[q] - expected)) <= 1e-12

    def test_intermediate_layer_parameter_share(self):
        # a cyclic-sharing layer stores t blocks of m*m, a dense layer on the
        # stacked width stores (t*m)^2: exactly a factor t apart
        cfg = _small_cfg("liif", 8, L=2)
        params = build_model(cfg).params
        t, m = cfg.t, cfg.width
        assert params["inr.mid0"].size == t * m * m == ((t * m) ** 2) // t


class TestOpeBasis:
    def test_gram_matrix_orthonormal(self):
        n = 128
        u = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
        xx, yy = np.meshgrid(u, u, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        P = ope_basis(pts, k_max=3)
        gram = P.T @ P / pts.shape[0]
        assert np.max(np.abs(gram - np.eye(P.shape[1]))) <= 1e-3

    def test_first_entry_constant_and_count(self):
        pts = np.random.default_rng(0).uniform(-1, 1, (10, 2))
        P = ope_basis(pts, k_max=2)
        assert P.shape == (10, 25)
        assert np.array_equal(P[:, 0], np.ones(10))


class TestOpeFold:
    """For right-angle groups ope's latent head emits the group sum of its
    slot coefficients, one slot per pixel; other groups keep t slots."""

    @pytest.mark.parametrize("t", [1, 2, 4])
    @pytest.mark.parametrize("k_max", [1, 3])
    def test_rotations_are_exact(self, t, k_max):
        g = make_group(t)
        R = inr._ope_rotations(g, k_max)
        assert np.all(np.isin(R, (-1.0, 0.0, 1.0)))
        assert np.all(np.abs(R).sum(axis=1) == 1) and np.all(np.abs(R).sum(axis=2) == 1)
        grid = np.array([[a, b] for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])
        x = np.concatenate([np.random.default_rng(t).uniform(-1.0, 1.0, (500, 2)), grid])
        lifted = lift_coordinate(x, g)
        for k in range(t):
            assert np.array_equal(ope_basis(lifted[:, k], k_max), ope_basis(x, k_max) @ R[k].T)

    @pytest.mark.parametrize("t", [3, 8, 16])
    def test_no_rotations_off_right_angles(self, t):
        assert inr._ope_rotations(make_group(t), 3) is None

    @staticmethod
    def _per_slot(model, feat):
        return (group_conv_t(feat, model.params["inr.ope_head.w"], model.group,
                             bias=model.params["inr.ope_head.b"]),)

    @staticmethod
    def _run(model, img, X, latents):
        """Outputs and parameter gradients of a weighted sum of them."""
        with diff.Tape() as tape:
            lats = latents(model, encode_t(model, diff.constant(img)))
            out = eval_global_batch(model, lats, X)
            weights = np.random.default_rng(9).standard_normal(out.shape)
            loss = diff.reduce_sum(diff.mul(out, diff.constant(weights)))
        grads = diff.backward(tape, loss)
        params = model.named_parameters().values()
        return lats[0].shape, out.data, [grads[p].data for p in params if p in grads]

    @pytest.mark.parametrize("t", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    @pytest.mark.parametrize("items", [0, 2])
    def test_folded_code_matches_per_slot_assembly(self, t, mode, items):
        model = build_model(_small_cfg("ope", t, mode=mode, k_max=3), seed=t)
        img = np.random.default_rng(t).random((items, 9, 9, 3) if items else (9, 9, 3))
        X = np.random.default_rng(1).uniform(-1.0, 1.0, (max(items, 1) * 300, 2))
        shape, out, grads = self._run(model, img, X, compute_latents)
        ref_shape, ref_out, ref_grads = self._run(model, img, X, self._per_slot)
        assert shape[-2:] == (1, 3 * 49) and ref_shape[-2:] == (t, 3 * 49)
        assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
        assert len(grads) == len(ref_grads) == len(model.named_parameters())
        for g, r in zip(grads, ref_grads):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    @pytest.mark.parametrize("t", [8, 16])
    def test_other_groups_keep_per_slot_codes(self, t):
        model = build_model(_small_cfg("ope", t, n=2), seed=0)
        img = np.random.default_rng(0).random((7, 7, 3))
        X = np.random.default_rng(1).uniform(-1.0, 1.0, (200, 2))
        shape, out, grads = self._run(model, img, X, compute_latents)
        ref_shape, ref_out, ref_grads = self._run(model, img, X, self._per_slot)
        assert shape == ref_shape and shape[-2] == t
        assert np.array_equal(out, ref_out)
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))

    def test_chunk_plan_counts_the_code_slots(self):
        def plan(t):
            return _plan_bytes(build_model(ModelConfig(variant="ope", t=t)))

        one = plan(1)
        assert all(plan(t) == one for t in (2, 4))
        assert plan(8) > one


class TestEvalGlobal:
    def _model(self, **kw):
        cfg = _small_cfg("liif", 4, blocks=1, n=2, **kw)
        return build_model(cfg, seed=0)

    @staticmethod
    def _at(model, feat, x):
        """The global function of an (h, w, t, n) feature array at one point x."""
        return eval_global_batch(model, compute_latents(model, diff.constant(feat)), x[None]).data[0]

    def test_query_at_pixel_center_nearest(self):
        model = self._model()
        img = Image(np.random.default_rng(1).random((8, 8, 3)))
        feat = encode_t(model, diff.constant(img.data)).data
        # pixel (2, 3) center
        x = np.array([-1.0 + 3.5 * (2.0 / 8), 1.0 - 2.5 * (2.0 / 8)])
        got = self._at(_in_mode(model, "nearest"), feat, x)
        expected = _local(model, (feat[2, 3],), np.zeros(2))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_ensemble_at_center_with_zero_eps_matches_nearest(self):
        model = self._model()
        img = Image(np.random.default_rng(2).random((8, 8, 3)))
        feat = encode_t(model, diff.constant(img.data)).data
        x = np.array([-1.0 + 4.5 * (2.0 / 8), 1.0 - 3.5 * (2.0 / 8)])
        a = self._at(_with_eps(_in_mode(model, "ensemble"), 0.0), feat, x)
        b = self._at(_in_mode(model, "nearest"), feat, x)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_boundary_tie_breaks_to_lower_index(self):
        # a coordinate exactly on the vertical boundary between columns 2 and 3
        h = 8
        x_boundary = -1.0 + 3 * (2.0 / h)
        idx = coord_to_index(np.array([x_boundary, 1.0 - 2.5 * (2.0 / h)]), h)
        assert idx.tolist() == [2, 2]  # lower column index wins
        # and on the horizontal boundary between rows 4 and 5
        y_boundary = 1.0 - 5 * (2.0 / h)
        idx = coord_to_index(np.array([-1.0 + 4.4 * (2.0 / h), y_boundary]), h)
        assert idx.tolist() == [4, 4]  # upper row index wins

    def test_nearest_tie_on_cell_edge_shares_both_latents(self):
        model = self._model()
        img = Image(np.random.default_rng(4).random((8, 8, 3)))
        feat = encode_t(model, diff.constant(img.data)).data
        # on the edge between columns 2 and 3 of row 2
        x = np.array([-1.0 + 3 * (2.0 / 8), 1.0 - 2.5 * (2.0 / 8)])
        got = self._at(_in_mode(model, "nearest"), feat, x)
        expected = (_local(model, (feat[2, 2],), np.array([1.0, 0.0]))
                    + _local(model, (feat[2, 3],), np.array([-1.0, 0.0]))) / 2
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_nearest_tie_on_cell_corner_shares_all_four_latents(self):
        model = self._model()
        img = Image(np.random.default_rng(5).random((8, 8, 3)))
        feat = encode_t(model, diff.constant(img.data)).data
        # the corner shared by rows 2, 3 and columns 2, 3
        x = np.array([-1.0 + 3 * (2.0 / 8), 1.0 - 3 * (2.0 / 8)])
        got = self._at(_in_mode(model, "nearest"), feat, x)
        expected = sum(_local(model, (feat[i, j],),
                              np.array([1.0 - 2 * (j - 2), 2 * (i - 2) - 1.0]))
                       for i in (2, 3) for j in (2, 3)) / 4
        assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("i,j", [(7, 3), (2, 7), (7, 7)])
    def test_last_row_and_column_centers_with_zero_eps(self, i, j):
        # the successor corner lies past the border; with eps = 0 its weight
        # is 0, and the query must still get its own latent's value
        model = self._model()
        img = Image(np.random.default_rng(6).random((8, 8, 3)))
        feat = encode_t(model, diff.constant(img.data)).data
        x = np.array([-1.0 + (j + 0.5) * (2.0 / 8), 1.0 - (i + 0.5) * (2.0 / 8)])
        got = self._at(_with_eps(_in_mode(model, "ensemble"), 0.0), feat, x)
        expected = _local(model, (feat[i, j],), np.zeros(2))
        assert np.all(np.isfinite(got)) and np.max(np.abs(got - expected)) <= 1e-12

    def test_nearest_evaluates_one_latent_per_query_off_ties(self, monkeypatch):
        model, lats = _latents(_small_cfg("lte", 4), 8)
        X = np.random.default_rng(13).uniform(-1.0, 1.0, (500, 2))
        rows, precision = [], []
        real = inr._eval_local_batch

        def counting(model, lat_q, X, *rest):
            rows.append(X.shape[0])
            precision.append(rest)
            return real(model, lat_q, X, *rest)

        monkeypatch.setattr(inr, "_eval_local_batch", counting)
        got = eval_global_batch(_in_mode(model, "nearest"), lats, X).data
        assert rows == [500]
        # and that latent is the nearest one, at its own offset, evaluated at
        # the precision the call received
        ij = coord_to_index(X, 8)
        centers = pixel_coords(8)[ij[:, 0], ij[:, 1]]
        lat_q = inr._gather_latents(lats, ij[:, 0] * 8 + ij[:, 1])
        expected = real(model, lat_q, (X - centers) * 8, *precision[0]).data
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_value_continuous_across_cell_boundary(self):
        model = self._model()
        img = Image(np.random.default_rng(3).random((8, 8, 3)))
        feat = encode_t(model, diff.constant(img.data)).data
        x_boundary = -1.0 + 3 * (2.0 / 8)
        y = 1.0 - 2.7 * (2.0 / 8)
        h = 1e-9
        model = _with_eps(model, 0.0)
        left = self._at(model, feat, np.array([x_boundary - h, y]))
        right = self._at(model, feat, np.array([x_boundary + h, y]))
        assert np.max(np.abs(left - right)) <= 1e-5


class TestSuperResolve:
    def test_non_integer_scale_shape_contract(self):
        model = build_model(_small_cfg("liif", 2, n=2), seed=0)
        img = Image(np.random.default_rng(0).random((20, 20, 3)))
        out = super_resolve(model, img, 2.7)
        assert (out.h, out.w) == (54, 54)

    def test_scale_below_one_rejected(self):
        model = build_model(_small_cfg("liif", 2, n=2), seed=0)
        for scale in (0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError, match="finite"):
                super_resolve(model, Image(np.zeros((8, 8, 3))), scale)

    @pytest.mark.parametrize("scale", [513.0, 1e308])
    def test_oversized_output_refused_before_any_work(self, monkeypatch, scale):
        def no_work(*args, **kwargs):
            raise AssertionError("an oversized request reached the encoder or the INR")

        monkeypatch.setattr(inr, "encode_t", no_work)
        monkeypatch.setattr(inr, "eval_global_batch", no_work)
        model = build_model(_small_cfg("liif", 2, n=2), seed=0)
        with pytest.raises(DomainError, match=str(inr.MAX_OUTPUT_PIXELS)):
            super_resolve(model, Image(np.zeros((8, 8, 3))), scale)

    def test_output_size_limit_is_inclusive(self):
        assert inr.MAX_OUTPUT_PIXELS == 4096 * 4096
        assert output_size(1024, 1024, 4.0) == (4096, 4096)
        assert output_size(20, 20, 2.7) == (54, 54)
        assert output_size(1, 1 << 24, 1.0) == (1, 1 << 24)
        with pytest.raises(DomainError):
            output_size(1024, 1024, 4.0005)
        with pytest.raises(DomainError):
            output_size(1, (1 << 24) + 1, 1.0)

    @pytest.mark.parametrize("t", [2, 4])
    def test_full_pipeline_exactness_and_eps_sensitivity(self, t):
        cfg = ModelConfig(variant="liif", t=t, n=8 // t * 2, blocks=2, p=5, eps=0.0)
        model = build_model(cfg, seed=1)
        img = Image(np.random.default_rng(2).random((16, 16, 3)))
        angle = 2 * np.pi / t  # a generator of the group's angle set
        y0 = super_resolve(model, img, 2.0)
        y1 = super_resolve(model, rotate_image(img, angle), 2.0)
        assert nmse(y1, rotate_image(y0, angle)) <= 1e-6
        # the stabilizer perturbs the blend weights slightly
        model = _with_eps(model, 1e-7)
        y0e = super_resolve(model, img, 2.0)
        y1e = super_resolve(model, rotate_image(img, angle), 2.0)
        assert nmse(y1e, rotate_image(y0e, angle)) <= 1e-4

    @settings(max_examples=200)
    @given(variant=st.sampled_from(["liif", "ope", "lte"]), t=st.sampled_from([2, 4]),
           h=st.integers(3, 12), mode=st.sampled_from(["ensemble", "nearest"]),
           scale=st.sampled_from([1.0, 1.5, 3.0, 5.0]) | st.floats(1.0, 6.0),
           seed=st.integers(0, 2**16))
    def test_exact_p2_p4_equivariance_at_every_scale(self, variant, t, h, mode, scale, seed):
        # with eps = 0 the 2x2 corner set and its weights commute with a
        # quarter (half) turn at any scale, cell edges and centers included
        model = build_model(_small_cfg(variant, t, eps=0.0, mode=mode), seed=seed)
        img = Image(np.random.default_rng(seed).random((h, h, 3)))
        angle = 2 * np.pi / t
        y0 = super_resolve(model, img, scale)
        y1 = super_resolve(model, rotate_image(img, angle), scale)
        assert nmse(y1, rotate_image(y0, angle)) <= 1e-6

    def test_overfit_one_image_reconstructs_it(self):
        data = DatasetSpec(kind="smooth-field", count=1, size=16, seed=3,
                           scale_lo=1.0, scale_hi=1.0, cutoff=0.15)
        cfg = ModelConfig(variant="liif", t=1, n=16, blocks=1, p=3, width=32,
                          psi_widths=(32,), eps=1e-7)
        result = train(cfg, data, steps=1000, lr=1e-2, decay_steps=120,
                       batch=1, patch=16, seed=0)
        from equisr.data import gen_synthetic
        from equisr.metrics import psnr
        img = gen_synthetic(data, 0)
        recon = super_resolve(result.model, img, 1.0)
        assert psnr(Image(np.clip(recon.data, 0, 1)), img) >= 40.0


class TestFloat32Waves:
    """lte's serving exit evaluates its waves in float32; a tape keeps float64."""

    @pytest.mark.parametrize("t", [1, 4, 8])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    @pytest.mark.parametrize("freq_gain", [1.0, 50.0])
    def test_serving_exit_matches_the_taped_float64_exit(self, t, mode, freq_gain):
        # a gain of 50 on the frequency head puts angles at hundreds of radians
        model = build_model(ModelConfig(variant="lte", t=t, n=16 // t, blocks=1, mode=mode),
                            seed=t)
        model.named_parameters()["inr.freq_head.w"].data *= freq_gain
        img = Image(np.random.default_rng(t).random((12, 12, 3)))
        got = super_resolve(model, img, 2.5).data
        with diff.Tape():
            expected = super_resolve(model, img, 2.5).data
        lats = compute_latents(model, encode_t(model, diff.constant(img.data)))
        assert np.max(np.abs(lats[1].data)) * np.pi >= (100.0 if freq_gain > 1 else 1.0)
        assert not np.array_equal(got, expected)  # the waves did differ in precision
        assert np.max(np.abs(got - expected)) <= 1e-6 * np.max(np.abs(expected))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_angle_gives_nan_like_float64(self, bad):
        model, lats = _latents(ModelConfig(variant="lte", t=4, n=4, blocks=1), 6)
        lats[1].data[2, 3, 1, 0] = bad  # one frequency of one latent
        X = pixel_coords(15).reshape(-1, 2)
        with np.errstate(invalid="ignore"):
            got = eval_global_batch(model, lats, X).data
            with diff.Tape():
                expected = eval_global_batch(model, lats, X).data
        assert np.isnan(expected).any()
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        finite = ~np.isnan(expected)
        assert np.max(np.abs(got[finite] - expected[finite])) <= 1e-6 * np.max(np.abs(expected[finite]))


def _latents(cfg, side, seed=0):
    model = build_model(cfg, seed=seed)
    img = np.random.default_rng(seed).random((side, side, cfg.c_in))
    return model, compute_latents(model, encode_t(model, diff.constant(img)))


def _plan_bytes(model):
    """Bytes per query of eval_global_batch's chunk plan for the codes that
    compute_latents gives the model."""
    lats = _latents_of(model, np.zeros((4, 4, model.cfg.c_in)))
    return inr._query_bytes(model.cfg, lats[0].shape[-2])


def _chunk_sizes(monkeypatch):
    sizes = []
    real = inr._eval_global_chunk

    def counting(model, lats, X, *rest):
        sizes.append(X.shape[0])
        return real(model, lats, X, *rest)

    monkeypatch.setattr(inr, "_eval_global_chunk", counting)
    return sizes


def _pin_workers(monkeypatch, workers):
    monkeypatch.setattr(parallel, "_workers", lambda: workers)


def _param_grads(model, img, X):
    with diff.Tape() as tape:
        lats = compute_latents(model, encode_t(model, diff.constant(img)))
        loss = diff.reduce_sum(eval_global_batch(model, lats, X))
    grads = diff.backward(tape, loss)
    return [grads[p].data for p in model.named_parameters().values() if p in grads]


class TestStreamedAssembly:
    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("t", [1, 4, 8])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    def test_chunks_match_single_chunk(self, monkeypatch, variant, t, mode):
        model, lats = _latents(_small_cfg(variant, t, mode=mode), 10)
        X = np.random.default_rng(1).uniform(-1.0, 1.0, (1003, 2))
        whole = eval_global_batch(model, lats, X).data
        rows = 97  # 1003 = 10 * 97 + 33 queries, for any number of workers
        monkeypatch.setattr(inr, "_CHUNK_BYTES", rows * _plan_bytes(model))
        for workers in (1, 2, 3):
            _pin_workers(monkeypatch, workers)
            sizes = _chunk_sizes(monkeypatch)
            parts = eval_global_batch(model, lats, X).data
            assert sum(sizes) == 1003 and len(sizes) == 11
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= rows
            assert np.max(np.abs(parts - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    def test_taped_call_cuts_the_untaped_chunks(self, monkeypatch, variant):
        # a training item's 24 x 24 queries are 6 chunks of 96 at a 97-row
        # budget, whether or not a tape records
        model, lats = _latents(ModelConfig(variant=variant, blocks=1), 6)
        monkeypatch.setattr(inr, "_CHUNK_BYTES", 97 * _plan_bytes(model))
        _pin_workers(monkeypatch, 2)
        for q, chunks in ((24 * 24, [96] * 6), (1003, [91] * 9 + [92] * 2)):
            X = np.random.default_rng(2).uniform(-1.0, 1.0, (q, 2))
            for record in (False, True):
                sizes = _chunk_sizes(monkeypatch)
                with diff.Tape() if record else contextlib.nullcontext():
                    eval_global_batch(model, lats, X)
                assert sorted(sizes) == chunks

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    def test_memory_bounded_by_budget(self, monkeypatch, variant):
        cfg = ModelConfig(variant=variant, t=4, blocks=1)
        model, lats = _latents(cfg, 16)
        tie_lats = _latents(cfg, 64)[1]
        rng = np.random.default_rng(3)

        def temporaries(lats, X, mode="ensemble"):
            in_mode = _in_mode(model, mode)
            tracemalloc.start()
            try:
                out = eval_global_batch(in_mode, lats, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out_bytes = out.data.nbytes
            # the budget is per thread
            assert peak <= workers * inr._CHUNK_BYTES + 2 * out_bytes
            return peak - 2 * out_bytes

        for workers in (1, 2):
            _pin_workers(monkeypatch, workers)
            small = temporaries(lats, rng.uniform(-1.0, 1.0, (16384, 2)))
            large = temporaries(lats, rng.uniform(-1.0, 1.0, (65536, 2)))
            # 64 -> 96: a third of the HR rows and of the columns lie on LR
            # cell edges, so nearest mode evaluates 16/9 latents per query;
            # it must take no more memory than as many queries off ties
            ties = temporaries(tie_lats, pixel_coords(96).reshape(-1, 2), "nearest")
            off_ties = temporaries(tie_lats, rng.uniform(-1.0, 1.0, (96 * 96, 2)), "nearest")
            # with two threads the peak depends on how their chunks
            # interleave, so the ratios are only compared on one thread
            if workers == 1:
                assert large <= 1.1 * small
                assert ties <= 1.1 * off_ties


def _latents_of(model, img):
    return compute_latents(model, encode_t(model, diff.constant(img)))


class TestBatchedAssembly:
    """Latents of B items answer N/B queries each, as B separate calls would."""

    @staticmethod
    def _setup(variant, items):
        model = build_model(_small_cfg(variant, 4, L=1 if variant == "liif" else 0), seed=0)
        imgs = np.random.default_rng(items).random((items, 8, 8, 3))
        X = np.random.default_rng(10 + items).uniform(-1.0, 1.0, (items * 100, 2))
        return model, imgs, X

    @staticmethod
    def _run(model, imgs, X, mode, batched):
        """Outputs and parameter gradients of their sum, batched or per item."""
        with diff.Tape() as tape:
            if batched:
                lats = compute_latents(model, encode_t(model, diff.constant(imgs)))
                out = eval_global_batch(_in_mode(model, mode), lats, X)
            else:
                parts = []
                for img, X_item in zip(imgs, np.split(X, len(imgs))):
                    lats = compute_latents(model, encode_t(model, diff.constant(img)))
                    parts.append(eval_global_batch(_in_mode(model, mode), lats, X_item))
                out = diff.concat(parts, axis=0)
            loss = diff.reduce_sum(out)
        grads = diff.backward(tape, loss)
        return out.data, [grads[p].data for p in model.named_parameters().values() if p in grads]

    @staticmethod
    def _close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    @pytest.mark.parametrize("items", [1, 3])
    def test_tape_matches_per_item_calls(self, variant, mode, items):
        model, imgs, X = self._setup(variant, items)
        out, grads = self._run(model, imgs, X, mode, batched=True)
        ref_out, ref_grads = self._run(model, imgs, X, mode, batched=False)
        assert self._close(out, ref_out)
        assert len(grads) == len(ref_grads) > 0
        assert all(self._close(g, r) for g, r in zip(grads, ref_grads))

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    def test_threaded_chunks_straddle_items(self, monkeypatch, variant, mode):
        model, imgs, X = self._setup(variant, 3)
        model = _in_mode(model, mode)
        per_item = [eval_global_batch(model, _latents_of(model, img), X_item).data
                    for img, X_item in zip(imgs, np.split(X, 3))]
        # 300 queries in 5 chunks of 60: boundaries 60, 120, 180 and 240 fall
        # inside items, whose boundaries are 100 and 200
        monkeypatch.setattr(inr, "_CHUNK_BYTES", 70 * _plan_bytes(model))
        _pin_workers(monkeypatch, 2)
        sizes = _chunk_sizes(monkeypatch)
        out = eval_global_batch(model, _latents_of(model, imgs), X).data
        assert sizes == [60] * 5
        assert self._close(out, np.concatenate(per_item))

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    def test_one_item_is_the_unbatched_call(self, variant, mode):
        model, imgs, X = self._setup(variant, 1)
        model = _in_mode(model, mode)
        lats = _latents_of(model, imgs[0])
        one = tuple(diff.constant(x.data[None]) for x in lats)
        assert one[0].shape == (1,) + lats[0].shape
        for record in (False, True):
            with diff.Tape() if record else contextlib.nullcontext():
                got = eval_global_batch(model, one, X).data
                expected = eval_global_batch(model, lats, X).data
            assert np.array_equal(got, expected)

    def test_queries_must_split_evenly(self):
        model, imgs, X = self._setup("ope", 3)
        lats = _latents_of(model, imgs)
        with pytest.raises(ShapeError):
            eval_global_batch(model, lats, X[:-1])


class TestSuperResolveBatch:
    """super_resolve_batch: one encoder, latent and query pass for B images."""

    @staticmethod
    def _images(items, side=16, channels=3):
        rng = np.random.default_rng(side + items)
        return [Image(rng.random((side, side, channels))) for _ in range(items)]

    @staticmethod
    def _close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("t", [1, 4, 8])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    @pytest.mark.parametrize("items", [1, 3])
    def test_each_output_is_its_own_super_resolve(self, monkeypatch, variant, t, mode, items):
        model = build_model(_small_cfg(variant, t, mode=mode, eps=0.0), seed=t)
        imgs = self._images(items)
        expected = [super_resolve(model, img, 2.7).data for img in imgs]
        # 16 -> 43: 1849 queries per item, cut into chunks of at most 300
        # that straddle items in the batch
        monkeypatch.setattr(inr, "_CHUNK_BYTES", 300 * _plan_bytes(model))
        for workers in (1, 2, 3):
            _pin_workers(monkeypatch, workers)
            got = [y.data for y in super_resolve_batch(model, imgs, 2.7)]
            assert len(got) == items
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("side, scale, mode", [(17, 2.0, "ensemble"), (16, 2.7, "nearest")])
    def test_rows_at_other_product_heights_agree_to_rounding(self, variant, side, scale, mode):
        # BLAS may round the last (height mod 4) rows of a product apart
        # from the same rows inside a taller one.  At side 17 conv2d's
        # 15-row bands cross items; a nearest-mode chunk holds any number
        # of live rows.  Both moved t = 1 outputs by up to 1.2e-15 relative.
        model = build_model(ModelConfig(variant=variant, t=1, n=32, blocks=1, mode=mode,
                                        eps=0.0), seed=1)
        imgs = self._images(3, side=side)
        got = super_resolve_batch(model, imgs, scale)
        assert all(self._close(y.data, super_resolve(model, img, scale).data)
                   for y, img in zip(got, imgs))

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("t", [1, 4, 8])
    def test_batch_limit_fits_the_codes_in_one_chunk_budget(self, variant, t):
        model = build_model(ModelConfig(variant=variant, t=t, n=32 // t, blocks=1), seed=0)
        lats = _latents_of(model, np.zeros((8, 8, 3)))
        codes = sum(x.data.nbytes for x in lats) * 16  # one 32 x 32 image's
        limit = inr.batch_limit(model, 32, 32, 2.0)
        assert limit == max(1, inr._CHUNK_BYTES // codes)

    def test_batch_limit_keeps_the_one_request_pixel_limit(self):
        model = build_model(_small_cfg("liif", 2, n=2), seed=0)
        assert inr.batch_limit(model, 1024, 1024, 4.0) == 1  # 4096 x 4096
        assert inr.batch_limit(model, 256, 256, 8.0) == 4  # 2048 x 2048 each
        with pytest.raises(DomainError):
            inr.batch_limit(model, 1024, 1024, 4.0005)

    def test_mixed_shapes_are_a_shape_error(self, monkeypatch):
        monkeypatch.setattr(inr, "encode_t", _no_work)
        model = build_model(_small_cfg("liif", 2, n=2), seed=0)
        for imgs in ([*self._images(2), *self._images(1, side=12)],
                     [*self._images(1), *self._images(1, channels=1)], []):
            with pytest.raises(ShapeError):
                super_resolve_batch(model, imgs, 2.0)

    @pytest.mark.parametrize("scale", [0.5, float("nan"), 513.0])
    def test_bad_scale_refused_before_the_encoder(self, monkeypatch, scale):
        monkeypatch.setattr(inr, "encode_t", _no_work)
        model = build_model(_small_cfg("liif", 2, n=2), seed=0)
        with pytest.raises(DomainError):
            super_resolve_batch(model, self._images(3, side=8), scale)

    def test_channel_mismatch_refused_before_any_convolution(self, monkeypatch):
        monkeypatch.setattr(diff, "conv2d", _no_work)
        model = build_model(_small_cfg("liif", 2, n=2), seed=0)
        with pytest.raises(ShapeError, match="channels"):
            super_resolve_batch(model, self._images(2, channels=1), 2.0)


def _no_work(*args, **kwargs):
    raise AssertionError("a refused request reached the model")


class TestParallelAssembly:
    """Chunks on helper threads: same values and gradients for any thread count."""

    @staticmethod
    def _budget(monkeypatch, model, rows, workers):
        monkeypatch.setattr(inr, "_CHUNK_BYTES", rows * _plan_bytes(model))
        _pin_workers(monkeypatch, workers)

    def _meeting_threads(self, monkeypatch, workers):
        """Make each thread's first chunk wait for `workers` threads; returns
        the thread ident of every chunk call."""
        barrier = threading.Barrier(workers, timeout=30)
        first = threading.local()
        idents = []
        real = inr._eval_global_chunk

        def meeting(*args):
            idents.append(threading.get_ident())
            if not getattr(first, "done", False):
                first.done = True
                barrier.wait()
            return real(*args)

        monkeypatch.setattr(inr, "_eval_global_chunk", meeting)
        return idents

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("t", [1, 4, 8])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_matches_serial_at_same_chunks(self, monkeypatch, variant, t, mode,
                                                    workers):
        model, lats = _latents(_small_cfg(variant, t, mode=mode), 10)
        X = np.random.default_rng(4).uniform(-1.0, 1.0, (1003, 2))
        self._budget(monkeypatch, model, 50, 1)
        serial = eval_global_batch(model, lats, X).data
        self._budget(monkeypatch, model, 50, workers)
        self._meeting_threads(monkeypatch, workers)
        parallel = eval_global_batch(model, lats, X).data
        assert np.array_equal(parallel, serial)

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("mode", ["ensemble", "nearest"])
    def test_sr_same_bits_for_any_worker_count(self, monkeypatch, variant, mode):
        # the default budget, 16 -> 96 (9216 queries): several chunks per mode
        model = build_model(ModelConfig(variant=variant, blocks=1, mode=mode), seed=0)
        img = Image(np.random.default_rng(13).random((16, 16, 3)))
        outs = []
        for workers in (1, 2, 3):
            _pin_workers(monkeypatch, workers)
            sizes = _chunk_sizes(monkeypatch)
            outs.append(super_resolve(model, img, 6.0).data)
            assert len(sizes) >= 2 and sum(sizes) == 96 * 96
        assert all(np.array_equal(out, outs[0]) for out in outs[1:])

    def test_many_workers_take_each_chunk_once(self, monkeypatch):
        # more threads than cores and a short switch interval: a chunk taken
        # twice or never would change the call count or leave rows unset
        model, lats = _latents(_small_cfg("lte", 4), 8)
        X = np.random.default_rng(8).uniform(-1.0, 1.0, (1003, 2))
        self._budget(monkeypatch, model, 4, 1)
        serial = eval_global_batch(model, lats, X).data
        self._budget(monkeypatch, model, 4, 8)
        sizes = _chunk_sizes(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = eval_global_batch(model, lats, X).data
        finally:
            sys.setswitchinterval(interval)
        assert len(sizes) == 251 and sum(sizes) == 1003
        assert np.array_equal(parallel, serial)

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    def test_taped_chunks_run_on_helpers_with_same_gradients(self, monkeypatch, variant):
        model = build_model(_small_cfg(variant, 4, L=1 if variant == "liif" else 0), seed=0)
        img = np.random.default_rng(0).random((8, 8, 3))
        X = np.random.default_rng(5).uniform(-1.0, 1.0, (300, 2))
        runs = []
        for workers in (1, 2, 3):
            self._budget(monkeypatch, model, 97, workers)  # 4 chunks of 75
            idents = self._meeting_threads(monkeypatch, workers)
            runs.append(_param_grads(model, img, X))
            assert len(idents) == 4 and len(set(idents)) == workers
        assert len(runs[0]) == len(model.named_parameters())
        for grads in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(grads, runs[0]))

    def test_taped_relu_masks_same_for_any_worker_count(self, monkeypatch):
        model, lats = _latents(_small_cfg("liif", 4, L=1), 8)
        X = np.random.default_rng(6).uniform(-1.0, 1.0, (300, 2))
        runs = []
        for workers in (1, 2, 3):
            self._budget(monkeypatch, model, 97, workers)
            idents = self._meeting_threads(monkeypatch, workers)
            with diff.Tape() as tape:
                eval_global_batch(model, lats, X)
            runs.append(tape.relu_masks)
            assert len(set(idents)) == workers
        # per chunk, in chunk order: the input, mid and psi relus
        assert len(runs[0]) == 4 * 3
        assert [m.shape[0] for m in runs[0]] == [4 * 75] * 12
        for masks in runs[1:]:
            assert len(masks) == 12 and all(np.array_equal(a, b) for a, b in zip(masks, runs[0]))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunk_error_reaches_caller_and_helpers_join(self, monkeypatch, workers):
        model = build_model(_small_cfg("ope", 4), seed=0)
        img = diff.constant(np.random.default_rng(0).random((8, 8, 3)))
        X = np.random.default_rng(7).uniform(-1.0, 1.0, (1003, 2))
        self._budget(monkeypatch, model, 20, workers)
        real = inr._eval_global_chunk
        for record in (False, True):
            calls = []
            lock = threading.Lock()

            def failing(*args):
                with lock:
                    calls.append(threading.get_ident())
                    first = len(calls) == 1
                if first:
                    raise RuntimeError("chunk failed")
                return real(*args)

            monkeypatch.setattr(inr, "_eval_global_chunk", failing)
            before = set(threading.enumerate())
            with diff.Tape() if record else contextlib.nullcontext() as tape:
                lats = compute_latents(model, encode_t(model, img))
                entries = list(tape.entries) if record else []
                masks = list(tape.relu_masks) if record else []
                with pytest.raises(RuntimeError, match="chunk failed"):
                    eval_global_batch(model, lats, X)
            assert set(threading.enumerate()) == before
            # after the failure each other thread finishes at most one chunk
            assert len(calls) <= workers
            if record:  # no part of the failed call reaches the caller's tape
                assert entries and tape.entries == entries
                assert masks and len(tape.relu_masks) == len(masks)
                assert all(a is b for a, b in zip(tape.relu_masks, masks))

    def _affinity_calls(self, monkeypatch, cpus, refuse=False):
        calls = []
        lock = threading.Lock()

        def set_affinity(pid, mask):
            assert pid == 0
            with lock:
                calls.append((threading.get_ident(), set(mask)))
            if refuse:
                raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", set_affinity, raising=False)
        return calls

    @pytest.mark.parametrize("workers,slices", [
        (2, [{0, 1}, {2, 3}]), (3, [{0}, {1}, {2, 3}]), (4, [{0}, {1}, {2}, {3}]),
    ])
    def test_threads_run_on_disjoint_cpu_slices(self, monkeypatch, workers, slices):
        model, lats = _latents(_small_cfg("lte", 4), 8)
        X = np.random.default_rng(9).uniform(-1.0, 1.0, (1003, 2))
        self._budget(monkeypatch, model, 50, 1)
        serial = eval_global_batch(model, lats, X).data
        self._budget(monkeypatch, model, 50, workers)
        calls = self._affinity_calls(monkeypatch, {0, 1, 2, 3})
        parallel = eval_global_batch(model, lats, X).data
        me = threading.get_ident()
        # the caller runs on the first slice, then gets its whole set back
        assert [m for t, m in calls if t == me] == [slices[0], {0, 1, 2, 3}]
        helpers = sorted((m for t, m in calls if t != me), key=min)
        assert helpers == slices[1:]
        assert np.array_equal(parallel, serial)

    def test_no_pinning_with_fewer_cpus_than_threads(self, monkeypatch):
        model, lats = _latents(_small_cfg("ope", 4), 8)
        X = np.random.default_rng(10).uniform(-1.0, 1.0, (1003, 2))
        self._budget(monkeypatch, model, 50, 2)
        calls = self._affinity_calls(monkeypatch, {5})
        eval_global_batch(model, lats, X)
        assert calls == []

    def test_refused_pinning_is_ignored(self, monkeypatch):
        model, lats = _latents(_small_cfg("ope", 4), 8)
        X = np.random.default_rng(11).uniform(-1.0, 1.0, (1003, 2))
        self._budget(monkeypatch, model, 50, 1)
        serial = eval_global_batch(model, lats, X).data
        self._budget(monkeypatch, model, 50, 2)
        calls = self._affinity_calls(monkeypatch, {0, 1}, refuse=True)
        assert np.array_equal(eval_global_batch(model, lats, X).data, serial)
        assert len(calls) == 3  # caller, helper, caller's restore

    def test_no_pinning_without_platform_support(self, monkeypatch):
        model, lats = _latents(_small_cfg("ope", 4), 8)
        X = np.random.default_rng(12).uniform(-1.0, 1.0, (1003, 2))
        self._budget(monkeypatch, model, 50, 1)
        serial = eval_global_batch(model, lats, X).data
        self._budget(monkeypatch, model, 50, 2)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert np.array_equal(eval_global_batch(model, lats, X).data, serial)

    @pytest.mark.parametrize("openblas,omp,expected", [
        ("1", None, 4), ("2", None, 2), (None, None, 1), ("0", None, 1), ("abc", None, 1),
        ("8", None, 1), (None, "2", 2), ("abc", "1", 4),
    ])
    def test_worker_rule(self, monkeypatch, openblas, omp, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert parallel._workers() == expected

    def test_worker_rule_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert parallel._workers() == 3


class TestConfigValidation:
    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="siren")

    def test_ope_with_intermediates_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="ope", L=1)

    def test_negative_eps_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(eps=-1.0)

    def test_invalid_encoder_shape_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(blocks=0)
        with pytest.raises(ConfigError):
            ModelConfig(p=4)

    @pytest.mark.parametrize("eps", [-1.0, np.inf, "abc", True,
                                     pytest.param(10 ** 400, id="int-past-float64")])
    def test_per_call_eps_is_checked_as_the_config_eps(self, eps, monkeypatch):
        # the metrics' eps is the one per-call eps; it fails before any SR
        model = build_model(_small_cfg("liif", 2, n=2), seed=0)
        img = Image(np.random.default_rng(0).random((4, 4, 3)))

        def no_sr(*args):
            raise AssertionError("super_resolve ran before the eps check")

        monkeypatch.setattr(metrics, "super_resolve", no_sr)
        with pytest.raises(ConfigError, match="eps"):
            metrics.equivariance_error(model, img, np.pi / 2, 2.0, eps=eps)
        for given in (model, None):
            with pytest.raises(ConfigError, match="eps"):
                list(metrics.sweep_cells([("m", model.cfg)], [np.pi / 2], [2.0], [4],
                                         eps=eps, model=given))

    def test_size_limit_is_inclusive(self, monkeypatch):
        count = parameter_count(ModelConfig())
        monkeypatch.setattr(inr, "MAX_PARAMETERS", count)
        ModelConfig()
        monkeypatch.setattr(inr, "MAX_PARAMETERS", count - 1)
        with pytest.raises(ConfigError, match=f"{count} parameters.*limit of {count - 1}"):
            ModelConfig()

    def test_oversized_model_refused_without_allocating(self):
        # 10^18 floats of W_out1 alone; building it would ask numpy for 8 EB
        assert inr.MAX_PARAMETERS == 1 << 27
        with pytest.raises(ConfigError, match="limit of 134217728"):
            ModelConfig(width=10 ** 9)
        with pytest.raises(ConfigError, match="limit"):
            dataclasses.replace(ModelConfig(), t=64, n=256)

    def test_model_section_size_error_names_the_section(self):
        doc = config.defaults()
        doc["model"].update(t=64, encoder={"blocks": 4, "n": 256, "p": 5})
        with pytest.raises(ConfigError, match="^model: .*limit"):
            config.model_config(doc)
        doc["model"]["inr"]["widths"] = [10 ** 9, 64]
        with pytest.raises(ConfigError, match="^model.inr.widths: .*limit"):
            config.model_config(doc)

    @pytest.mark.parametrize("section", [
        # too large at the default t, blocks and p, within the limit at these
        {"t": 1, "encoder": {"blocks": 1, "n": 2000, "p": 3}},
        # ope has no H-value width, so a large one costs nothing
        {"variant": "ope", "inr": {"widths": [10 ** 9]}},
    ])
    def test_model_section_size_is_the_whole_sections(self, section):
        doc = config.defaults()
        for key, value in section.items():
            if isinstance(value, dict):
                doc["model"][key].update(value)
            else:
                doc["model"][key] = value
        cfg = config.model_config(doc)
        assert parameter_count(cfg) <= inr.MAX_PARAMETERS

    def test_model_holds_one_description(self, monkeypatch):
        # the config, the group and the parameter table live on INRModel
        # only, the group built once
        assert [f.name for f in dataclasses.fields(INRModel)] == ["cfg", "group", "params"]
        calls = []
        real = inr.make_group
        monkeypatch.setattr(inr, "make_group", lambda t: calls.append(t) or real(t))
        model = build_model(_small_cfg("lte", 4))
        assert calls == [4] and model.group.t == 4

    def test_cli_defaults_are_the_library_defaults(self):
        doc = config.defaults()
        assert config.model_config(doc) == ModelConfig()
        assert config.dataset_spec(doc) == DatasetSpec()
        keywords = {k: p.default for k, p in inspect.signature(train).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        assert keywords == {k: v for k, v in doc["train"].items() if k != "steps"}


@pytest.mark.parametrize("variant,t,L,psi_widths", [
    (variant, t, L, psi_widths) for variant in ("liif", "ope", "lte") for t in (1, 2, 8)
    for L in ((0, 2) if variant == "liif" else (0,)) for psi_widths in ((), (5,), (3, 7))])
def test_parameter_count_matches_built_model(variant, t, L, psi_widths):
    cfg = ModelConfig(variant=variant, t=t, L=L, psi_widths=psi_widths, blocks=2, n=3, p=3,
                      c_in=2, width=5, K=3, k_max=1)
    params = build_model(cfg).named_parameters().values()
    assert parameter_count(cfg) == sum(p.size for p in params)
