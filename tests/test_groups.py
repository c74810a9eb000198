"""Rotation-group algebra and image/feature rotation operators."""

import numpy as np
import pytest

from equisr.errors import GroupIndexError, InvalidOrderError, ShapeError
from equisr.groups import (
    element_image_angle,
    make_group,
    rotate_feature,
    rotate_image,
)
from equisr.image import Image, disk_mask, pixel_coords


class TestMakeGroup:
    def test_quarter_turn_matrix(self):
        g = make_group(4)
        assert np.allclose(g.matrices[1], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_order_one_is_identity(self):
        g = make_group(1)
        assert g.t == 1
        assert np.array_equal(g.matrices[0], np.eye(2))

    def test_t8_entries(self):
        g = make_group(8)
        r = np.sqrt(2.0) / 2.0
        assert np.allclose(g.matrices[1], [[r, r], [-r, r]], atol=1e-12)

    def test_zero_order_rejected(self):
        with pytest.raises(InvalidOrderError):
            make_group(0)

    @pytest.mark.parametrize("t", [-1, 2.0, True, "4"])
    def test_invalid_orders_rejected(self, t):
        with pytest.raises(InvalidOrderError):
            make_group(t)

    @pytest.mark.parametrize("t", [1, 2, 4, 8, 16])
    def test_index_arithmetic_matches_matrices(self, t):
        g = make_group(t)
        assert np.allclose(g.matrices[0], np.eye(2), atol=1e-12)
        for k in range(t):
            assert np.allclose(np.linalg.inv(g.matrices[k]), g.matrices[(t - k) % t],
                               atol=1e-12)
            for j in range(t):
                assert np.allclose(g.matrices[k] @ g.matrices[j],
                                   g.matrices[(k + j) % t], atol=1e-12)

    @pytest.mark.parametrize("t", [1, 3, 4, 8, 16])
    def test_orthogonal_determinant_one(self, t):
        g = make_group(t)
        for k in range(t):
            A = g.matrices[k % g.t]
            assert np.max(np.abs(A.T @ A - np.eye(2))) <= 1e-12
            assert abs(np.linalg.det(A) - 1.0) <= 1e-12


class TestRotateImage:
    def test_2x2_quarter_turn(self):
        img = Image(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
        out = rotate_image(img, np.pi / 2)
        # [[a,b],[c,d]] rotated 90 degrees CCW becomes [[b,d],[a,c]]
        assert np.array_equal(out.data[:, :, 0], [[2.0, 4.0], [1.0, 3.0]])

    def test_four_quarter_turns_identity(self):
        rng = np.random.default_rng(0)
        img = Image(rng.random((7, 7, 3)))
        out = img
        for _ in range(4):
            out = rotate_image(out, np.pi / 2)
        assert np.array_equal(out.data, img.data)

    def test_constant_image_30deg_inside_disk(self):
        img = Image(np.full((24, 24, 1), 0.7))
        out = rotate_image(img, np.deg2rad(30.0))
        mask = disk_mask(24, margin_cells=2.0)
        assert np.max(np.abs(out.data[mask] - 0.7)) <= 1e-12

    def test_zero_angle_is_identity_bit_exact(self):
        rng = np.random.default_rng(1)
        img = Image(rng.random((5, 9, 2)))
        assert np.array_equal(rotate_image(img, 0.0).data, img.data)

    def test_right_angle_preserves_mean_exactly(self):
        img = Image(np.full((6, 6, 1), 1.0 / 3.0))
        out = rotate_image(img, -np.pi / 2)
        assert out.data.mean() == img.data.mean()

    def test_nonsquare_quarter_turn_raises(self):
        img = Image(np.zeros((4, 6, 1)))
        with pytest.raises(ShapeError):
            rotate_image(img, np.pi / 2)

    def test_nonsquare_half_turn_allowed(self):
        img = Image(np.arange(8.0).reshape(2, 4, 1))
        out = rotate_image(img, np.pi)
        assert np.array_equal(out.data, img.data[::-1, ::-1])


def _brute_force_rotate_feature(data, group, k):
    """Index-chase reference: output slot j = element-k action on slot (j-k)%t."""
    h, w, t, n = data.shape
    out = np.zeros_like(data)
    for j in range(t):
        src = data[:, :, (j - k) % t]
        out[:, :, j] = rotate_image(Image(src), element_image_angle(group, k)).data
    return out


class TestRotateFeature:
    def test_t1_equals_rotate_image(self):
        g = make_group(1)
        rng = np.random.default_rng(2)
        f = rng.random((6, 6, 1, 3))
        out = rotate_feature(f, g, 0)
        assert np.array_equal(out, f)

    def test_one_hot_pixel_lands_in_shifted_slot(self):
        g = make_group(4)
        data = np.zeros((4, 4, 4, 1))
        data[1, 2, 0, 0] = 1.0
        out = rotate_feature(data, g, 1)
        assert np.array_equal(out, _brute_force_rotate_feature(data, g, 1))
        # exactly one nonzero, in slot 1: element 1 rotates clockwise, so
        # pixel (i, j) = (1, 2) moves to (j, h-1-i) = (2, 2)
        nz = np.argwhere(out != 0.0)
        assert nz.tolist() == [[2, 2, 1, 0]]

    @pytest.mark.parametrize("t", [2, 4])
    def test_action_composition_exact_right_angles(self, t):
        g = make_group(t)
        rng = np.random.default_rng(3)
        f = rng.random((6, 6, t, 2))
        for k in range(t):
            for j in range(t):
                once = rotate_feature(f, g, (j + k) % t)
                twice = rotate_feature(rotate_feature(f, g, k), g, j)
                assert np.array_equal(once, twice)

    def test_action_composition_interpolated_affine(self):
        # bilinear interpolation reproduces affine fields exactly, so the
        # composition law holds on the inscribed disk even at t=8
        t, h = 8, 32
        g = make_group(t)
        xy = pixel_coords(h, h)
        base = 0.3 + 0.2 * xy[:, :, 0] - 0.5 * xy[:, :, 1]
        f = np.stack([base * (s + 1) for s in range(t)], axis=-1)[:, :, :, None]
        mask = disk_mask(h, margin_cells=3.0)
        for k, j in [(1, 1), (1, 3), (3, 5), (7, 2)]:
            once = rotate_feature(f, g, (j + k) % t)
            twice = rotate_feature(rotate_feature(f, g, k), g, j)
            err = np.abs(once - twice)[mask]
            assert err.max() <= 1e-10

    def test_matches_brute_force_random(self):
        g = make_group(4)
        rng = np.random.default_rng(4)
        data = rng.random((5, 5, 4, 3))
        for k in range(4):
            out = rotate_feature(data, g, k)
            assert np.allclose(out, _brute_force_rotate_feature(data, g, k),
                               atol=0, rtol=0)

    def test_bad_index_raises(self):
        g = make_group(4)
        f = np.zeros((4, 4, 4, 1))
        with pytest.raises(GroupIndexError):
            rotate_feature(f, g, 4)

    def test_group_order_mismatch_raises(self):
        f = np.zeros((4, 4, 4, 1))
        with pytest.raises(ShapeError):
            rotate_feature(f, make_group(2), 1)
        with pytest.raises(ShapeError):  # not an h x w x t x n array
            rotate_feature(f[0], make_group(4), 1)
