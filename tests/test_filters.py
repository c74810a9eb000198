"""Bicubic filter parametrization and equivariant convolution layers."""

import numpy as np
import pytest

from equisr import diff
from equisr.errors import GroupError, MatrixError, ShapeError
from equisr.filters import (
    coeff_disk_mask,
    group_conv_t,
    group_kernel,
    lifting_kernel,
    phi_bic,
    resample_matrix,
    synthesize_kernel,
    _design_matrix,
    _grid_nodes,
)
from equisr.groups import (
    element_image_angle,
    make_group,
    rotate_feature,
    rotate_image,
)
from equisr.image import Image, disk_mask


def _masked(grids):
    """A filter's coefficient Tensor: the grids [c_out, g_in, c_in, p, p]
    masked to the filter disk."""
    grids = np.asarray(grids, dtype=np.float64)
    return diff.parameter(grids * coeff_disk_mask(grids.shape[-1]))


def _he_filter(c_out, g_in, c_in, p, rng):
    """He-uniform coefficient grids drawn from `rng`, masked to the filter disk."""
    bound = np.sqrt(6.0 / (g_in * c_in * p * p))
    return _masked(rng.uniform(-bound, bound, size=(c_out, g_in, c_in, p, p)))


def _rot_matrix(theta):
    # same orientation convention as the group matrices
    return np.array([[np.cos(theta), np.sin(theta)],
                     [-np.sin(theta), np.cos(theta)]])


class TestPhiBic:
    def test_center(self):
        assert phi_bic(0.0) == 1.0

    def test_branch_boundaries(self):
        assert phi_bic(1.0) == 0.0
        assert phi_bic(2.0) == 0.0
        assert phi_bic(2.5) == 0.0

    def test_half(self):
        # 1.5 * 0.125 - 2.5 * 0.25 + 1
        assert abs(phi_bic(0.5) - 0.5625) <= 1e-15

    def test_even(self):
        y = np.linspace(-2.5, 2.5, 41)
        assert np.array_equal(phi_bic(y), phi_bic(-y))


class TestBasisAndSynthesis:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_interpolation_property(self, p):
        M = _design_matrix(p, _grid_nodes(p))
        assert np.max(np.abs(M - np.eye(p * p))) <= 1e-14

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_identity_reproduces_coeffs(self, p):
        rng = np.random.default_rng(0)
        pf = _he_filter(2, 1, 3, p, rng)
        kern = synthesize_kernel(pf, np.eye(2))
        assert np.max(np.abs(kern.data - pf.data)) <= 1e-12

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_quarter_turn_is_permutation(self, p):
        rng = np.random.default_rng(1)
        pf = _he_filter(1, 1, 1, p, rng)
        g = make_group(4)
        kern = synthesize_kernel(pf, g.matrices[1]).data[0, 0, 0]
        # element 1 acts clockwise on the plane, i.e. rot90(-1) on the grid
        assert np.max(np.abs(kern - np.rot90(pf.data[0, 0, 0], -1))) <= 1e-12

    def test_45deg_center_spike_is_cardinal_function(self):
        p = 5
        data = np.zeros((1, 1, 1, p, p))
        data[0, 0, 0, p // 2, p // 2] = 1.0
        pf = _masked(data)
        A = _rot_matrix(np.pi / 4)
        kern = synthesize_kernel(pf, A).data[0, 0, 0]
        # direct evaluation: the center basis function at rotated grid nodes
        nodes = _grid_nodes(p) @ A
        expected = (phi_bic(nodes[:, 0]) * phi_bic(nodes[:, 1])).reshape(p, p)
        expected *= coeff_disk_mask(p)
        assert np.max(np.abs(kern - expected)) <= 1e-14

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 1, 1, 5, 5))
        b = rng.standard_normal((2, 1, 1, 5, 5))
        A = _rot_matrix(0.3)
        k_sum = synthesize_kernel(_masked(a + 2.0 * b), A).data
        k_a = synthesize_kernel(_masked(a), A).data
        k_b = synthesize_kernel(_masked(b), A).data
        assert np.max(np.abs(k_sum - (k_a + 2.0 * k_b))) <= 1e-13

    def test_non_orthogonal_matrix_rejected(self):
        pf = _he_filter(1, 1, 1, 3, np.random.default_rng(3))
        with pytest.raises(MatrixError):
            synthesize_kernel(pf, np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(1, 1, 1, 4, 4), (1, 1, 3, 3), (1, 1, 1, 3, 5)])
    def test_coefficient_shape_checked(self, shape):
        coeffs = diff.parameter(np.zeros(shape))
        with pytest.raises(ShapeError, match="must be \\[c_out, g_in, c_in, p, p\\] with p odd"):
            synthesize_kernel(coeffs, np.eye(2))
        with pytest.raises(ShapeError, match="with p odd"):
            lifting_kernel(coeffs, make_group(4))

    def test_disk_mask_only_trims_corners_at_p7(self):
        assert coeff_disk_mask(3).all()
        assert coeff_disk_mask(5).all()
        m7 = coeff_disk_mask(7)
        assert m7.sum() == 49 - 4
        assert not m7[0, 0] and not m7[6, 6] and not m7[0, 6] and not m7[6, 0]


def _resample_ref(coeffs, p, M):
    """Resample the trailing (p, p) grids of `coeffs` by one matrix."""
    lead = coeffs.shape[:-2]
    flat = diff.reshape(coeffs, (int(np.prod(lead)), p * p))
    return diff.reshape(diff.matmul(flat, diff.constant(M.T)), lead + (p, p))


def _lifting_kernel_ref(f, group):
    """Per-slot reference: one resample per rotation, concatenated."""
    c_out, _, c_in, p, _ = f.shape
    blocks = []
    for k in range(group.t):
        kern = _resample_ref(f, p, resample_matrix(p, group.matrices[k % group.t]))
        blocks.append(diff.reshape(kern, (c_out, c_in, p, p)))
    return diff.concat(blocks, axis=0)


def _group_kernel_ref(f, group):
    """Per-slot reference: output slot a gathers slots (b - a) mod t, rotates by A_a."""
    t = group.t
    c_out, _, c_in, p, _ = f.shape
    blocks = []
    for a in range(t):
        perm = np.array([(b - a) % t for b in range(t)], dtype=np.int64)
        by_slot = diff.transpose(f, (1, 0, 2, 3, 4))  # its own inverse
        ga = diff.transpose(diff.gather(by_slot, perm), (1, 0, 2, 3, 4))
        kern = _resample_ref(ga, p, resample_matrix(p, group.matrices[a % group.t]))
        blocks.append(diff.reshape(kern, (c_out, t * c_in, p, p)))
    return diff.concat(blocks, axis=0)


class TestKernelAssembly:
    """The one-product, one-gather kernels against the per-slot loops."""

    @pytest.mark.parametrize("t", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("p", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["lifting", "group"])
    def test_matches_per_slot_loops(self, t, p, kind):
        g = make_group(t)
        build, ref = ((lifting_kernel, _lifting_kernel_ref) if kind == "lifting"
                      else (group_kernel, _group_kernel_ref))
        rng = np.random.default_rng(t * 100 + p)
        f = _he_filter(3, 1 if kind == "lifting" else t, 2, p, rng)
        weights = rng.standard_normal(ref(f, g).shape)
        kernels, grads = [], []
        for fn in (build, ref):
            with diff.Tape() as tape:
                kern = fn(f, g)
                loss = diff.reduce_sum(diff.mul(kern, diff.constant(weights)))
            kernels.append(kern.data)
            grads.append(diff.backward(tape, loss)[f].data)
        assert np.array_equal(kernels[0], kernels[1])
        # the product sums the t rotations' gradients in one BLAS call
        assert np.max(np.abs(grads[0] - grads[1])) <= 1e-13 * np.max(np.abs(grads[1]))

    def test_synthesize_matches_single_resample(self):
        rng = np.random.default_rng(9)
        f = _he_filter(2, 3, 2, 5, rng)
        A = _rot_matrix(0.7)
        expected = _resample_ref(f, 5, resample_matrix(5, A)).data
        assert np.array_equal(synthesize_kernel(f, A).data, expected)


def _naive_conv_same(img, kern):
    """Direct correlation with zero padding; kern is (c_in, p, p)."""
    h, w = img.shape[:2]
    p = kern.shape[-1]
    pad = p // 2
    xp = np.pad(img, ((pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            patch = xp[i:i + p, j:j + p, :]
            out[i, j] = np.sum(patch * np.moveaxis(kern, 0, -1))
    return out


class TestLiftingConv:
    def test_t1_is_ordinary_convolution(self):
        rng = np.random.default_rng(4)
        g = make_group(1)
        pf = _he_filter(1, 1, 2, 3, rng)
        img = rng.random((6, 6, 2))
        out = group_conv_t(diff.constant(img[:, :, None]), pf, g).data
        assert out.shape[2] == 1
        expected = _naive_conv_same(img, pf.data[0, 0])
        assert np.max(np.abs(out[:, :, 0, 0] - expected)) <= 1e-12

    def test_symmetric_coeffs_give_identical_slots(self):
        g = make_group(4)
        pf = _masked(np.full((1, 1, 1, 5, 5), 0.2))
        img = np.random.default_rng(5).random((8, 8, 1, 1))
        out = group_conv_t(diff.constant(img), pf, g).data
        for k in range(1, 4):
            assert np.array_equal(out[:, :, 0], out[:, :, k])

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_p4_equivariance_ten_seeds(self, t):
        g = make_group(t)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pf = _he_filter(2, 1, 3, 5, rng)
            img = Image(rng.random((9, 9, 3)))
            base = group_conv_t(diff.constant(img.data[:, :, None]), pf, g).data
            for k in range(t):
                rot_img = rotate_image(img, element_image_angle(g, k))
                lhs = group_conv_t(diff.constant(rot_img.data[:, :, None]), pf, g).data
                rhs = rotate_feature(base, g, k)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_channel_mismatch_raises(self):
        g = make_group(4)
        pf = _he_filter(2, 1, 3, 3, np.random.default_rng(6))
        with pytest.raises(ShapeError):
            group_conv_t(diff.constant(np.zeros((5, 5, 1, 2))), pf, g)


class TestGroupConv:
    def test_pointwise_t2_hand_example(self):
        # one pixel, two slots, scalar channels: out(A) = sum_B W^{A^-1 B} H(B)
        g = make_group(2)
        w0, w1 = 2.0, 3.0
        h0, h1 = 5.0, 7.0
        coeffs = np.array(
            [[[[[w0]]], [[[w1]]]]]
        )  # (c_out=1, g_in=2, c_in=1, 1, 1)
        pf = _masked(coeffs)
        x = np.zeros((1, 1, 2, 1))
        x[0, 0, 0, 0], x[0, 0, 1, 0] = h0, h1
        out = group_conv_t(diff.constant(x), pf, g).data[0, 0, :, 0]
        # slot 0: W^0 h0 + W^1 h1; slot 1: W^1 h0 + W^0 h1
        assert np.allclose(out, [w0 * h0 + w1 * h1, w1 * h0 + w0 * h1], atol=1e-15)

    def test_identity_filter_is_identity(self):
        g = make_group(4)
        p = 3
        coeffs = np.zeros((2, 4, 2, p, p))
        for c in range(2):
            coeffs[c, 0, c, p // 2, p // 2] = 1.0  # one-hot center, group index 0
        pf = _masked(coeffs)
        rng = np.random.default_rng(7)
        f = rng.random((6, 6, 4, 2))
        out = group_conv_t(diff.constant(f), pf, g).data
        assert np.max(np.abs(out - f)) <= 1e-12

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_p4_equivariance_ten_seeds(self, t):
        g = make_group(t)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            pf = _he_filter(3, t, 2, 5, rng)
            f = rng.random((8, 8, t, 2))
            base = group_conv_t(diff.constant(f), pf, g).data
            for k in range(t):
                lhs = group_conv_t(diff.constant(rotate_feature(f, g, k)), pf, g).data
                rhs = rotate_feature(base, g, k)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @pytest.mark.parametrize("batched", [False, True])
    def test_bias_in_place_matches_taped_add_bit_for_bit(self, batched):
        # untaped, the bias goes into conv2d's output in place; under a tape
        # it is a recorded add with a gradient
        rng = np.random.default_rng(9)
        g = make_group(4)
        pf = _he_filter(3, 4, 2, 3, rng)
        x = diff.constant(rng.standard_normal((2, 6, 5, 4, 2) if batched else (6, 5, 4, 2)))
        bias = diff.parameter(rng.standard_normal(3))
        got = group_conv_t(x, pf, g, bias=bias)
        with diff.Tape() as tape:
            expected = group_conv_t(x, pf, g, bias=bias)
            loss = diff.reduce_sum(expected)
        assert np.array_equal(got.data, expected.data)
        assert np.array_equal(diff.backward(tape, loss)[bias].data,
                              np.full(3, expected.size // 3, dtype=float))

    def test_group_order_mismatch_raises(self):
        pf = _he_filter(2, 2, 2, 3, np.random.default_rng(8))
        f = diff.constant(np.zeros((4, 4, 4, 2)))
        with pytest.raises(GroupError):
            group_conv_t(f, pf, make_group(4))


def _band_limited(rng, h, cycles=5.0):
    f1 = np.fft.fftfreq(h) * h
    keep = np.hypot(f1[:, None], f1[None, :]) <= cycles
    spec = np.fft.fft2(rng.standard_normal((h, h)))
    x = np.real(np.fft.ifft2(spec * keep))
    return (x - x.min()) / (x.max() - x.min())


def test_p8_layer_equivariance_improves_with_resolution():
    """One lifting layer at t=8 under a 45-degree input rotation: the masked
    NMSE error falls as the sampling grid refines (the O(mesh) behavior)."""
    t = 8
    g = make_group(t)
    k45 = 7  # element with image action +45 degrees (angle -2*pi*7/8 = +pi/4 mod 2*pi)
    assert abs(element_image_angle(g, k45) % (2 * np.pi) - np.pi / 4) < 1e-12
    medians = []
    for h in (16, 32, 64):
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pf = _he_filter(2, 1, 1, 5, rng)
            img = Image(_band_limited(rng, h, cycles=4.0)[:, :, None])
            base = group_conv_t(diff.constant(img.data[:, :, None]), pf, g).data
            rot = rotate_image(img, np.pi / 4).data
            lhs = group_conv_t(diff.constant(rot[:, :, None]), pf, g).data
            rhs = rotate_feature(base, g, k45)
            mask = disk_mask(h, margin_cells=3.0)
            diff_ = (lhs - rhs)[mask]
            ref = rhs[mask]
            errs.append(np.linalg.norm(diff_) / np.linalg.norm(ref))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2], medians
