"""Plain and rotation-equivariant mini-EDSR encoders."""

import numpy as np
import pytest

from equisr.encoder import build_encoder, encode
from equisr.groups import element_image_angle, make_group, rotate_feature, rotate_image
from equisr.image import Image
from equisr.inr import ModelConfig


class TestBuild:
    def test_plain_weight_count_matches_hand_count(self):
        cfg = ModelConfig(t=1, blocks=1, n=8, p=3, c_in=3)
        params = build_encoder(cfg, seed=0)
        # head + two block convs + tail, 3x3 kernels
        expected = 3 * 8 * 9 + 2 * (8 * 8 * 9) + 8 * 8 * 9
        assert sum(pf.coeffs.size for pf in params.filters.values()) == expected

    def test_channel_budget_bookkeeping(self):
        eq = build_encoder(ModelConfig(t=4, blocks=1, n=2, p=3), seed=0)
        plain = build_encoder(ModelConfig(t=1, blocks=1, n=8, p=3), seed=0)
        img = Image(np.random.default_rng(0).random((6, 6, 3)))
        f_eq, f_plain = encode(eq, img), encode(plain, img)
        assert f_eq.n * f_eq.t == f_plain.n * f_plain.t == 8

    def test_same_seed_bit_identical(self):
        cfg = ModelConfig(t=4, blocks=2, n=4, p=5)
        a, b = build_encoder(cfg, seed=11), build_encoder(cfg, seed=11)
        for name, pa in a.named_parameters().items():
            assert np.array_equal(pa.data, b.named_parameters()[name].data)

    def test_different_seed_differs(self):
        cfg = ModelConfig(t=2, blocks=1, n=4, p=3)
        a, b = build_encoder(cfg, seed=1), build_encoder(cfg, seed=2)
        assert not np.array_equal(a.filters["head"].coeffs.data,
                                  b.filters["head"].coeffs.data)


class TestEncode:
    def test_zero_image_through_bias_free_encoder(self):
        # a freshly built encoder's biases are zero
        params = build_encoder(ModelConfig(t=4, blocks=2, n=4, p=3), seed=3)
        assert len(params.biases) == len(params.filters)
        assert all(not b.data.any() for b in params.biases.values())
        out = encode(params, Image(np.zeros((8, 8, 3))))
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_output_spatial_size_preserved(self):
        params = build_encoder(ModelConfig(t=2, blocks=1, n=4, p=5), seed=0)
        out = encode(params, Image(np.random.default_rng(1).random((10, 10, 3))))
        assert (out.h, out.w, out.n, out.t) == (10, 10, 4, 2)

    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_equivariant_encoder_exact_p4(self, blocks):
        g = make_group(4)
        cfg = ModelConfig(t=4, blocks=blocks, n=4, p=5)
        params = build_encoder(cfg, seed=blocks)
        img = Image(np.random.default_rng(blocks).random((12, 12, 3)))
        base = encode(params, img)
        for k in range(4):
            rot = rotate_image(img, element_image_angle(g, k))
            lhs = encode(params, rot)
            rhs = rotate_feature(base, g, k)
            denom = np.linalg.norm(rhs.data)
            assert np.linalg.norm(lhs.data - rhs.data) / denom <= 1e-9

    def test_plain_encoder_is_not_equivariant(self):
        params = build_encoder(ModelConfig(t=1, blocks=4, n=32, p=5),
                               seed=5)
        img = Image(np.random.default_rng(5).random((16, 16, 3)))
        base = encode(params, img)
        lhs = encode(params, rotate_image(img, np.pi / 2))
        rhs = rotate_image(Image(base.data[:, :, :, 0]), np.pi / 2)
        err = np.linalg.norm(lhs.data[:, :, :, 0] - rhs.data) / np.linalg.norm(rhs.data)
        assert err >= 0.1
