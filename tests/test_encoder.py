"""Plain and rotation-equivariant mini-EDSR encoders."""

import numpy as np
import pytest

from equisr import diff
from equisr.encoder import encode_t
from equisr.errors import ShapeError
from equisr.groups import element_image_angle, make_group, rotate_feature, rotate_image
from equisr.image import Image
from equisr.inr import ModelConfig, build_model


class TestBuild:
    def test_plain_weight_count_matches_hand_count(self):
        cfg = ModelConfig(t=1, blocks=1, n=8, p=3, c_in=3)
        params = build_model(cfg, seed=0).params
        # head + two block convs + tail, 3x3 kernels
        expected = 3 * 8 * 9 + 2 * (8 * 8 * 9) + 8 * 8 * 9
        assert sum(w.size for name, w in params.items()
                   if name.startswith("enc.") and name.endswith(".w")) == expected

    def test_channel_budget_bookkeeping(self):
        eq = build_model(ModelConfig(t=4, blocks=1, n=2, p=3), seed=0)
        plain = build_model(ModelConfig(t=1, blocks=1, n=8, p=3), seed=0)
        img = diff.constant(np.random.default_rng(0).random((6, 6, 3)))
        f_eq, f_plain = encode_t(eq, img), encode_t(plain, img)
        assert f_eq.shape[2] * f_eq.shape[3] == f_plain.shape[2] * f_plain.shape[3] == 8

    def test_same_seed_bit_identical(self):
        cfg = ModelConfig(t=4, blocks=2, n=4, p=5)
        a, b = build_model(cfg, seed=11).params, build_model(cfg, seed=11).params
        for name, pa in a.items():
            assert np.array_equal(pa.data, b[name].data)

    def test_different_seed_differs(self):
        cfg = ModelConfig(t=2, blocks=1, n=4, p=3)
        a, b = build_model(cfg, seed=1), build_model(cfg, seed=2)
        assert not np.array_equal(a.params["enc.head.w"].data, b.params["enc.head.w"].data)


class TestEncode:
    def test_zero_image_through_bias_free_encoder(self):
        # a freshly built encoder's biases are zero
        model = build_model(ModelConfig(t=4, blocks=2, n=4, p=3), seed=3)
        weights = [k for k in model.params if k.startswith("enc.") and k.endswith(".w")]
        biases = [k for k in model.params if k.startswith("enc.") and k.endswith(".b")]
        assert len(biases) == len(weights)
        assert all(not model.params[k].data.any() for k in biases)
        out = encode_t(model, diff.constant(np.zeros((8, 8, 3)))).data
        assert np.array_equal(out, np.zeros_like(out))

    def test_output_spatial_size_preserved(self):
        model = build_model(ModelConfig(t=2, blocks=1, n=4, p=5), seed=0)
        out = encode_t(model, diff.constant(np.random.default_rng(1).random((10, 10, 3))))
        assert out.shape == (10, 10, 2, 4)

    @pytest.mark.parametrize("c", [1, 4])
    def test_channel_count_checked(self, c):
        model = build_model(ModelConfig(t=2, blocks=1, n=4, p=3), seed=0)
        with pytest.raises(ShapeError, match=f"encoder expects 3 channels, image has {c}"):
            encode_t(model, diff.constant(np.zeros((2, 6, 6, c))))

    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_equivariant_encoder_exact_p4(self, blocks):
        g = make_group(4)
        cfg = ModelConfig(t=4, blocks=blocks, n=4, p=5)
        model = build_model(cfg, seed=blocks)
        img = Image(np.random.default_rng(blocks).random((12, 12, 3)))
        base = encode_t(model, diff.constant(img.data)).data
        for k in range(4):
            rot = rotate_image(img, element_image_angle(g, k))
            lhs = encode_t(model, diff.constant(rot.data)).data
            rhs = rotate_feature(base, g, k)
            denom = np.linalg.norm(rhs)
            assert np.linalg.norm(lhs - rhs) / denom <= 1e-9

    def test_plain_encoder_is_not_equivariant(self):
        model = build_model(ModelConfig(t=1, blocks=4, n=32, p=5), seed=5)
        img = Image(np.random.default_rng(5).random((16, 16, 3)))
        base = encode_t(model, diff.constant(img.data)).data
        lhs = encode_t(model, diff.constant(rotate_image(img, np.pi / 2).data)).data
        rhs = rotate_image(Image(base[:, :, 0]), np.pi / 2)
        err = np.linalg.norm(lhs[:, :, 0] - rhs.data) / np.linalg.norm(rhs.data)
        assert err >= 0.1
