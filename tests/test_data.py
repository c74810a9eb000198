"""Resampling, synthetic corpora, netpbm I/O, and patch sampling."""

import os

import numpy as np
import pytest

from equisr import data
from equisr.data import (
    DatasetSpec,
    bicubic_resize,
    corpus_images,
    gen_synthetic,
    read_image,
    sample_patch_pairs,
    write_image,
)
from equisr.errors import ConfigError, ParseError
from equisr.filters import phi_bic
from equisr.groups import rotate_image
from equisr.image import Image, cell_position, pixel_coords


def _resize_axis_oracle(values, n_out):
    """Direct per-sample weighted summation with the documented convention."""
    n_in = len(values)
    ratio = n_in / n_out
    width = max(ratio, 1.0)
    out = np.zeros(n_out)
    for i in range(n_out):
        src = (i + 0.5) * ratio - 0.5
        taps = np.arange(int(np.floor(src - 2 * width)) - 1, int(np.ceil(src + 2 * width)) + 2)
        w = np.array([phi_bic((src - t) / width) for t in taps])
        w = w / w.sum()
        out[i] = sum(wi * values[min(max(t, 0), n_in - 1)] for wi, t in zip(w, taps))
    return out


class TestBicubicResize:
    def test_identity_sizes_bit_exact(self):
        img = Image(np.random.default_rng(0).random((5, 7, 3)))
        out = bicubic_resize(img, 5, 7)
        assert np.array_equal(out.data, img.data)

    def test_constant_stays_constant(self):
        img = Image(np.full((12, 12, 2), 0.37))
        for sizes in [(5, 5), (24, 24), (7, 13)]:
            out = bicubic_resize(img, *sizes)
            assert np.max(np.abs(out.data - 0.37)) <= 1e-12

    def test_ramp_downscale_matches_direct_summation(self):
        ramp = np.arange(16.0).reshape(4, 4)
        img = Image(ramp[:, :, None])
        out = bicubic_resize(img, 2, 2).data[:, :, 0]
        # separable: resize rows then columns with the scalar oracle
        rows = np.stack([_resize_axis_oracle(ramp[:, j], 2) for j in range(4)], axis=1)
        expected = np.stack([_resize_axis_oracle(rows[i], 2) for i in range(2)], axis=0)
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_commutes_with_quarter_turn(self):
        img = Image(np.random.default_rng(1).random((16, 16, 3)))
        a = bicubic_resize(rotate_image(img, np.pi / 2), 8, 8)
        b = rotate_image(bicubic_resize(img, 8, 8), np.pi / 2)
        assert np.max(np.abs(a.data - b.data)) <= 1e-12

    def test_upscale_then_sample_reasonable(self):
        img = Image(np.random.default_rng(2).random((8, 8, 1)))
        out = bicubic_resize(img, 17, 17)
        assert out.data.shape == (17, 17, 1)
        assert np.all(np.isfinite(out.data))


class TestGenSynthetic:
    @pytest.mark.parametrize("kind", ["shapes", "stripes", "smooth-field"])
    def test_deterministic_and_in_range(self, kind):
        spec = DatasetSpec(kind=kind, count=3, size=24, seed=5, scale_lo=2, scale_hi=4)
        a = gen_synthetic(spec, 1)
        b = gen_synthetic(spec, 1)
        assert np.array_equal(a.data, b.data)
        assert a.data.min() >= 0.0 and a.data.max() <= 1.0
        c = gen_synthetic(spec, 2)
        assert not np.array_equal(a.data, c.data)

    def test_smooth_field_band_limited(self):
        spec = DatasetSpec(kind="smooth-field", count=1, size=64, seed=0,
                           scale_lo=2, scale_hi=4, cutoff=0.25)
        img = gen_synthetic(spec, 0)
        f = np.fft.fftfreq(64) * 64
        radius = np.hypot(f[:, None], f[None, :])
        spec2 = np.abs(np.fft.fft2(img.data[:, :, 0])) ** 2
        spec2[0, 0] = 0.0  # the affine [0,1] normalization moves only DC
        above = spec2[radius > 0.25 * 32 + 1e-9].sum()
        assert above <= 0.01 * spec2.sum()

    def test_size_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            DatasetSpec(kind="shapes", count=1, size=25, scale_lo=2.0, scale_hi=4.0)
        DatasetSpec(size=50, scale_hi=4.5)  # ceil(4.5) = 5 divides 50

    @pytest.mark.parametrize("field", [
        {"count": 2.9}, {"count": True}, {"count": 0}, {"size": 48.7}, {"seed": -3},
        {"scale_hi": "x"}, {"scale_lo": 0.5}, {"cutoff": float("nan")}, {"cutoff": 10 ** 400},
        {"path": 5}, {"kind": "file-dir"},
    ])
    def test_malformed_field_is_config_error(self, field):
        with pytest.raises(ConfigError):
            DatasetSpec(**field)

    def test_index_out_of_range(self):
        spec = DatasetSpec(kind="shapes", count=2, size=16, scale_lo=1, scale_hi=2)
        with pytest.raises(ConfigError):
            gen_synthetic(spec, 5)

    def test_file_dir_lists_the_directory_once_per_image(self, tmp_path, monkeypatch):
        for i in (2, 0, 1):
            write_image(str(tmp_path / f"i{i}.ppm"), Image(np.full((4, 4, 3), i / 4)))
        (tmp_path / "notes.txt").write_text("not an image")
        spec = DatasetSpec(kind="file-dir", path=str(tmp_path), scale_lo=1.0, scale_hi=1.0)
        calls = []
        real = os.listdir

        def listdir(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(os, "listdir", listdir)
        for i in range(3):  # images in sorted file-name order
            img = gen_synthetic(spec, i)
            assert np.array_equal(img.data, read_image(str(tmp_path / f"i{i}.ppm")).data)
            assert calls == [str(tmp_path)] * (i + 1)
        with pytest.raises(ConfigError):
            gen_synthetic(spec, 3)
        assert len(calls) == 4


class TestNetpbm:
    def test_round_trip_lattice_image(self, tmp_path):
        rng = np.random.default_rng(3)
        img = Image(rng.integers(0, 256, size=(9, 7, 3)).astype(np.float64) / 255.0)
        path = str(tmp_path / "x.ppm")
        write_image(path, img)
        back = read_image(path)
        assert np.array_equal(back.data, img.data)

    def test_gray_round_trip(self, tmp_path):
        img = Image((np.arange(12.0).reshape(3, 4, 1) * 20) / 255.0)
        path = str(tmp_path / "x.pgm")
        write_image(path, img)
        back = read_image(path)
        assert back.c == 1
        assert np.array_equal(back.data, img.data)

    def test_minimal_p6_header(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6 2 2 255\n" + bytes(range(12)))
        img = read_image(str(path))
        assert (img.h, img.w, img.c) == (2, 2, 3)
        assert img.data[0, 0, 1] == 1.0 / 255.0

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# more\n255\n" + bytes(6))
        img = read_image(str(path))
        assert (img.h, img.w) == (1, 2)

    def test_half_value_writes_byte_128(self, tmp_path):
        path = tmp_path / "h.pgm"
        write_image(str(path), Image(np.full((1, 1, 1), 0.5)))
        assert path.read_bytes().endswith(bytes([128]))  # round(0.5*255) half-up

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3 2 2 255\n0 0 0")
        with pytest.raises(ParseError) as exc:
            read_image(str(path))
        assert exc.value.offset == 0

    def test_truncated_payload_offset(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6 2 2 255\n" + bytes(5))
        with pytest.raises(ParseError) as exc:
            read_image(str(path))
        assert exc.value.offset == 11 + 5

    def test_bad_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6 2 2 65535\n" + bytes(24))
        with pytest.raises(ParseError):
            read_image(str(path))


class TestPatchSampling:
    def test_scale_one_gives_identical_pair(self):
        spec = DatasetSpec(kind="stripes", count=2, size=24, seed=1,
                           scale_lo=1.0, scale_hi=1.0)
        pairs = sample_patch_pairs(spec, 12, 2, seed=0)
        for p in pairs:
            assert np.array_equal(p.lr.data, p.hr.data)

    def test_deterministic_under_seed(self):
        spec = DatasetSpec(kind="shapes", count=4, size=96, seed=2,
                           scale_lo=2.0, scale_hi=4.0)
        a = sample_patch_pairs(spec, 24, 3, seed=7)
        b = sample_patch_pairs(spec, 24, 3, seed=7)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.lr.data, pb.lr.data)
            assert np.array_equal(pa.coords, pb.coords)
            assert np.array_equal(pa.targets, pb.targets)

    def test_desk_scale_shapes(self):
        spec = DatasetSpec(kind="stripes", count=4, size=96, seed=0,
                           scale_lo=2.0, scale_hi=4.0)
        pairs = sample_patch_pairs(spec, 24, 4, seed=1)
        assert len(pairs) == 4
        for p in pairs:
            assert p.lr.data.shape == (24, 24, 3)
            assert 48 <= p.hr.h <= 96 and p.hr.h == p.hr.w
            assert p.coords.shape == (24 * 24, 2)
            assert p.targets.shape == (24 * 24, 3)
            assert np.abs(p.coords).max() <= 1.0
            # queries index distinct HR cells
            ij = np.round((p.coords + 1.0) / 2.0 * p.hr.h - 0.5).astype(int)
            assert len({(a, b) for a, b in ij}) == 24 * 24

    def test_queries_are_hr_cell_centers(self):
        # pixel_coords is bit for bit the per-query formula sampling used
        # before it shared the image module's coordinates
        for hs in range(1, 97):
            ii, jj = np.divmod(np.arange(hs * hs), hs)
            inline = np.stack([-1.0 + (jj + 0.5) * (2.0 / hs),
                               1.0 - (ii + 0.5) * (2.0 / hs)], axis=1)
            assert np.array_equal(pixel_coords(hs)[ii, jj], inline)
        spec = DatasetSpec(kind="stripes", count=4, size=96, seed=0,
                           scale_lo=2.0, scale_hi=4.0)
        for p in sample_patch_pairs(spec, 24, 4, seed=1):
            ii, jj = np.rint(cell_position(p.coords, p.hr.h, p.hr.h)).astype(np.int64)
            assert np.array_equal(p.coords, pixel_coords(p.hr.h)[ii, jj])
            assert np.array_equal(p.targets, p.hr.data[ii, jj])

    def test_patch_too_large_rejected(self):
        spec = DatasetSpec(kind="stripes", count=1, size=24, seed=0,
                           scale_lo=2.0, scale_hi=4.0)
        with pytest.raises(ConfigError):
            sample_patch_pairs(spec, 20, 1, seed=0)

    def test_file_dir_dataset(self, tmp_path):
        rng = np.random.default_rng(4)
        for i in range(2):
            write_image(str(tmp_path / f"i{i}.ppm"),
                        Image(rng.integers(0, 256, (8, 8, 3)) / 255.0))
        spec = DatasetSpec(kind="file-dir", path=str(tmp_path),
                           scale_lo=1.0, scale_hi=1.0)
        assert len(list(corpus_images(spec))) == 2
        img = gen_synthetic(spec, 0)
        assert (img.h, img.w, img.c) == (8, 8, 3)

    def test_file_dir_sampling_lists_once_and_reads_images_by_index(self, tmp_path,
                                                                    monkeypatch):
        # images of whole 1/255 steps read back bit-exactly
        rng = np.random.default_rng(8)
        imgs = [Image(rng.integers(0, 256, (30, 30, 3)) / 255.0) for _ in range(3)]
        for i, img in enumerate(imgs):
            write_image(str(tmp_path / f"i{i}.ppm"), img)
        spec = DatasetSpec(kind="file-dir", path=str(tmp_path), scale_lo=1.5, scale_hi=2.5)
        calls = []
        real = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: calls.append(path) or real(path))
        pairs = sample_patch_pairs(spec, 12, 8, seed=3)
        assert calls == [str(tmp_path)]
        # the same draws against an in-memory corpus of those images, in name order
        monkeypatch.setattr(data, "gen_synthetic", lambda _spec, i: imgs[i])
        stand_in = DatasetSpec(kind="stripes", count=3, scale_lo=1.5, scale_hi=2.5)
        for got, want in zip(pairs, sample_patch_pairs(stand_in, 12, 8, seed=3), strict=True):
            assert np.array_equal(got.hr.data, want.hr.data)
            assert np.array_equal(got.lr.data, want.lr.data)
            assert np.array_equal(got.coords, want.coords)
            assert np.array_equal(got.targets, want.targets)
