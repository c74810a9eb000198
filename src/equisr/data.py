"""Image file I/O, bicubic resampling, synthetic corpora, and patch sampling.

File formats are binary netpbm: P6 (PPM) for 3-channel and P5 (PGM) for
1-channel images, 8-bit with max value 255.  Reading maps to [0, 1] by /255;
writing rounds half-up and clamps, so images already on the 8-bit lattice
round-trip bit-exactly.

Resampling is separable with the piecewise-cubic kernel; when downscaling,
the kernel is widened by the scale factor (anti-aliasing) and every output
sample's weights are renormalized to unit sum.  Boundary samples clamp to
the edge pixel.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, ParseError, ShapeError
from .filters import phi_bic
from .groups import _is_int, _is_real
from .image import Image, pixel_coords


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic corpus description; generation is pure in (spec, index)."""

    kind: str = "shapes"  # shapes | stripes | smooth-field | file-dir
    count: int = 8
    size: int = 48
    seed: int = 0
    scale_lo: float = 2.0
    scale_hi: float = 4.0
    cutoff: float = 0.25  # smooth-field band limit, fraction of Nyquist
    path: str | None = None  # file-dir only

    def __post_init__(self):
        """Check every field; a message starts with the field's key in a run
        config's data section (scale_lo and scale_hi are its scale_range)."""
        if self.kind not in ("shapes", "stripes", "smooth-field", "file-dir"):
            raise ConfigError(f"kind must be shapes, stripes, smooth-field or file-dir, "
                              f"got {self.kind!r}")
        for name, low in (("count", 1), ("size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        lo, hi = self.scale_lo, self.scale_hi
        if not (_is_real(lo) and _is_real(hi) and 1 <= lo <= hi):
            raise ConfigError(f"scale_range must be finite numbers with 1 <= lo <= hi, "
                              f"got [{lo!r}, {hi!r}]")
        if not _is_real(self.cutoff):
            raise ConfigError(f"cutoff must be a finite number, got {self.cutoff!r}")
        if not (self.path is None or isinstance(self.path, str)):
            raise ConfigError(f"path must be a string or null, got {self.path!r}")
        if self.kind != "file-dir" and self.size % math.ceil(hi) != 0:
            raise ConfigError(f"size {self.size} must be divisible by ceil(scale_range[1])="
                              f"{math.ceil(hi)}")
        if self.kind == "file-dir" and not self.path:
            raise ConfigError("path must name a directory for a file-dir dataset")


# ---------------------------------------------------------------------------
# bicubic resampling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _resize_weights(n_in: int, n_out: int) -> np.ndarray:
    """Dense (n_out, n_in) row-stochastic resampling matrix along one axis."""
    ratio = n_in / n_out
    width = max(ratio, 1.0)
    out = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) * ratio - 0.5
        lo = int(np.floor(src - 2.0 * width)) + 1
        hi = int(np.ceil(src + 2.0 * width)) - 1
        taps = np.arange(lo, hi + 1)
        w = phi_bic((src - taps) / width)
        keep = w != 0.0
        taps, w = taps[keep], w[keep]
        w = w / w.sum()
        np.add.at(out[i], np.clip(taps, 0, n_in - 1), w)  # edge-clamp
    out.setflags(write=False)  # cached; callers use it read-only
    return out


def bicubic_resize(img: Image, out_h: int, out_w: int) -> Image:
    """Separable cubic resampling to out_h x out_w."""
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output sizes must be >= 1, got {out_h}x{out_w}")
    if out_h == img.h and out_w == img.w:
        return Image(img.data.copy())
    data = img.data
    if out_h != img.h:
        data = np.einsum("oi,ijc->ojc", _resize_weights(img.h, out_h), data)
    if out_w != img.w:
        data = np.einsum("oj,ijc->ioc", _resize_weights(img.w, out_w), data)
    return Image(data)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def _draw_shapes(rng: np.random.Generator, size: int) -> np.ndarray:
    """Geometric shapes at random poses, anti-aliased by 4x supersampling."""
    ss = 4
    n = size * ss
    yy, xx = np.mgrid[0:n, 0:n] / n  # in [0, 1)
    canvas = np.tile(rng.uniform(0.0, 0.25, size=3), (n, n, 1))
    for _ in range(rng.integers(3, 7)):
        kind = rng.choice(["circle", "rect", "star"])
        cx, cy = rng.uniform(0.2, 0.8, size=2)
        r = rng.uniform(0.08, 0.25)
        ang = rng.uniform(0, 2 * np.pi)
        color = rng.uniform(0.3, 1.0, size=3)
        dx, dy = xx - cx, yy - cy
        u = np.cos(ang) * dx + np.sin(ang) * dy
        v = -np.sin(ang) * dx + np.cos(ang) * dy
        if kind == "circle":
            mask = u * u + v * v <= r * r
        elif kind == "rect":
            a = rng.uniform(0.4, 1.0) * r
            mask = (np.abs(u) <= r) & (np.abs(v) <= a)
        else:  # star: radius modulated by a 5-lobe cosine
            theta = np.arctan2(v, u)
            rr = r * (0.55 + 0.45 * np.cos(5 * theta))
            mask = u * u + v * v <= rr * rr
        canvas[mask] = color
    small = canvas.reshape(size, ss, size, ss, 3).mean(axis=(1, 3))
    return np.clip(small, 0.0, 1.0)


def _draw_stripes(rng: np.random.Generator, size: int) -> np.ndarray:
    """A few oriented sinusoidal gratings with random color weights."""
    yy, xx = np.mgrid[0:size, 0:size] / size
    acc = np.zeros((size, size, 3))
    for _ in range(rng.integers(2, 5)):
        ang = rng.uniform(0, np.pi)
        freq = rng.uniform(2.0, float(max(3, size // 6)))
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * freq * (np.cos(ang) * xx + np.sin(ang) * yy) + phase)
        acc += wave[:, :, None] * rng.uniform(-1.0, 1.0, size=3)
    lo, hi = acc.min(), acc.max()
    if hi - lo < 1e-12:
        return np.full((size, size, 3), 0.5)
    return (acc - lo) / (hi - lo)


def _draw_smooth_field(rng: np.random.Generator, size: int, cutoff: float) -> np.ndarray:
    """Band-limited Gaussian field: spectrum zeroed above cutoff * Nyquist."""
    f1 = np.fft.fftfreq(size) * size  # cycles over the domain
    radius = np.hypot(f1[:, None], f1[None, :])
    keep = radius <= cutoff * (size / 2.0)
    out = np.empty((size, size, 3))
    for c in range(3):
        spec = np.fft.fft2(rng.standard_normal((size, size)))
        field = np.real(np.fft.ifft2(spec * keep))
        lo, hi = field.min(), field.max()
        out[:, :, c] = (field - lo) / (hi - lo) if hi > lo else 0.5
    return out


def _file_dir_paths(spec: DatasetSpec) -> list[str]:
    """The corpus images of a file-dir spec, sorted by name (ConfigError if none)."""
    names = sorted(f for f in os.listdir(spec.path) if f.endswith((".ppm", ".pgm")))
    if not names:
        raise ConfigError(f"data.path: directory {spec.path!r} holds no .ppm or .pgm image")
    return [os.path.join(spec.path, f) for f in names]


def corpus_images(spec: DatasetSpec) -> Iterator[Image]:
    """Every image of the corpus in index order; a file-dir is listed once."""
    if spec.kind == "file-dir":
        return (read_image(path) for path in _file_dir_paths(spec))
    return (gen_synthetic(spec, i) for i in range(spec.count))


def gen_synthetic(spec: DatasetSpec, index: int) -> Image:
    """Deterministic synthetic image for (spec.seed, index)."""
    paths = _file_dir_paths(spec) if spec.kind == "file-dir" else None
    count = spec.count if paths is None else len(paths)
    if index < 0 or index >= count:
        raise ConfigError(f"index {index} outside dataset of {count}")
    if paths is not None:
        return read_image(paths[index])
    rng = np.random.default_rng((spec.seed, index))
    if spec.kind == "shapes":
        return Image(_draw_shapes(rng, spec.size))
    if spec.kind == "stripes":
        return Image(_draw_stripes(rng, spec.size))
    return Image(_draw_smooth_field(rng, spec.size, spec.cutoff))


# ---------------------------------------------------------------------------
# netpbm I/O
# ---------------------------------------------------------------------------

def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited token, skipping '#' comment lines."""
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ParseError("unexpected end of header", pos)
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace() and buf[pos:pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos


def read_image(path: str) -> Image:
    """Read a binary PPM (P6) or PGM (P5) file into a [0, 1] image."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _read_token(buf, 0)
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise ParseError(f"unsupported magic {magic!r}", 0)
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ParseError(f"non-numeric header field {tok!r}", pos - len(tok))
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ParseError(f"invalid dimensions {w}x{h}", pos)
    if maxval != 255:
        raise ParseError(f"unsupported max value {maxval} (need 255)", pos)
    if pos >= len(buf) or not buf[pos:pos + 1].isspace():
        raise ParseError("missing whitespace after header", pos)
    pos += 1  # exactly one whitespace byte before the payload
    need = w * h * channels
    payload = buf[pos:pos + need]
    if len(payload) < need:
        raise ParseError(
            f"truncated payload: need {need} bytes, have {len(payload)}", pos + len(payload)
        )
    arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64).reshape(h, w, channels)
    return Image(arr / 255.0)


def atomic_write(path: str, payload: bytes) -> None:
    """Write `payload` to a temporary file beside `path`, then rename it over."""
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: str, rows) -> str:
    """CSV text: a `# equisr <version>` line, the header, one comma-joined line per row."""
    lines = [f"# equisr {__version__}", header]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_image(path: str, img: Image) -> None:
    """Write a 1- or 3-channel image as binary PGM/PPM (atomic replace)."""
    if img.c == 3:
        magic = b"P6"
    elif img.c == 1:
        magic = b"P5"
    else:
        raise ShapeError(f"can only write 1- or 3-channel images, got c={img.c}")
    q = np.clip(np.floor(img.data * 255.0 + 0.5), 0, 255).astype(np.uint8)
    header = magic + b"\n%d %d\n255\n" % (img.w, img.h)
    atomic_write(path, header + q.tobytes())


# ---------------------------------------------------------------------------
# patch pair sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchPair:
    lr: Image
    hr: Image
    coords: np.ndarray  # (q, 2) query coordinates in the patch frame
    targets: np.ndarray  # (q, c) ground-truth values


def sample_patch_pairs(spec: DatasetSpec, patch: int, batch: int, seed) -> list[PatchPair]:
    """Draw `batch` (LR, HR, queries) training tuples.

    Per sample: scale s ~ U[scale_lo, scale_hi] of the spec; an HR crop of
    round(patch*s)^2 from a random corpus image; LR = bicubic downscale to
    patch^2; queries are a uniform sample (without replacement) of patch^2
    HR cell centers with their ground-truth values.
    """
    s_lo, s_hi = spec.scale_lo, spec.scale_hi
    paths = _file_dir_paths(spec) if spec.kind == "file-dir" else None
    count = spec.count if paths is None else len(paths)
    max_side = int(np.floor(patch * s_hi + 0.5))
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(batch):
        s = rng.uniform(s_lo, s_hi)
        hs = int(np.floor(patch * s + 0.5))
        i = int(rng.integers(count))
        img = gen_synthetic(spec, i) if paths is None else read_image(paths[i])
        if max_side > img.h or max_side > img.w:
            raise ConfigError(
                f"patch {patch} at scale {s_hi} needs images of side >= {max_side}, "
                f"corpus has {img.h}x{img.w}"
            )
        i0 = int(rng.integers(img.h - hs + 1))
        j0 = int(rng.integers(img.w - hs + 1))
        hr = Image(img.data[i0:i0 + hs, j0:j0 + hs])
        lr = bicubic_resize(hr, patch, patch)
        picks = rng.choice(hs * hs, size=patch * patch, replace=False)
        ii, jj = picks // hs, picks % hs
        pairs.append(PatchPair(lr, hr, pixel_coords(hs)[ii, jj], hr.data[ii, jj]))
    return pairs
