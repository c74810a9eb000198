"""Rotation-equivariant implicit neural representation layers and models.

The INR maps one latent code F plus a local coordinate to a pixel value.
F is one pixel of an (h, w, t, n) feature array, a (t, n) matrix whose row
F^A belongs to group slot A (the paper writes its n x t transpose).  Three
layer types, each run on Q queries stacked along a leading axis:

* input layer:   H(x, B) = sum_A phi(W_in^{B^{-1}A}, F^A, A^{-1} x)
  (_input_stage);
* intermediate:  H'(x, A) = sum_B W^{A^{-1}B} . H(x, B)  (_cyclic_layer);
* output layer:  f(x) = psi(sum_A W_out1 . H(x, A))  (_output_head).

_eval_local_batch chains them; SR and training evaluate nothing else.

Cyclic weight sharing (indices B^{-1}A resp. A^{-1}B) makes every layer
commute with "cyclically shift the group axis, rotate the coordinate", so a
cyclic shift of F produces exactly the rotated local function.

Three phi variants are provided:

* liif: phi(W, F, x) = W . [F; x]           (MLP-style INR)
* ope:  phi(W, F, x) = F^T . P(x)           (parameter-free Fourier INR)
* lte:  phi(W, (Fa, Ff), x) = Fa (*) [cos(pi Ff x); sin(pi Ff x)]

where P is the orthonormal 2-D Fourier basis on [-1, 1]^2 and the LTE
amplitude/frequency pair comes from two pointwise equivariant heads on the
encoder output.  The non-equivariant baselines are the same code paths with
t = 1.  ope's input sum is linear in F, so for groups of signed permutation
matrices (t in {1, 2, 4}) its latent head emits the sum itself, one slot
per pixel (see compute_latents).

Local coordinates are offsets from the chosen latent's pixel center rescaled
so one LR cell spans [-1, 1].  The global function evaluates, per query, the
2x2 latents around it (see _corners): the area-weighted blend of all four
("ensemble" mode, with stabilizer eps added to the absolute offsets that form
the areas) or the nearest one, ties shared equally ("nearest" mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diff, filters, parallel
from .diff import Tensor
from .encoder import encode_t
from .errors import ConfigError, DomainError, ShapeError
from .filters import coeff_disk_mask, group_conv_t, slot_conv
from .groups import RotationGroup, _is_int, _is_real, make_group
from .image import Image, cell_position, pixel_coords
from .parallel import _CHUNK_BYTES

# Largest output super_resolve accepts, in pixels (4096 x 4096).  Past the
# chunk budget, SR memory grows with the output: its coordinates and pixel
# values, about 64 bytes per output pixel (1.1 GB at the limit).
MAX_OUTPUT_PIXELS = 1 << 24

# Most parameters a ModelConfig may describe, in floats (1 GiB of float64);
# Adam's moments and the gradients each hold as much again while training.
MAX_PARAMETERS = 1 << 27

# Local evaluations per query the chunk budget plans for, per mode.
_EVALS = {"ensemble": 4, "nearest": 1}

# Distance in LR cells from the midpoint of two latents within which nearest
# mode counts them as tied.
_TIE = 1e-9


def lift_coordinate(x: np.ndarray, group: RotationGroup) -> np.ndarray:
    """Rotate 2-vectors x (..., 2) by every inverse group element.

    Returns (..., t, 2) with entry [..., k, :] = A_k^{-1} x.
    """
    x = np.asarray(x, dtype=np.float64)
    # A^{-1} = A^T for rotation matrices, so (A^{-1} x)^T = x^T A: one
    # product with the side-by-side matrices [A_0 | A_1 | ...]
    side_by_side = np.concatenate(group.matrices, axis=1)
    return (x @ side_by_side).reshape(x.shape[:-1] + (group.t, 2))


# ---------------------------------------------------------------------------
# configuration and parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    """Full model description: encoder trunk plus INR head."""

    variant: str = "liif"  # liif | ope | lte
    t: int = 4
    blocks: int = 4
    n: int = 8  # encoder channels per group slot
    p: int = 5
    c_in: int = 3
    L: int = 0  # intermediate INR layers (liif only)
    width: int = 32  # H-value width m
    psi_widths: tuple[int, ...] = (64,)
    k_max: int = 3  # ope maximum frequency
    K: int = 16  # lte frequency count
    eps: float = 1e-7  # local-ensemble stabilizer
    mode: str = "ensemble"  # ensemble | nearest

    def __post_init__(self):
        if self.variant not in ("liif", "ope", "lte"):
            raise ConfigError(f"unknown INR variant {self.variant!r}")
        if self.mode not in ("ensemble", "nearest"):
            raise ConfigError(f"unknown evaluation mode {self.mode!r}")
        for name, low in (("t", 1), ("blocks", 1), ("n", 1), ("p", 1), ("c_in", 1),
                          ("L", 0), ("width", 1), ("k_max", 0), ("K", 1)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.p % 2 == 0:
            raise ConfigError(f"filter size p must be odd, got {self.p}")
        if not (isinstance(self.psi_widths, tuple)
                and all(_is_int(m) and m >= 1 for m in self.psi_widths)):
            raise ConfigError(f"psi_widths must be integers >= 1, got {self.psi_widths!r}")
        if not (_is_real(self.eps) and self.eps >= 0):
            raise ConfigError(f"eps must be finite and non-negative, got {self.eps!r}")
        if self.variant in ("ope", "lte") and self.L != 0:
            raise ConfigError(f"{self.variant} uses no intermediate layers (L = 0)")
        count = parameter_count(self)
        if count > MAX_PARAMETERS:
            raise ConfigError(f"the model would hold {count} parameters, more than the "
                              f"limit of {MAX_PARAMETERS} (1 GiB of float64)")


def ope_basis(x: np.ndarray, k_max: int) -> np.ndarray:
    """Orthonormal 2-D Fourier basis values P(x) for queries x (Q, 2).

    Per axis the family is [1, sqrt(2) cos(j pi u), sqrt(2) sin(j pi u)] for
    j = 1..k_max; the 2-D basis is the tensor product, ordered x1-major
    (index = alpha * (2 k_max + 1) + beta with the per-axis order above).
    The family is orthonormal w.r.t. the normalized measure on [-1, 1]^2.
    """
    x = np.asarray(x, dtype=np.float64)
    q = x.shape[0]
    d = 2 * k_max + 1

    def axis_values(u):
        vals = np.empty((q, d))
        vals[:, 0] = 1.0
        for j in range(1, k_max + 1):
            vals[:, 2 * j - 1] = np.sqrt(2.0) * np.cos(j * np.pi * u)
            vals[:, 2 * j] = np.sqrt(2.0) * np.sin(j * np.pi * u)
        return vals

    return (axis_values(x[:, 0])[:, :, None] * axis_values(x[:, 1])[:, None, :]).reshape(q, d * d)


def _ope_rotations(group: RotationGroup, k_max: int) -> np.ndarray | None:
    """Signed permutations R (t, kb, kb) with ope_basis(A_a^{-1} x) = R[a]
    ope_basis(x) exactly, or None unless every group matrix is a signed
    permutation (t in {1, 2, 4}), the one test of whether ope folds its slots.

    Then (A_a^{-1} x)_d = sign_d x_{axis_d}: under u -> -u an axis factor
    keeps its constant and cosines and flips its sines, and a swap of the
    axes transposes the tensor product.
    """
    inv = np.transpose(group.matrices, (0, 2, 1))  # A^{-1} = A^T
    size = np.abs(inv)
    if not (np.all(np.isin(inv, (-1.0, 0.0, 1.0)))
            and np.all(size.sum(axis=1) == 1) and np.all(size.sum(axis=2) == 1)):
        return None
    d = 2 * k_max + 1
    sine = (np.arange(d) > 0) & (np.arange(d) % 2 == 0)
    j0, j1 = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")  # entry j0 d + j1
    R = np.zeros((group.t, d * d, d * d))
    for a in range(group.t):
        axis = np.argmax(size[a], axis=1)
        sign = inv[a, [0, 1], axis]
        src = j0 * d + j1 if axis[0] == 0 else j1 * d + j0
        flips = np.where(sine[j0], sign[0], 1.0) * np.where(sine[j1], sign[1], 1.0)
        R[a, (j0 * d + j1).ravel(), src.ravel()] = flips.ravel()
    return R


def _layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, He fan-in) of every parameter of model `cfg`, in draw order.

    A fan-in of 0 marks a zero bias, and a 5-D shape a filter's coefficient
    grids [c_out, g_in, c_in, p, p].  "enc." names are the encoder's
    convolutions; "inr." names are the INR's weights: liif's W_in (t, m,
    n+2), mid<i> (t, m, m) and W_out1 (m, m), ope's latent head, lte's two
    latent heads and W_out1 (m, 2K), and the psi layers (W (out, in), b).
    """
    t, n, m, c, two_k = cfg.t, cfg.n, cfg.width, cfg.c_in, 2 * cfg.K
    out = []

    def conv(name: str, c_out: int, g_in: int, c_in: int, p: int):
        out.append((f"{name}.w", (c_out, g_in, c_in, p, p), g_in * c_in * p * p))
        out.append((f"{name}.b", (c_out,), 0))

    conv("enc.head", n, 1, c, cfg.p)
    for b in range(cfg.blocks):
        conv(f"enc.block{b}.conv0", n, t, n, cfg.p)
        conv(f"enc.block{b}.conv1", n, t, n, cfg.p)
    conv("enc.tail", n, t, n, cfg.p)
    if cfg.variant == "ope":
        conv("inr.ope_head", c * (2 * cfg.k_max + 1) ** 2, t, n, 1)
        return out
    if cfg.variant == "liif":
        out.append(("inr.W_in", (t, m, n + 2), t * (n + 2)))
        out.extend((f"inr.mid{i}", (t, m, m), t * m) for i in range(cfg.L))
        out.append(("inr.W_out1", (m, m), t * m))
    else:  # lte
        conv("inr.amp_head", two_k, t, n, 1)
        conv("inr.freq_head", two_k, t, n, 1)
        out.append(("inr.W_out1", (m, two_k), t * two_k))
    widths = [m, *cfg.psi_widths, c]
    for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
        out.append((f"inr.psi{i}.w", (w_out, w_in), w_in))
        out.append((f"inr.psi{i}.b", (w_out,), 0))
    return out


def _draw(cfg: ModelConfig, prefix: str, rng: np.random.Generator) -> dict[str, Tensor]:
    """The parameters of model `cfg` whose names start with `prefix`, drawn in
    layout order: He-uniform weights (filters masked to their disk) and zero
    biases."""
    params = {}
    for name, shape, fan_in in _layout(cfg):
        if not name.startswith(prefix):
            continue
        if not fan_in:
            data = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / fan_in)
            data = rng.uniform(-bound, bound, size=shape)
            if len(shape) == 5:
                data *= coeff_disk_mask(shape[-1])
        params[name] = diff.parameter(data)
    return params


@dataclass
class INRModel:
    """A model: its config, its rotation group, and its parameter table,
    keyed by the names checkpoints record (see _layout)."""

    cfg: ModelConfig
    group: RotationGroup
    params: dict[str, Tensor]

    def named_parameters(self) -> dict[str, Tensor]:
        return self.params


def build_model(cfg: ModelConfig, seed: int = 0) -> INRModel:
    """Build a model with seeded He-uniform initialization (bit reproducible):
    the encoder draws from default_rng(seed), the INR from default_rng((seed, 1))."""
    params = _draw(cfg, "enc.", np.random.default_rng(seed))
    params.update(_draw(cfg, "inr.", np.random.default_rng((seed, 1))))
    return INRModel(cfg, make_group(cfg.t), params)


def parameter_count(cfg: ModelConfig) -> int:
    """Number of floats in the parameters of build_model(cfg), without building it.

    A closed form, not a sum over _layout, whose list grows with blocks and L:
    ModelConfig calls it to refuse a huge config at once."""
    t, n, p2, m, c, two_k = cfg.t, cfg.n, cfg.p ** 2, cfg.width, cfg.c_in, 2 * cfg.K
    # encoder: head, two convolutions per block and tail, each with n biases
    count = n * c * p2 + (2 * cfg.blocks + 1) * t * n * n * p2 + (2 * cfg.blocks + 2) * n
    if cfg.variant == "ope":
        return count + c * (2 * cfg.k_max + 1) ** 2 * (t * n + 1)
    widths = [m, *cfg.psi_widths, c]
    count += sum((a + 1) * b for a, b in zip(widths[:-1], widths[1:]))  # psi
    if cfg.variant == "liif":
        return count + t * m * (n + 2) + cfg.L * t * m * m + m * m
    return count + 2 * two_k * (t * n + 1) + m * two_k  # lte


# ---------------------------------------------------------------------------
# latent production
# ---------------------------------------------------------------------------

def compute_latents(model: INRModel, feat: Tensor) -> tuple[Tensor, ...]:
    """Turn encoder features ([B,] h, w, t, n) into the variant's latent codes.

    The codes are a tuple of ([B,] h, w, s, c) tensors of s slots: (feat,)
    for liif, (coeffs,) for ope and (amp, freq) for lte.  With the leading
    axis they hold the latents of B items; without it, of one.  s is t,
    except for ope when every group matrix is a signed permutation: then
    ope's code is its one-slot group sum (see _folded_ope_code).
    """
    if model.cfg.variant == "liif":
        return (feat,)
    if model.cfg.variant == "ope":
        rotations = _ope_rotations(model.group, model.cfg.k_max)
        if rotations is not None:
            return (_folded_ope_code(model, feat, rotations),)
    heads = ("ope_head",) if model.cfg.variant == "ope" else ("amp_head", "freq_head")
    params = model.params
    return tuple(group_conv_t(feat, params[f"inr.{h}.w"], model.group, bias=params[f"inr.{h}.b"])
                 for h in heads)


def _folded_ope_code(model: INRModel, feat: Tensor, R: np.ndarray) -> Tensor:
    """ope's code G = sum_a F^a R[a] ([B,] h, w, 1, c kb), for which G P(x) =
    sum_a F^a P(A_a^{-1} x): one 1x1 convolution by the head kernel folded
    over its t output slots, W = sum_a K_a R[a], with bias b sum_a R[a]."""
    cfg = model.cfg
    t, c, kb = cfg.t, cfg.c_in, R.shape[1]
    kernel = filters.group_kernel(model.params["inr.ope_head.w"], model.group)
    kernel = diff.einsum("akl,ackj->clj", diff.constant(R),
                         diff.reshape(kernel, (t, c, kb, t * cfg.n)))
    bias = diff.reshape(model.params["inr.ope_head.b"], (c, kb))
    bias = diff.matmul(bias, diff.constant(R.sum(axis=0)))
    return slot_conv(feat, diff.reshape(kernel, (c * kb, t * cfg.n, 1, 1)), 1,
                     diff.reshape(bias, (c * kb,)))


def _gather_latents(lats: tuple[Tensor, ...], flat_idx: np.ndarray) -> tuple[Tensor, ...]:
    """The (Q, s, c) latent codes at flat indices into the ([B *] h * w) pixel table."""
    return tuple(diff.gather(diff.reshape(x, (-1,) + x.shape[-2:]), flat_idx)
                 for x in lats)


# ---------------------------------------------------------------------------
# batched layer cores (queries stacked along the leading axis)
# ---------------------------------------------------------------------------

def _cyclic_layer(u: Tensor, blocks: Tensor) -> Tensor:
    """out[:, b] = sum_a blocks[(a - b) % t] . u[:, a]: (Q, t, in) -> (Q, t, out).

    The cyclic weight tying is one gather of the (t, out, in) blocks by the
    (a - b) % t table, laid out as one (t in, t out) matrix, and the layer is
    one product with it.  BLAS splits a product over rows and columns only,
    so its bits do not depend on the BLAS thread count (np.einsum's did).
    """
    q, t, n_in = u.shape
    n_out = blocks.shape[1]
    slots = np.arange(t)
    table = (slots[:, None] - slots[None, :]) % t  # [a, b]
    tied = diff.reshape(diff.gather(blocks, table.ravel()), (t, t, n_out, n_in))
    tied = diff.reshape(diff.transpose(tied, (0, 3, 1, 2)), (t * n_in, t * n_out))
    out = diff.matmul(diff.reshape(u, (q, t * n_in)), tied)
    return diff.reshape(out, (q, t, n_out))


def _input_layer_liif(model: INRModel, F_q: Tensor, X: np.ndarray) -> Tensor:
    """H(x, B) = sum_A W_in^{B^{-1}A} . [F^A; A^{-1}x]  ->  (Q, t, m)."""
    xrot = diff.constant(lift_coordinate(X, model.group))  # (Q, t, 2)
    return _cyclic_layer(diff.concat([F_q, xrot], axis=2), model.params["inr.W_in"])


def _input_sum_ope(model: INRModel, coeffs: Tensor, X: np.ndarray) -> Tensor:
    """sum_A (F^A)^T P(A^{-1} x) of t-slot codes, or G^T P(x) of folded
    one-slot codes (see compute_latents); H(x, B) is this value for every B."""
    cfg = model.cfg
    q, s, kb = X.shape[0], coeffs.shape[1], (2 * cfg.k_max + 1) ** 2
    x = lift_coordinate(X, model.group) if s == cfg.t else X
    basis = ope_basis(x.reshape(q * s, 2), cfg.k_max)
    coeffs = diff.reshape(coeffs, (q, s, cfg.c_in, kb))
    return diff.einsum("qtck,qtk->qc", coeffs, diff.constant(basis.reshape(q, s, kb)))


def _input_sum_lte(model: INRModel, amp: Tensor, freq: Tensor, X: np.ndarray,
                   waves32: bool = False) -> Tensor:
    """sum_A Fa^A (*) [cos(pi Ff^A A^{-1}x); sin(pi Ff^A A^{-1}x)] -> (Q, 2K).

    With waves32 (untaped inference only) the float64 angles are reduced to
    [-pi, pi] as a - 2 pi rint(a / 2 pi), and float32 cos and sin of that
    float32 value fill one (Q, t, 2K) float64 buffer for the amplitude sum.
    """
    cfg = model.cfg
    q, t = X.shape[0], cfg.t
    xrot = diff.constant(np.pi * lift_coordinate(X, model.group))  # (Q, t, 2)
    ang = diff.einsum("qtkd,qtd->qtk", diff.reshape(freq, (q, t, cfg.K, 2)), xrot)
    if not waves32:
        return diff.einsum("qtk,qtk->qk", amp, diff.waves(ang))
    # in place: a fresh temporary per step cost more than its arithmetic
    reduced = ang.data / (2.0 * np.pi)
    np.rint(reduced, out=reduced)
    reduced *= 2.0 * np.pi
    np.subtract(ang.data, reduced, out=reduced)
    reduced = reduced.astype(np.float32)
    # a float64 buffer spares einsum a buffered cast of float32 waves
    waves = np.empty((q, t, 2 * cfg.K))
    np.cos(reduced, out=waves[..., :cfg.K], dtype=np.float32)
    np.sin(reduced, out=waves[..., cfg.K:], dtype=np.float32)
    return diff.constant(np.einsum("qtk,qtk->qk", amp.data, waves))


def _input_stage(model: INRModel, lat_q: tuple[Tensor, ...], X: np.ndarray,
                 waves32: bool = False) -> Tensor:
    """The input layer of Q latent codes (Q, t, c) at Q offsets: H (Q, t, m) for
    liif; for ope and lte, whose H is constant in B, its one value, (Q, n0)
    resp. (Q, 2K).  waves32 as in _input_sum_lte."""
    if model.cfg.variant == "liif":
        return _input_layer_liif(model, *lat_q, X)
    if model.cfg.variant == "ope":
        return _input_sum_ope(model, *lat_q, X)
    return _input_sum_lte(model, *lat_q, X, waves32)


def _output_head(params: dict[str, Tensor], z: Tensor) -> Tensor:
    """psi(z . W_out1^T) for the group sum z (Q, m) of the last H layer, of a
    parameter table's inr.W_out1 and psi layers inr.psi0, inr.psi1, ...
    (W (out, in), b), with a relu between each two."""
    z = diff.matmul(z, diff.transpose(params["inr.W_out1"], (1, 0)))
    i = 0
    while f"inr.psi{i}.w" in params:
        w, b = params[f"inr.psi{i}.w"], params[f"inr.psi{i}.b"]
        if i:
            z = diff.relu(z)
        z = diff.add(diff.matmul(z, diff.transpose(w, (1, 0))), diff.reshape(b, (1, w.shape[0])))
        i += 1
    return z


def _eval_local_batch(model: INRModel, lat_q: tuple[Tensor, ...], X: np.ndarray,
                      waves32: bool = False) -> Tensor:
    """Local functions of Q latent codes (Q, t, c) at Q normalized offsets -> (Q, n0).

    waves32 selects lte's float32 waves (see _input_sum_lte); the other
    variants ignore it.
    """
    cfg = model.cfg
    h = _input_stage(model, lat_q, X, waves32)
    if cfg.variant == "ope":
        # ope's output layer is fixed, W_out1 = (1/t) I and identity psi, so
        # it is the plain average over the t identical H slots
        return h
    if cfg.variant == "lte":
        # the group sum of the t equal H slots, as one scaling (exact for t a power of 2)
        return _output_head(model.params, diff.scale(h, cfg.t))
    if cfg.L > 0:
        h = diff.relu(h)
    for i in range(cfg.L):
        h = diff.relu(_cyclic_layer(h, model.params[f"inr.mid{i}"]))
    return _output_head(model.params, diff.reduce_sum(h, axes=1))


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

def _corners(X: np.ndarray, h: int, w: int, mode: str,
             eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices (4Q,), offsets (4Q, 2) and weights (4, Q) of the 2x2 latents
    around each query X (Q, 2) on an h x w grid, corner-major.

    Per axis the pair is floor(p) and floor(p) + 1 of the cell position p,
    clamped only at the border, and each gets a factor; a corner's weight is
    the product of its two factors, normalized per query.  With d = p -
    floor(p), ensemble factors are the LIIF areas 2(1 - d) + eps and 2d + eps,
    so the total is never 0; nearest mode gives 1 to the nearer latent and,
    within _TIE of the midpoint, to both, so ties are rotation symmetric.
    """
    fi, fj = cell_position(X, h, w)
    i, j = np.floor(fi), np.floor(fj)

    def factors(d):
        if mode == "ensemble":
            return np.stack([2.0 * (1.0 - d) + eps, 2.0 * d + eps])
        return np.stack([d <= 0.5 + _TIE, d >= 0.5 - _TIE])

    weights = (factors(fi - i)[:, None] * factors(fj - j)).reshape(4, -1)
    # corner 2a + b is row i + a, column j + b, clamped after weighting: a
    # border query's two clamped corners are one latent at one offset
    ri = np.clip(np.stack([i, i + 1]), 0, h - 1)
    cj = np.clip(np.stack([j, j + 1]), 0, w - 1)
    off = np.empty((2, 2, X.shape[0], 2))
    off[..., 0] = 2.0 * (fj - cj)
    off[..., 1] = 2.0 * (ri - fi)[:, None]
    flat = (ri[:, None] * w + cj).astype(np.int64).ravel()
    return flat, off.reshape(-1, 2), weights / weights.sum(axis=0)


def _eval_global_chunk(model: INRModel, lats: tuple[Tensor, ...], X: np.ndarray, first: int,
                       per_item: int, waves32: bool = False) -> Tensor:
    """Queries X (Q, 2): rows first, first + 1, ... of an eval_global_batch
    call with per_item queries per item.  waves32 as in _input_sum_lte."""
    q = X.shape[0]
    h, w = lats[0].shape[-4:-2]
    mode = model.cfg.mode
    flat, off, weights = _corners(X, h, w, mode, model.cfg.eps)
    items = (first + np.arange(q)) // per_item
    flat = (flat.reshape(4, q) + items * (h * w)).ravel()
    # only corners with weight are evaluated, at most _EVALS[mode] * Q rows at
    # a time, so nearest-mode ties stay inside the chunk budget
    rows = np.flatnonzero(weights)
    step = _EVALS[mode] * q
    preds = [_eval_local_batch(model, _gather_latents(lats, flat[r]),
                               np.take(off, r, axis=0), waves32)
             for r in (rows[a:a + step] for a in range(0, rows.size, step))]
    preds.append(diff.constant(np.zeros((1, model.cfg.c_in))))
    live_weights = np.append(weights.ravel()[rows], 0.0)[:, None]
    preds = diff.mul(diff.concat(preds, axis=0), diff.constant(live_weights))
    # each corner slot reads its weighted evaluation, a zero-weight slot the zero row
    slot = np.full(4 * q, rows.size)
    slot[rows] = np.arange(rows.size)
    return diff.reduce_sum(diff.reshape(diff.gather(preds, slot), (4, q, -1)), axes=0)


def _query_bytes(cfg: ModelConfig, slots: int) -> int:
    """Upper estimate of the bytes one query's assembly temporaries hold at
    once, for latent codes of `slots` slots (t, or 1 for ope's folded code)."""
    if cfg.variant == "liif":
        slot = 2 * (cfg.n + 2) + 4 * cfg.width  # codes, [F; x], cyclic layer outputs
    elif cfg.variant == "ope":
        kb = (2 * cfg.k_max + 1) ** 2
        slot = cfg.c_in * kb + 3 * kb  # coefficients, basis and its factors
    else:  # lte: amplitudes, frequencies, angles, cos, sin, waves
        slot = 12 * cfg.K
    # per local evaluation: the code's slots, then the t-free output head
    # (W_out1 and psi layers, two arrays each), outputs, offsets and weights
    floats = slots * slot + 2 * (cfg.width + sum(cfg.psi_widths)) + 2 * cfg.c_in + 8
    return _EVALS[cfg.mode] * 8 * floats


def eval_global_batch(model: INRModel, lats: tuple[Tensor, ...], X: np.ndarray) -> Tensor:
    """Evaluate the global continuous function at queries X (N, 2) -> (N, n0),
    in mode model.cfg.mode with stabilizer model.cfg.eps.

    Latent tensors with a leading axis of B items take N/B queries per item,
    item-major: rows [i N/B, (i + 1) N/B) of X query item i, whose pixels
    start at row i h w of the flattened (B h w, t, c) latent table.  B must
    divide N (else ShapeError); unbatched latents are the case B = 1.

    Equal chunks (sizes differ by at most one, a chunk may span items) within
    the per-thread _CHUNK_BYTES budget run on `parallel.run_bands`; their
    bounds follow from the model and N alone, so the output does not depend
    on the thread count.  Untaped chunks use lte's float32 waves (see
    _input_sum_lte) and write into the (N, n0) output, past which memory does
    not grow with N.  While a Tape is open each chunk records, in float64, on
    its own tape, and `diff.splice` appends these to it in chunk order.
    """
    q, items = X.shape[0], (lats[0].shape[0] if lats[0].ndim == 5 else 1)
    if q % items:
        raise ShapeError(f"{q} queries do not split evenly over {items} latent items")
    rows = max(1, _CHUNK_BYTES // _query_bytes(model.cfg, lats[0].shape[-2]))
    chunks = max(1, -(-q // rows))
    cuts = [q * i // chunks for i in range(chunks + 1)]
    taped = diff.recording()
    out = None if taped else np.empty((q, model.cfg.c_in))
    parts = {}

    def chunk(a: int, b: int):
        if taped:
            with diff.Tape() as tape:
                parts[a] = (tape, _eval_global_chunk(model, lats, X[a:b], a, q // items))
        else:
            out[a:b] = _eval_global_chunk(model, lats, X[a:b], a, q // items, True).data

    parallel.run_bands(zip(cuts[:-1], cuts[1:]), chunk)
    return diff.splice([parts[a] for a in cuts[:-1]]) if taped else diff.constant(out)


def output_size(h: int, w: int, scale: float) -> tuple[int, int]:
    """HR size (h_out, w_out) of an h x w input super-resolved at `scale`.

    Raises DomainError unless the scale is finite and >= 1 and the output
    has at most MAX_OUTPUT_PIXELS pixels.
    """
    scale = float(scale)
    if not (math.isfinite(scale) and scale >= 1.0):
        raise DomainError(f"scale must be finite and >= 1, got {scale}")
    # a side past the limit is clamped just above it, so huge scales stay ints
    h_out, w_out = (math.floor(min(scale * s, MAX_OUTPUT_PIXELS + 1) + 0.5) for s in (h, w))
    if h_out * w_out > MAX_OUTPUT_PIXELS:
        raise DomainError(f"a {w}x{h} input at scale {scale:g} gives more output pixels than "
                          f"the limit of {MAX_OUTPUT_PIXELS} (4096x4096)")
    return h_out, w_out


def batch_limit(model: INRModel, h: int, w: int, scale: float) -> int:
    """Most h x w images one super_resolve_batch call should take at `scale`:
    their outputs hold at most MAX_OUTPUT_PIXELS pixels together, the bound
    of one request, and their latent codes at most the _CHUNK_BYTES budget
    unless one image's codes alone hold more.  Raises as output_size."""
    h_out, w_out = output_size(h, w, scale)
    cfg = model.cfg
    if cfg.variant == "liif":
        floats = cfg.t * cfg.n
    elif cfg.variant == "lte":
        floats = 4 * cfg.t * cfg.K  # amplitudes and frequencies
    else:
        slots = 1 if _ope_rotations(model.group, cfg.k_max) is not None else cfg.t
        floats = slots * cfg.c_in * (2 * cfg.k_max + 1) ** 2
    codes = max(1, _CHUNK_BYTES // (8 * floats * h * w))
    return min(MAX_OUTPUT_PIXELS // (h_out * w_out), codes)


def super_resolve_batch(model: INRModel, images, scale: float) -> list[Image]:
    """Super-resolve same-shaped images at one scale: one encoder pass over
    the stacked (B, h, w, c) input, one latent pass, and one eval_global_batch
    over every HR cell center of each item, item-major.

    Each output is `super_resolve` of its image alone: bit for bit when every
    product row keeps its place, as at the sweeps' sides 16 and 32 in
    ensemble mode.  BLAS may round the last (height mod 4) rows of a product
    apart from the same rows inside a taller one, so conv2d bands that cross
    items (side 17) or nearest-mode chunks can move an output by about 1e-15
    relative.  Images of different shapes raise ShapeError; the scale and
    output size are checked by `output_size` before any work.  The outputs
    and latent codes hold B times those of one image, so callers bound B
    (batch_limit).
    """
    images = list(images)
    if not images:
        raise ShapeError("super_resolve_batch needs at least one image")
    shape = images[0].data.shape
    if any(img.data.shape != shape for img in images):
        raise ShapeError(f"batched images differ in shape: "
                         f"{sorted({img.data.shape for img in images})}")
    h_out, w_out = output_size(shape[0], shape[1], scale)
    feat = encode_t(model, diff.constant(np.stack([img.data for img in images])))
    lats = compute_latents(model, feat)
    xx = np.tile(pixel_coords(h_out, w_out).reshape(-1, 2), (len(images), 1))
    out = eval_global_batch(model, lats, xx)
    return [Image(y) for y in out.data.reshape(len(images), h_out, w_out, model.cfg.c_in)]


def super_resolve(model: INRModel, img: Image, scale: float) -> Image:
    """Arbitrary-scale super-resolution: encode, then query every HR cell
    center; super_resolve_batch of the one image."""
    return super_resolve_batch(model, [img], scale)[0]
