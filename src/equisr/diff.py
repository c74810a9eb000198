"""Minimal reverse-mode differentiation over dense tensors.

A fixed catalogue of primitives (add, sub, mul, matmul, einsum, conv2d, relu,
sin, cos, waves, concat, sum, scale, gather, reshape, transpose), each in the
one form the layers use (matmul of matrices, conv2d padded to the input size,
gather of rows), expresses every layer in this package.  Forward values are
numpy arrays in `Tensor`; when a `Tape` is active and an input requires grad,
the primitive records a backward closure on the tape.  `backward` replays the
tape once in reverse and accumulates gradients in that fixed order, so
gradients are bit reproducible; the parts of a `splice` replay on the band
runner and are folded in that same order.  Backward closures return
input-shaped gradients, or None for inputs that do not require grad
(constants cost no gradient work).

Evaluation without an active tape records nothing and costs nothing beyond
the numpy work itself.
"""

from __future__ import annotations

import threading

import numpy as np

from . import parallel
from .errors import (
    ContractError,
    EvaluationError,
    ShapeError,
)


class _TapeStacks(threading.local):
    """Per-thread autodiff state: distinct tapes may run on distinct threads."""

    def __init__(self):
        self.stack: list[Tape] = []


_STACKS = _TapeStacks()

# When True every primitive verifies its output is finite (slow; off by
# default, the training loop has its own non-finite abort).
CHECK_FINITE = False


class Tensor:
    """Dense array with a requires-grad flag. Hashable by identity."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class Tape:
    """Ordered record of primitive applications for one backward pass.

    `relu_masks` holds the sign pattern of every relu this thread evaluated
    while the tape was the innermost open one (check_gradients' kink guard).
    `splice` appends tapes recorded on other threads and records, in
    `groups`, each part's (start, stop) range of `entries` and its output.
    """

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self.relu_masks: list[np.ndarray] = []
        self.groups: list[list[tuple[int, int, Tensor]]] = []

    def __enter__(self):
        _STACKS.stack.append(self)
        return self

    def __exit__(self, *exc):
        if _STACKS.stack[-1:] != [self]:
            raise ContractError("tape exited out of nesting order")
        _STACKS.stack.pop()
        return False


def recording() -> bool:
    """True when this thread has an open Tape."""
    return bool(_STACKS.stack)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _finish(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if CHECK_FINITE and not np.all(np.isfinite(out.data)):
        raise EvaluationError("primitive produced a non-finite value")
    stack = _STACKS.stack
    if stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        stack[-1].entries.append((out, inputs, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: Tensor, b: Tensor, name: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast")


# ---------------------------------------------------------------------------
# primitive catalogue
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _finish(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _finish(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _finish(out, (a, b), bwd)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul takes 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _finish(out, (a, b), bwd)


def einsum(subscripts: str, *operands) -> Tensor:
    """Tensor contraction in np.einsum notation with an explicit output.

    Each term is distinct letters and every index of an operand appears in
    the output or in another operand, so each operand's gradient is again
    one einsum: the output gradient contracted with the other operands.
    """
    operands = tuple(_as_tensor(t) for t in operands)
    lhs, arrow, out_sub = subscripts.partition("->")
    ins = lhs.split(",")
    sizes: dict[str, int] = {}
    ok = bool(arrow) and len(ins) == len(operands) and len(set(out_sub)) == len(out_sub)
    for i, (sub, t) in enumerate(zip(ins, operands)):
        elsewhere = out_sub + "".join(ins[:i] + ins[i + 1:])
        ok = ok and sub.isascii() and sub.isalpha() and len(set(sub)) == len(sub) == t.ndim
        ok = ok and all(c in elsewhere and sizes.setdefault(c, n) == n
                        for c, n in zip(sub, t.shape))
    if not ok or not set(out_sub) <= sizes.keys():
        raise ShapeError(f"einsum: unsupported subscripts {subscripts!r} for operand "
                         f"shapes {[t.shape for t in operands]}")
    out = Tensor(np.einsum(subscripts, *(t.data for t in operands)))

    def bwd(g):
        grads = []
        for i, t in enumerate(operands):
            rest = ins[:i] + ins[i + 1:]
            spec = ",".join([out_sub] + rest) + "->" + ins[i]
            others = (u.data for u in operands[:i] + operands[i + 1:])
            grads.append(np.einsum(spec, g, *others) if t.requires_grad else None)
        return tuple(grads)

    return _finish(out, operands, bwd)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0  # subgradient at 0 is 0
    if _STACKS.stack:
        _STACKS.stack[-1].relu_masks.append(mask)
    out = Tensor(np.maximum(x.data, 0.0))  # +0.0 for -0.0; NaN propagates

    def bwd(g):
        return (g * mask,)

    return _finish(out, (x,), bwd)


def sin(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.sin(x.data))

    def bwd(g):
        return (g * np.cos(x.data),)

    return _finish(out, (x,), bwd)


def cos(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.cos(x.data))

    def bwd(g):
        return (g * -np.sin(x.data),)

    return _finish(out, (x,), bwd)


def waves(x) -> Tensor:
    """[cos x; sin x] along the last axis, (..., K) -> (..., 2K).  The backward
    reads both factors from the output instead of evaluating them again."""
    x = _as_tensor(x)
    k = x.shape[-1]
    out = Tensor(np.empty(x.shape[:-1] + (2 * k,)))
    np.cos(x.data, out=out.data[..., :k])
    np.sin(x.data, out=out.data[..., k:])

    def bwd(g):
        return (g[..., k:] * out.data[..., :k] - g[..., :k] * out.data[..., k:],)

    return _finish(out, (x,), bwd)


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    out = Tensor(x.data * c)

    def bwd(g):
        return (g * c,)

    return _finish(out, (x,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty list")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(gi if t.requires_grad else None
                     for t, gi in zip(tensors, np.split(g, splits, axis=axis)))

    return _finish(out, tuple(tensors), bwd)


def reduce_sum(x, axes=None) -> Tensor:
    x = _as_tensor(x)
    if axes is not None and not isinstance(axes, tuple):
        axes = (axes,)
    out = Tensor(x.data.sum(axis=axes))

    def bwd(g):
        if axes is not None:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _finish(out, (x,), bwd)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        return (g.reshape(x.shape),)

    return _finish(out, (x,), bwd)


def transpose(x, axes) -> Tensor:
    """Axis permutation; the gradient is the inverse permutation."""
    x = _as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation of {x.ndim} axes")
    out = Tensor(np.transpose(x.data, axes))
    inverse = tuple(int(a) for a in np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inverse),)

    return _finish(out, (x,), bwd)


def gather(x, index) -> Tensor:
    """Take rows (along axis 0) with a 1-D integer index map."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ShapeError(f"gather index map must be 1-D, got shape {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
        raise ShapeError("gather index out of range")
    out = Tensor(np.take(x.data, index, axis=0))

    def bwd(g):
        # bincount adds the rows of g in index order, as np.add.at does (bit
        # for bit), without np.add.at's per-element dispatch
        inner = int(np.prod(g.shape[1:]))
        flat = (index[:, None] * inner + np.arange(inner)).ravel()
        gx = np.bincount(flat, weights=g.ravel(), minlength=x.size)
        return (gx.astype(g.dtype, copy=False).reshape(x.shape),)

    return _finish(out, (x,), bwd)


# GEMM rows per conv2d band.  OpenBLAS rounds some split products differently,
# so cuts follow this and shapes alone.
_BAND_ROWS = 256


def _im2col_bands(x: np.ndarray, kh: int, kw: int, fn) -> None:
    """Call fn(a, b, part), on run_bands' threads, for each band of whole output rows
    over all items of the size-preserving im2col matrix (b h w, kh kw c) of x
    (b, h, w, c), odd kh and kw: `part` is its rows a:b, built within _CHUNK_BYTES."""
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0))) if ph or pw else x
    nb, ho, wo, c = x.shape
    depth = kh * kw * c
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win.transpose(0, 1, 2, 4, 5, 3)  # (b, ho, wo, kh, kw, c)
    rows = max(1, min(round(_BAND_ROWS / wo), parallel._CHUNK_BYTES // (8 * wo * depth)))

    def band(a: int, b: int):
        part = np.empty(((b - a) * wo, depth))
        dst = part.reshape(b - a, wo, kh, kw, c)
        for i in range(a // ho, (b - 1) // ho + 1):  # the items the band crosses
            lo, hi = max(a, i * ho), min(b, (i + 1) * ho)
            dst[lo - a:hi - a] = win[i, lo - i * ho:hi - i * ho]
        fn(a * wo, b * wo, part)

    parallel.run_bands([(a, min(a + rows, nb * ho)) for a in range(0, nb * ho, rows)], band)


def conv2d(x, k) -> Tensor:
    """2-D correlation of x (h, w, c_in) with odd kernels k (c_out, c_in, kh, kw).

    Stride 1, zero padding to the input size.  An optional leading batch axis
    on x is carried through.  The forward walks x's im2col bands, the backward
    the output gradient's: each band gcol gives its input-gradient rows (gcol @
    the flipped, channel-swapped kernel) and its share, added in band order, of
    the weight gradient gk[o, c, i, j] = sum_p gcol[p, (kh-1-i, kw-1-j, o)] x[p, c].
    """
    x, k = _as_tensor(x), _as_tensor(k)
    if x.ndim not in (3, 4) or k.ndim != 4:
        raise ShapeError(f"conv2d expects ([b,]h,w,ci) and (co,ci,kh,kw), got {x.shape}, {k.shape}")
    h, w, ci = x.shape[-3], x.shape[-2], x.shape[-1]
    co, kci, kh, kw = k.shape
    if kci != ci:
        raise ShapeError(f"conv2d channel mismatch: input has {ci}, kernel expects {kci}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d needs odd kernel sizes, got {kh}x{kw}")

    xd = x.data.reshape((-1, h, w, ci))
    y = np.empty((xd.size // ci, co))
    kmat = k.data.transpose(2, 3, 1, 0).reshape(kh * kw * ci, co)
    _im2col_bands(xd, kh, kw, lambda a, b, part: np.matmul(part, kmat, out=y[a:b]))

    def bwd(g):
        xr = xd.reshape(-1, ci)
        gx = np.empty(x.shape) if x.requires_grad else None
        gk = np.zeros((kh * kw * co, ci)) if k.requires_grad else None
        kf = k.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(kh * kw * co, ci)
        turn, early, lock = 0, {}, threading.Lock()

        def band(a: int, b: int, gcol: np.ndarray):
            nonlocal turn
            if gx is not None:
                np.matmul(gcol, kf, out=gx.reshape(-1, ci)[a:b])
            if gk is not None:
                share = gcol.T @ xr[a:b]
                with lock:  # fold in band order, each share once the earlier ones are in
                    early[a] = (b, share)
                    while turn in early:
                        turn, share = early.pop(turn)
                        np.add(gk, share, out=gk)

        _im2col_bands(g.reshape(xd.shape[:-1] + (co,)), kh, kw, band)
        return gx, (None if gk is None
                    else gk.reshape(kh, kw, co, ci)[::-1, ::-1].transpose(2, 3, 0, 1))

    return _finish(Tensor(y.reshape(x.shape[:-1] + (co,))), (x, k), bwd)


_PRIMITIVES = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "matmul": matmul,
    "einsum": einsum,
    "conv2d": conv2d,
    "relu": relu,
    "sin": sin,
    "cos": cos,
    "waves": waves,
    "concat": concat,
    "sum": reduce_sum,
    "scale": scale,
    "gather": gather,
    "reshape": reshape,
    "transpose": transpose,
}


# ---------------------------------------------------------------------------
# composites built from catalogue primitives
# ---------------------------------------------------------------------------

def absolute(x) -> Tensor:
    """|x| as relu(x) + relu(-x)."""
    return add(relu(x), relu(scale(x, -1.0)))


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def splice(parts) -> Tensor:
    """Append each (tape, output) part's tape to this thread's open tape, in
    order, and concatenate the outputs; a part reads only earlier tensors.
    The tape keeps the parts' entry ranges and outputs as one group, which
    `backward` replays on the band runner (groups spliced within a part
    replay inside it, serially)."""
    tape = _STACKS.stack[-1]
    group = []
    for part, out in parts:
        start = len(tape.entries)
        tape.entries += part.entries
        tape.relu_masks += part.relu_masks
        group.append((start, len(tape.entries), out))
    out = concat([out for _, out in parts])
    tape.groups.append(group)
    return out


def _add(grads: dict, t: Tensor, g: np.ndarray) -> None:
    acc = grads.get(t)
    grads[t] = g if acc is None else acc + g


def _replay(entries, grads: dict, own=None, spill=None) -> None:
    """Replay entries in reverse, adding input gradients into grads; with
    `own`, those of tensors not in it are appended to `spill` instead."""
    for out, inputs, bwd in reversed(entries):
        g = grads.pop(out, None)  # complete: out's consumers all come later
        if g is None:
            continue
        for t, gi in zip(inputs, bwd(g)):
            if gi is None or not t.requires_grad:
                continue
            if own is None or t in own:
                _add(grads, t, gi)
            else:
                spill.append((t, gi))


def _replay_group(entries, group, grads: dict) -> None:
    """Replay one spliced group's parts on the band runner, last part first,
    each from its output's gradient in grads with gradients of its own.

    Each part's gradients of tensors it did not produce (latent tables,
    parameters) are added into grads in its replay order, part by part from
    the last, as soon as every later part is folded: the additions of a
    serial replay in the same order, so the bits do not depend on the
    workers, and only parts finished out of turn wait with their gradients.
    """
    owns = [{out for out, _, _ in entries[a:b]} for a, b, _ in group]
    seeds = [grads.pop(out, None) if out in own else None
             for (_, _, out), own in zip(group, owns)]
    spills: dict[int, list] = {}
    lock = threading.Lock()
    turn = len(group) - 1  # the next part to fold

    def part(p: int, _):
        nonlocal turn
        a, b, out = group[p]
        spill = []
        _replay(entries[a:b], {out: seeds[p]}, owns[p], spill)
        with lock:
            spills[p] = spill
            while turn in spills:
                for t, g in spills.pop(turn):
                    _add(grads, t, g)
                turn -= 1

    parallel.run_bands([(p, p + 1) for p in reversed(range(len(group)))], part)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Gradients of a scalar loss w.r.t. every requires-grad leaf on the tape.

    Accumulation happens in fixed reverse tape order, so results are
    bit-identical across runs with identical inputs and any worker count.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones(loss.shape, dtype=loss.data.dtype)}
    end = len(tape.entries)
    for group in reversed(tape.groups):
        _replay(tape.entries[group[-1][1]:end], grads)
        _replay_group(tape.entries, group, grads)
        end = group[0][0]
    _replay(tape.entries[:end], grads)
    return {
        t: Tensor(g)
        for t, g in grads.items()
        if t.requires_grad
    }


def _scalar(out: Tensor) -> float:
    if out.size != 1:
        raise ContractError("check_gradients needs a scalar-valued function")
    if not np.isfinite(out.data).all():
        raise EvaluationError("non-finite forward value during gradient check")
    return float(out.data.reshape(()))


_FD_STEP = 1e-5  # central-difference step of check_gradients


def check_gradients(fn, inputs) -> float:
    """Compare analytic gradients of `fn` against central finite differences.

    `fn` is called on `inputs`, Tensors such as the parameters a model
    holds.  Every coordinate of every input is perturbed in place by
    +-1e-5, no subset; afterwards, also when `fn` raises, each input holds
    the data and `requires_grad` flag it had.  An input whose data is not
    C-contiguous raises ContractError, as a perturbation of a copy would be
    lost.  A coordinate is skipped when the two side evaluations disagree on
    any relu sign pattern (the kink guard); a relu pre-activation sitting
    exactly on 0 is always skipped this way.  Returns the maximum relative
    error over the checked coordinates.
    """
    for t in inputs:
        if not t.data.flags.c_contiguous:
            raise ContractError("check_gradients perturbs its inputs in place; "
                                "their data must be C-contiguous")
    saved = [(t.data.copy(), t.requires_grad) for t in inputs]
    try:
        for t in inputs:
            t.requires_grad = True
        with Tape() as tape:
            out = fn(*inputs)
        _scalar(out)
        grads = backward(tape, out)
        analytic = [grads[t].data if t in grads else np.zeros(t.shape) for t in inputs]
        for t in inputs:
            t.requires_grad = False  # the side evaluations record no gradient of them
        worst = 0.0
        for t, grad in zip(inputs, analytic):
            base = t.data.reshape(-1)  # a view: the data is C-contiguous
            for flat in range(t.size):
                orig = base[flat]
                base[flat] = orig + _FD_STEP
                with Tape() as plus:
                    f_plus = _scalar(fn(*inputs))
                base[flat] = orig - _FD_STEP
                with Tape() as minus:
                    f_minus = _scalar(fn(*inputs))
                base[flat] = orig
                if any((p != q).any() for p, q in zip(plus.relu_masks, minus.relu_masks)):
                    continue  # perturbation crosses a relu kink
                numeric = (f_plus - f_minus) / (2.0 * _FD_STEP)
                a = grad.ravel()[flat]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
                worst = max(worst, err)
        return worst
    finally:
        for t, (data, flag) in zip(inputs, saved):
            t.data[...] = data
            t.requires_grad = flag
