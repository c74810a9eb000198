"""Reverse-mode differentiation: primitives, backward pass, gradient checks."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from equisr import diff, parallel
from equisr.checks import run_all
from equisr.diff import Tape, Tensor, backward, check_gradients
from equisr.errors import ContractError, EvaluationError, ShapeError


class TestPrimitives:
    def test_relu_values(self):
        out = diff.relu(Tensor([-1.0, 0.0, 2.0, -0.0, np.nan]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0, 0.0, np.nan], equal_nan=True)
        assert not np.signbit(out.data[3])  # -0.0 maps to +0.0

    def test_matmul_identity(self):
        v = np.array([[3.0], [-1.0], [2.5]])
        out = diff.matmul(Tensor(np.eye(3)), Tensor(v))
        assert np.array_equal(out.data, v)

    def test_conv2d_all_ones_same(self):
        x = Tensor(np.ones((3, 3, 1)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = diff.conv2d(x, k)
        assert out.shape == (3, 3, 1)
        # each output sums the 1*1 products of the taps inside the zero padding
        assert np.array_equal(out.data[:, :, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])

    def test_conv2d_one_hot_kernel_is_shift(self):
        rng = np.random.default_rng(0)
        x = rng.random((6, 7, 2))
        k = np.zeros((2, 2, 3, 3))
        k[0, 0, 0, 2] = 1.0  # output channel 0 reads input channel 0 at (r=0, c=2)
        k[1, 1, 1, 1] = 1.0  # output channel 1 reads input channel 1 centered
        out = diff.conv2d(Tensor(x), Tensor(k))
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))  # one zero row and column on each side
        assert np.array_equal(out.data[:, :, 0], xp[0:6, 2:9, 0])
        assert np.array_equal(out.data[:, :, 1], x[:, :, 1])

    def test_conv2d_batch_matches_loop(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 6, 6, 2))
        k = rng.standard_normal((4, 2, 3, 3))
        batched = diff.conv2d(Tensor(x), Tensor(k))
        for i in range(3):
            single = diff.conv2d(Tensor(x[i]), Tensor(k))
            assert np.array_equal(batched.data[i], single.data)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            diff.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            diff.conv2d(Tensor(np.ones((4, 4, 2))), Tensor(np.ones((1, 3, 3, 3))))
        for kshape in ((1, 2, 2, 3), (1, 2, 3, 2)):  # an even side has no centre tap
            with pytest.raises(ShapeError):
                diff.conv2d(Tensor(np.ones((4, 4, 2))), Tensor(np.ones(kshape)))
        with pytest.raises(ShapeError):  # a vector is a (n, 1) column
            diff.matmul(Tensor(np.eye(3)), Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            diff.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))

    def test_gather_and_transpose(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = diff.gather(x, np.array([2, 0]))
        assert np.array_equal(out.data, x.data[[2, 0]])
        tr = diff.transpose(x, (1, 0))
        assert np.array_equal(tr.data, x.data.T)

    def test_einsum_matches_numpy(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((5, 3, 4)), rng.standard_normal((3, 3, 2, 4))
        out = diff.einsum("qai,abmi->qbm", Tensor(a), Tensor(b))
        assert np.allclose(out.data, np.einsum("qai,abmi->qbm", a, b), rtol=1e-13, atol=0)
        out = diff.einsum("ij,ij->i", Tensor(a[:, 0]), Tensor(a[:, 1]))
        assert np.allclose(out.data, (a[:, 0] * a[:, 1]).sum(axis=1), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("subscripts, shapes", [
        ("ij,jk", [(2, 3), (3, 4)]),  # no explicit output
        ("...j,jk->...k", [(2, 3), (3, 4)]),  # ellipsis
        ("ii->i", [(3, 3)]),  # repeated index within one operand
        ("ij,jk->ik", [(2, 3), (4, 4)]),  # index sizes disagree
        ("ij->i", [(2, 3)]),  # j appears in no other term nor the output
        ("ij,jk->iz", [(2, 3), (3, 4)]),  # output index from nowhere
        ("ij,jk->ii", [(2, 3), (3, 4)]),  # repeated output index
        ("ijk,jk->i", [(2, 3), (3, 4)]),  # term rank differs from operand rank
        ("ij->ij", [(2, 3), (2, 3)]),  # one term for two operands
    ])
    def test_einsum_rejects_bad_subscripts(self, subscripts, shapes):
        with pytest.raises(ShapeError):
            diff.einsum(subscripts, *(Tensor(np.ones(s)) for s in shapes))

    def test_transpose_rejects_non_permutation(self):
        with pytest.raises(ShapeError):
            diff.transpose(Tensor(np.ones((2, 3))), (0, 0))

    def test_waves_is_cos_then_sin_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 3, 4)) * 10.0, requires_grad=True)
        g = diff.constant(rng.standard_normal((5, 3, 8)))

        def value_and_grad(fn):
            with Tape() as tape:
                out = fn(x)
                loss = diff.reduce_sum(diff.mul(out, g))
            return out.data, backward(tape, loss)[x].data

        fused = value_and_grad(diff.waves)
        composed = value_and_grad(lambda v: diff.concat([diff.cos(v), diff.sin(v)], axis=-1))
        assert all(np.array_equal(a, b) for a, b in zip(fused, composed))


def _conv2d_input_grad_loop(xshape, k, g):
    """Input gradient of conv2d by the explicit kh x kw scatter of window grads."""
    co, ci, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    g4 = g if g.ndim == 4 else g[None]
    nb, ho, wo, _ = g4.shape
    h, w = xshape[-3], xshape[-2]
    dcols = (g4.reshape(-1, co) @ k.reshape(co, ci * kh * kw)).reshape(nb, ho, wo, ci, kh, kw)
    gxp = np.zeros((nb, h + 2 * ph, w + 2 * pw, ci))
    for r in range(kh):
        for c in range(kw):
            gxp[:, r:r + ho, c:c + wo, :] += dcols[:, :, :, :, r, c]
    gx = gxp[:, ph:ph + h, pw:pw + w, :]
    return gx if len(xshape) == 4 else gx[0]


@pytest.mark.parametrize("xshape", [(7, 6, 3), (2, 7, 6, 3)])
def test_conv2d_input_grad_matches_loop_reference(xshape):
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal(xshape), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 3, 3, 5)), requires_grad=True)
    with Tape() as tape:
        y = diff.conv2d(x, k)
    g = rng.standard_normal(y.shape)
    (_, _, bwd), = tape.entries
    gx, _ = bwd(g)
    ref = _conv2d_input_grad_loop(xshape, k.data, g)
    assert gx.shape == ref.shape
    assert np.max(np.abs(gx - ref)) <= 1e-12 * np.max(np.abs(ref))


def _conv2d_unbanded(x, k, g):
    """Value and both gradients of conv2d, each from one whole im2col product."""
    xb = x if x.ndim == 4 else x[None]
    co, ci, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2

    def im2col(a):
        win = np.lib.stride_tricks.sliding_window_view(a, (kh, kw), axis=(1, 2))
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * a.shape[-1])

    xp = np.pad(xb, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    cols = im2col(xp)
    shape = (len(xb), xp.shape[1] - kh + 1, xp.shape[2] - kw + 1, co)
    y = (cols @ k.transpose(2, 3, 1, 0).reshape(-1, co)).reshape(shape)
    g4 = g.reshape(shape)
    gp = np.pad(g4, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    gx = (im2col(gp) @ k[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, ci)).reshape(xb.shape)
    gk = (g4.reshape(-1, co).T @ cols).reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)
    return (y, gx, gk) if x.ndim == 4 else (y[0], gx[0], gk)


class TestBandedConv2d:
    """conv2d's bands against the unbanded products, for any worker count."""

    @staticmethod
    def _banded(monkeypatch, x, k, g, workers, x_grad, k_grad):
        monkeypatch.setattr(diff.parallel, "_workers", lambda: workers)
        spans = []
        real = diff.parallel.run_bands

        def recording(todo, fn):
            todo = list(todo)
            spans.append(todo)
            real(todo, fn)

        monkeypatch.setattr(diff.parallel, "run_bands", recording)
        xt, kt = Tensor(x, requires_grad=x_grad), Tensor(k, requires_grad=k_grad)
        with Tape() as tape:
            y = diff.conv2d(xt, kt)
        (_, _, bwd), = tape.entries
        gx, gk = bwd(g)
        return (y.data, gx, gk), spans

    # band rows and shapes: the last row band is ragged, and batched inputs
    # have bands across items; (False, True) is the encoder head on an image
    @pytest.mark.parametrize("x_grad,k_grad", [(True, True), (False, True), (True, False)])
    @pytest.mark.parametrize("xshape,band_rows", [
        ((3, 7, 9, 4), 14),  # 7 x 9 outputs: 2-row bands over 21 rows
        ((3, 6, 5, 4), 20),  # 6 x 5 outputs: 4-row bands over 18 rows
        ((7, 9, 4), 27),  # 7 x 9 outputs: 3-row bands over 7 rows
        ((9, 6, 4), 12),  # 9 x 6 outputs: 2-row bands over 9 rows
    ])
    def test_matches_unbanded(self, monkeypatch, xshape, band_rows, x_grad, k_grad):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(xshape)
        k = rng.standard_normal((5, 4, 3, 3))
        g = rng.standard_normal(diff.conv2d(Tensor(x), Tensor(k)).shape)
        ref = _conv2d_unbanded(x, k, g)
        ho = ref[0].shape[-3]
        monkeypatch.setattr(diff, "_BAND_ROWS", band_rows)
        for workers in (1, 2, 3):
            got, (forward, backward) = self._banded(monkeypatch, x, k, g, workers, x_grad, k_grad)
            for a, b, wanted in zip(got, ref, (True, x_grad, k_grad)):
                if not wanted:
                    assert a is None
                    continue
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
            sizes = [b - a for a, b in forward]
            assert len(sizes) > 1 and sizes[-1] < sizes[0]
            if x.ndim == 4:
                assert any(a // ho != (b - 1) // ho for a, b in forward)
            # one backward walk, over the same row bands of all items
            assert backward == forward

    def test_failed_band_raises_once_after_join(self, monkeypatch):
        monkeypatch.setattr(diff.parallel, "_workers", lambda: 3)
        affinity = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, mask: affinity.append((threading.get_ident(), set(mask))),
                            raising=False)
        real = np.matmul
        calls = []
        lock = threading.Lock()

        def failing(*args, **kwargs):
            with lock:
                calls.append(threading.get_ident())
                first = len(calls) == 1
            if first:
                raise RuntimeError("band failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", failing)
        x = np.random.default_rng(12).standard_normal((4, 24, 24, 8))
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="band failed"):
            diff.conv2d(Tensor(x), Tensor(np.ones((8, 8, 3, 3))))
        assert set(threading.enumerate()) == before
        # after the failure each other thread finishes at most one band
        assert len(calls) <= 3
        me = threading.get_ident()
        assert [m for t, m in affinity if t == me] == [{0}, {0, 1, 2}]

    def test_gradients_same_bits_under_thread_churn(self, monkeypatch):
        # more workers than cores and a short switch interval: a lost or
        # out-of-order weight-gradient share would change the bits
        rng = np.random.default_rng(14)
        x, k = rng.standard_normal((4, 12, 10, 6)), rng.standard_normal((7, 6, 3, 3))
        g = rng.standard_normal((4, 12, 10, 7))
        monkeypatch.setattr(diff, "_BAND_ROWS", 10)  # 48 one-row bands

        def grads(workers):
            monkeypatch.setattr(diff.parallel, "_workers", lambda: workers)
            with Tape() as tape:
                diff.conv2d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True))
            (_, _, bwd), = tape.entries
            return bwd(g)

        serial, churned = grads(1), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: churned.extend(grads(6) for _ in range(50)))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(churned) == 50
        for got in churned:
            assert all(np.array_equal(a, b) for a, b in zip(got, serial))

    def test_no_whole_im2col_matrix(self, monkeypatch):
        # neither forward, recorded or not, nor backward holds more than bands
        monkeypatch.setattr(diff.parallel, "_workers", lambda: 1)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((64, 64, 32))
        k = rng.standard_normal((32, 32, 5, 5))
        whole = 64 * 64 * 32 * 25 * 8  # bytes of the (h w, kh kw ci) im2col matrix
        diff.conv2d(Tensor(x), Tensor(k))  # the process's one-time heap block

        def peak(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        assert peak(lambda: diff.conv2d(xt, kt))[1] < whole / 4
        with Tape() as tape:
            y, recorded = peak(lambda: diff.conv2d(xt, kt))
        assert recorded < whole / 4
        (_, _, bwd), = tape.entries
        g = rng.standard_normal(y.shape)
        assert peak(lambda: bwd(g))[1] < whole / 4


def test_gather_backward_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    index = rng.integers(0, 4, size=40)  # many repeats
    with Tape() as tape:
        y = diff.gather(x, index)
    g = rng.standard_normal(y.shape)
    (_, _, bwd), = tape.entries
    (gx,) = bwd(g)
    ref = np.zeros(x.shape)
    np.add.at(ref, index, g)
    assert gx.dtype == ref.dtype and np.array_equal(gx, ref)


def test_backward_skips_inputs_without_grad():
    rng = np.random.default_rng(12)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal((4, 2)))
    x = Tensor(rng.standard_normal((5, 6, 2)))
    k = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
    with Tape() as tape:
        diff.matmul(w, c)
        diff.einsum("ij,jk->ik", w, c)
        diff.concat([w, diff.constant(np.ones((1, 4)))], axis=0)
        diff.mul(w, diff.constant(np.ones((3, 4))))
        diff.conv2d(x, k)
    for out, inputs, bwd in tape.entries:
        for t, gi in zip(inputs, bwd(np.ones(out.shape))):
            assert (gi is None) == (not t.requires_grad)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = diff.reduce_sum(x)
        grads = backward(tape, loss)
        assert np.array_equal(grads[x].data, np.ones((2, 3)))

    def test_product_rule(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.random((4,)), requires_grad=True)
        y = Tensor(rng.random((4,)), requires_grad=True)
        with Tape() as tape:
            loss = diff.reduce_sum(diff.mul(x, y))
        grads = backward(tape, loss)
        assert np.array_equal(grads[x].data, y.data)
        assert np.array_equal(grads[y].data, x.data)

    def test_relu_net_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        W = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        with Tape() as tape:
            loss = diff.reduce_sum(diff.relu(diff.matmul(W, x)))
        grads = backward(tape, loss)
        # independent central-difference oracle, step 1e-5
        step = 1e-5
        for tensor, grad in ((W, grads[W].data), (x, grads[x].data)):
            flat = tensor.data.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                fp = np.sum(np.maximum(W.data @ x.data, 0.0))
                flat[idx] = orig - step
                fm = np.sum(np.maximum(W.data @ x.data, 0.0))
                flat[idx] = orig
                num = (fp - fm) / (2 * step)
                assert abs(grad.ravel()[idx] - num) <= 1e-6 * max(1.0, abs(num))

    def test_accumulation_when_leaf_reused(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = diff.reduce_sum(diff.mul(x, x))  # d/dx x^2 = 2x
        grads = backward(tape, loss)
        assert np.array_equal(grads[x].data, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = diff.scale(x, 2.0)
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(7)
            w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
            x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
            with Tape() as tape:
                y = diff.relu(diff.matmul(w, x))
                loss = diff.reduce_sum(diff.mul(y, y))
            grads = backward(tape, loss)
            return grads[w].data.copy(), grads[x].data.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    def test_no_tape_records_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = diff.relu(x)
        assert y.requires_grad is False  # nothing was recorded

    def test_spliced_thread_tapes_replay_as_one(self):
        # each part records on its own thread's tape; splice puts the parts
        # on this thread's tape in order, and backward returns leaves only
        w = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        x = np.array([[1.0, 2.0], [3.0, -4.0]])
        parts = [None, None]

        def record(i):
            with Tape() as part:
                parts[i] = (part, diff.relu(diff.mul(Tensor(x[i]), w)))

        for i in (1, 0):
            worker = threading.Thread(target=record, args=(i,))
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
        with Tape() as tape:
            out = diff.splice(parts)
            loss = diff.reduce_sum(out)
        assert np.array_equal(out.data, [1.5, 0.0, 4.5, 8.0])
        assert [m.tolist() for m in tape.relu_masks] == [[True, False], [True, True]]
        grads = backward(tape, loss)
        assert list(grads) == [w]
        assert np.array_equal(grads[w].data, [4.0, -4.0])


    @staticmethod
    def _part(w, hook):
        """A spliced part recorded on its own tape: w, whose backward calls hook()."""
        def bwd(g):
            hook()
            return (g,)

        with Tape() as part:
            out = diff._finish(Tensor(w.data.copy()), (w,), bwd)
        return part, out

    def test_spliced_parts_replay_on_several_threads(self, monkeypatch):
        monkeypatch.setattr(parallel, "_workers", lambda: 2)
        w = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        barrier = threading.Barrier(2, timeout=30)  # serial replay would break it
        threads = set()

        def hook():
            threads.add(threading.get_ident())
            barrier.wait()

        with Tape() as tape:
            loss = diff.reduce_sum(diff.splice([self._part(w, hook) for _ in range(4)]))
        grads = backward(tape, loss)
        assert len(threads) == 2
        assert np.array_equal(grads[w].data, [4.0, 4.0])

    def test_failing_spliced_part_raises_once_after_helpers_join(self, monkeypatch):
        monkeypatch.setattr(parallel, "_workers", lambda: 2)
        w = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        runs = []

        def hook(i):
            runs.append(i)
            if i == 2:
                raise ValueError("part 2 failed")

        with Tape() as tape:
            loss = diff.reduce_sum(diff.splice(
                [self._part(w, lambda i=i: hook(i)) for i in range(4)]))
        threads, cpus = threading.enumerate(), os.sched_getaffinity(0)
        with pytest.raises(ValueError, match="part 2 failed"):
            backward(tape, loss)
        assert threading.enumerate() == threads
        assert os.sched_getaffinity(0) == cpus
        assert runs.count(2) == 1 and 3 in runs  # parts replay last first


class TestCheckGradients:
    def test_sum_of_squares_tight(self):
        rng = np.random.default_rng(4)
        err = check_gradients(
            lambda x: diff.reduce_sum(diff.mul(x, x)),
            [Tensor(rng.standard_normal(8))],
        )
        assert err <= 1e-9  # central differences are exact on quadratics

    def test_l1_patch_loss_through_conv_net(self):
        rng = np.random.default_rng(5)
        target = rng.random((6, 6, 2))

        def fn(x, k1, k2):
            y = diff.relu(diff.conv2d(x, k1))
            y = diff.conv2d(y, k2)
            return diff.reduce_sum(diff.absolute(diff.sub(y, diff.constant(target))))

        err = check_gradients(fn, [
            Tensor(rng.standard_normal((6, 6, 1))),
            Tensor(rng.standard_normal((3, 1, 3, 3)) * 0.5),
            Tensor(rng.standard_normal((2, 3, 3, 3)) * 0.5),
        ])
        assert err <= 1e-4

    def test_kink_exactly_at_zero_is_skipped(self):
        # coordinate 1 sits exactly on the relu kink; analytic subgradient 0
        # disagrees with one-sided slopes, and the guard must exclude it
        x = Tensor(np.array([1.0, 0.0, -1.0]))
        err = check_gradients(lambda v: diff.reduce_sum(diff.relu(v)), [x])
        assert err <= 1e-9

    def test_non_finite_forward_raises(self):
        big = Tensor(np.array([1e308]))
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationError):
                check_gradients(lambda x: diff.mul(x, x), [big])

    def test_checks_held_tensors_in_place_and_restores_them(self):
        # fn reads the tensors it closes over, as a loss reads a model's parameters
        rng = np.random.default_rng(6)
        w, b = Tensor(rng.standard_normal((3, 4))), diff.parameter(rng.standard_normal(4))
        before = [(t.data.copy(), t.requires_grad) for t in (w, b)]
        seen = []

        def fn(*_):
            seen.append((w.data.copy(), b.data.copy()))
            return diff.reduce_sum(diff.sin(diff.add(w, b)))

        assert check_gradients(fn, [w, b]) <= 1e-8
        assert len(seen) == 1 + 2 * (12 + 4)  # every coordinate, no subset
        assert np.abs(seen[1][0] - before[0][0]).max() == pytest.approx(1e-5)
        for t, (data, flag) in zip((w, b), before):
            assert np.array_equal(t.data, data) and t.requires_grad is flag

    @pytest.mark.parametrize("fail_at", [0, 1, 2, 7])
    def test_inputs_restored_when_fn_raises(self, fail_at):
        x, y = Tensor(np.arange(3.0)), diff.parameter(np.ones((2, 2)))
        data_x, data_y = x.data, y.data
        before = [x.data.copy(), y.data.copy()]
        calls = []

        def fn(a, b):
            if len(calls) == fail_at:  # 0: the taped pass, then the side evaluations
                raise RuntimeError("boom")
            calls.append(1)
            return diff.add(diff.reduce_sum(a), diff.reduce_sum(diff.mul(b, b)))

        with pytest.raises(RuntimeError):
            check_gradients(fn, [x, y])
        assert x.data is data_x and y.data is data_y
        assert np.array_equal(x.data, before[0]) and np.array_equal(y.data, before[1])
        assert x.requires_grad is False and y.requires_grad is True

    def test_non_contiguous_input_raises(self):
        base = np.arange(6.0).reshape(2, 3)
        x = Tensor(base.T)  # a view: a perturbation of a ravelled copy would be lost
        assert not x.data.flags.c_contiguous
        with pytest.raises(ContractError):
            check_gradients(lambda v: diff.reduce_sum(diff.mul(v, v)), [x])
        assert np.array_equal(base, np.arange(6.0).reshape(2, 3))
        assert x.requires_grad is False


def test_every_primitive_passes_fd_suite():
    results = run_all("diff")
    for r in results:
        assert r.ok, f"{r.name}: {r.max_rel_err:.3e} > {r.tol}"


def test_fd_suite_covers_every_primitive():
    covered = {r.name.split(".")[0] for r in run_all("diff")}
    assert set(diff._PRIMITIVES) <= covered, set(diff._PRIMITIVES) - covered


def test_relu_trace_ignores_other_threads():
    # the relu trace is the open tape's relu_masks, which is per thread
    with Tape() as tape:
        patterns = tape.relu_masks
        worker = threading.Thread(target=diff.relu, args=(Tensor([1.0, -1.0]),))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert patterns == []
        diff.relu(Tensor([1.0, -1.0]))
        assert len(patterns) == 1


def test_misnested_tapes_raise():
    outer, inner = Tape(), Tape()
    outer.__enter__()
    inner.__enter__()
    try:
        with pytest.raises(ContractError):
            outer.__exit__(None, None, None)
    finally:
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
    with pytest.raises(ContractError):
        outer.__exit__(None, None, None)  # already closed


def test_finite_check_flag():
    diff.CHECK_FINITE = True
    try:
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationError):
                diff.mul(Tensor([1e300]), Tensor([1e300]))
    finally:
        diff.CHECK_FINITE = False
