"""The band runner: nesting, the serial default, and outputs that do not
depend on how many threads ran them.  Placement and the worker rule are
tested through the INR chunks in tests/test_inr.py."""

import threading

import numpy as np
import pytest

from equisr import data, diff, inr, parallel, training
from equisr.image import Image
from equisr.inr import ModelConfig, build_model, super_resolve


def _pin_workers(monkeypatch, workers):
    monkeypatch.setattr(parallel, "_workers", lambda: workers)


def _fill(out):
    """A band function writing rows [a, b) of `out` from the rows alone."""
    def band(a, b):
        out[a:b] = np.sin(np.arange(a, b) * 0.37)[:, None] @ np.ones((1, 3))
    return band


def _run(monkeypatch, workers, rows=103, size=7):
    _pin_workers(monkeypatch, workers)
    out = np.full((rows, 3), np.nan)
    parallel.run_bands([(a, min(a + size, rows)) for a in range(0, rows, size)], _fill(out))
    return out


class TestRunBands:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_nested_calls_run_inline(self, monkeypatch, workers):
        _pin_workers(monkeypatch, workers)
        lock = threading.Lock()
        seen = []  # (outer thread, inner thread, threads alive)
        out = np.zeros((40, 3))

        def outer(a, b):
            me = threading.get_ident()

            def inner(c, d):
                with lock:
                    seen.append((me, threading.get_ident(), threading.active_count()))
                _fill(out)(c, d)

            parallel.run_bands([(r, r + 1) for r in range(a, b)], inner)

        before = threading.active_count()
        parallel.run_bands([(a, a + 4) for a in range(0, 40, 4)], outer)
        assert np.array_equal(out, _run(monkeypatch, 1, rows=40))
        assert len(seen) == 40
        assert all(o == i for o, i, _ in seen)  # every inner span on its outer thread
        assert max(n for _, _, n in seen) <= before + workers - 1
        assert threading.active_count() == before

    def test_serial_without_blas_thread_count(self, monkeypatch):
        # OpenBLAS uses every core when neither variable is set: no helpers
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        idents = set()
        parallel.run_bands([(a, a + 1) for a in range(8)],
                           lambda a, b: idents.add(threading.get_ident()))
        assert idents == {threading.get_ident()}


class TestSameBitsForAnyWorkerCount:
    """Band cuts follow from shapes alone, so outputs do not move with workers."""

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    @pytest.mark.parametrize("t", [1, 4, 16])
    def test_super_resolve(self, monkeypatch, variant, t):
        # a 28 x 28 input: 4 conv2d row bands per layer, and several INR
        # chunks for the 56 x 56 queries
        model = build_model(ModelConfig(variant=variant, t=t, blocks=1), seed=0)
        img = Image(np.random.default_rng(t).random((28, 28, 3)))
        real = parallel.run_bands
        alive = []

        def sampling(spans, fn):
            def band(a, b):
                alive.append(threading.active_count())
                fn(a, b)
            real(spans, band)

        monkeypatch.setattr(parallel, "run_bands", sampling)
        before = threading.active_count()
        outs = []
        for workers in (1, 2, 3):
            _pin_workers(monkeypatch, workers)
            alive.clear()
            outs.append(super_resolve(model, img, 2.0).data)
            # no band starts a pool of its own
            assert alive and max(alive) <= before + workers - 1
        assert all(np.array_equal(out, outs[0]) for out in outs[1:])

    @staticmethod
    def _assert_train_same_bits(monkeypatch, cfg, spec, **kw):
        runs = []
        for workers in (1, 2, 3):
            _pin_workers(monkeypatch, workers)
            result = training.train(cfg, spec, **kw)
            runs.append(([loss for _, loss, _ in result.loss_rows],
                         {k: p.data for k, p in result.model.named_parameters().items()}))
        losses, params = runs[0]
        for other_losses, other_params in runs[1:]:
            assert other_losses == losses
            assert other_params.keys() == params.keys()
            assert all(np.array_equal(other_params[k], params[k]) for k in params)

    @pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
    def test_train(self, monkeypatch, variant):
        spec = data.DatasetSpec(kind="stripes", count=4, size=48, seed=3,
                                scale_lo=2.0, scale_hi=4.0)
        self._assert_train_same_bits(monkeypatch, ModelConfig(variant=variant, blocks=1), spec,
                                     steps=2, batch=2, patch=12, seed=5)

    @pytest.mark.parametrize("variant,chunks", [("liif", 4), ("ope", 3), ("lte", 5)])
    def test_train_at_benchmark_shape(self, monkeypatch, variant, chunks):
        # the train-steps workload's shape: each step's 4 x 24 x 24 queries
        # are several taped INR chunks
        spec = data.DatasetSpec(kind="stripes", count=8, size=96, seed=0,
                                scale_lo=2.0, scale_hi=4.0)
        sizes = []
        real = inr._eval_global_chunk

        def counting(model, lats, X, *rest):
            sizes.append(X.shape[0])
            return real(model, lats, X, *rest)

        monkeypatch.setattr(inr, "_eval_global_chunk", counting)
        self._assert_train_same_bits(monkeypatch, ModelConfig(variant=variant), spec,
                                     steps=4, batch=4, patch=24)
        assert len(sizes) == 3 * 4 * chunks and sum(sizes) == 3 * 4 * 4 * 24 * 24


@pytest.mark.parametrize("variant", ["liif", "ope", "lte"])
def test_step_gradients_same_bits_for_any_worker_count(monkeypatch, variant):
    # nearest mode at scale 2.5: HR centers on LR cell edges tie, so a chunk
    # evaluates more rows than queries in several local batches, and its
    # latent-table gradient sums several gathers' terms
    spec = data.DatasetSpec(kind="stripes", count=4, size=96, seed=1,
                            scale_lo=2.5, scale_hi=2.5)
    pairs = data.sample_patch_pairs(spec, 24, 8, seed=0)
    batch = (np.stack([p.lr.data for p in pairs]), np.concatenate([p.coords for p in pairs]),
             np.concatenate([p.targets for p in pairs]))
    model = build_model(ModelConfig(variant=variant, mode="nearest"), seed=0)
    params = model.named_parameters()
    seen = []  # list.append is atomic across the chunk threads
    for name in ("_eval_global_chunk", "_eval_local_batch"):
        def logging(*args, _real=getattr(inr, name), _name=name):
            seen.append(_name)
            return _real(*args)

        monkeypatch.setattr(inr, name, logging)
    runs = []
    for workers in (1, 2, 3):
        _pin_workers(monkeypatch, workers)
        with diff.Tape() as tape:
            loss = training.step_loss(model, *batch)
        grads = diff.backward(tape, loss)
        runs.append({k: grads[p].data for k, p in params.items()})
    chunks = seen.count("_eval_global_chunk")
    assert chunks >= 3 * 2 and seen.count("_eval_local_batch") > chunks
    assert all(run.keys() == params.keys() for run in runs)
    assert all(np.array_equal(run[k], runs[0][k]) for run in runs[1:] for k in params)
