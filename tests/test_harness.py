"""Metrics, equivariance evaluation, sweeps, Adam, training, checkpoints."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisr import __version__, diff, metrics
from equisr.data import DatasetSpec
from equisr.diff import Tensor
from equisr.errors import CheckpointError, ConfigError, EvaluationError, MetricError
from equisr.groups import rotate_image
from equisr.image import Image, pixel_coords
from equisr.inr import ModelConfig, build_model, super_resolve
from equisr.metrics import (
    SWEEP_HEADER,
    _budget_config,
    aggregate,
    equivariance_error,
    nmae,
    nmse,
    psnr,
    sweep,
    sweep_image,
)
from equisr.training import (
    TrainState,
    adam_step,
    init_train_state,
    load_checkpoint,
    loss_log_csv,
    save_checkpoint,
    step_loss,
    train,
)


class TestNormMetrics:
    def test_identical_images_give_zero(self):
        img = Image(np.random.default_rng(0).random((4, 4, 3)))
        assert nmse(img, img) == 0.0
        assert nmae(img, img) == 0.0

    def test_doubling_gives_one(self):
        img = Image(np.random.default_rng(1).random((4, 4, 3)) + 0.1)
        double = Image(2.0 * img.data)
        assert abs(nmse(double, img) - 1.0) <= 1e-12
        assert abs(nmae(double, img) - 1.0) <= 1e-12

    def test_three_four_vector(self):
        x0 = Image(np.array([[3.0, 4.0]])[:, :, None])
        xr = Image(np.zeros((1, 2, 1)))
        assert abs(nmse(xr, x0) - 1.0) <= 1e-15  # ||(-3,-4)||_2 / 5
        assert abs(nmae(xr, x0) - 1.0) <= 1e-15  # 7 / 7

    def test_zero_reference_rejected(self):
        z = Image(np.zeros((2, 2, 1)))
        with pytest.raises(MetricError):
            nmse(Image(np.ones((2, 2, 1))), z)

    def test_masked_metric(self):
        x0 = Image(np.ones((4, 4, 1)))
        xr = Image(np.ones((4, 4, 1)))
        xr.data[0, 0, 0] = 5.0  # corrupted corner
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        assert nmse(xr, x0, mask) == 0.0
        assert nmse(xr, x0) > 0.0


class TestPsnr:
    def test_definition(self):
        a = Image(np.zeros((10, 10, 1)))
        b = Image(np.full((10, 10, 1), 0.1))  # MSE = 0.01
        assert abs(psnr(a, b) - 20.0) <= 1e-12

    def test_identical_is_inf(self):
        img = Image(np.random.default_rng(2).random((3, 3, 3)))
        assert psnr(img, img) == float("inf")

    def test_uniform_noise_matches_direct_mse(self):
        rng = np.random.default_rng(3)
        a = Image(rng.random((16, 16, 3)))
        noise = rng.uniform(-0.1, 0.1, size=a.data.shape)
        b = Image(np.clip(a.data + noise, 0, 1))
        mse = float(np.mean((a.data - b.data) ** 2))
        assert abs(psnr(a, b) - 10 * np.log10(1 / mse)) <= 1e-12


def _tiny_model(t=4, seed=0, eps=0.0):
    cfg = ModelConfig(variant="liif", t=t, n=8 // max(t // 4, 1) if t >= 4 else 8,
                      blocks=1, p=3, width=8, psi_widths=(8,), eps=eps)
    return build_model(cfg, seed=seed)


class TestEquivarianceError:
    def test_identity_rotation_is_exact_zero(self):
        model = _tiny_model()
        img = Image(np.random.default_rng(4).random((12, 12, 3)))
        entry = equivariance_error(model, img, 0.0, 2.0)
        assert entry.nmse == 0.0 and entry.nmae == 0.0

    def test_equivariant_model_quarter_turn(self):
        model = _tiny_model()
        img = Image(np.random.default_rng(5).random((16, 16, 3)))
        entry = equivariance_error(model, img, np.pi / 2, 2.0, eps=0.0)
        assert entry.nmse <= 1e-6

    def test_plain_model_quarter_turn_large_error(self):
        cfg = ModelConfig(variant="liif", t=1, n=32, blocks=2, p=5, eps=0.0)
        model = build_model(cfg, seed=6)
        img = Image(np.random.default_rng(6).random((16, 16, 3)))
        entry = equivariance_error(model, img, np.pi / 2, 2.0)
        assert entry.nmse >= 0.3

    def test_symmetry_under_inverse_rotation(self):
        model = _tiny_model(seed=7)
        img = Image(np.random.default_rng(7).random((12, 12, 3)))
        fwd = equivariance_error(model, img, np.pi / 2, 2.0, eps=0.0)
        back = equivariance_error(model, rotate_image(img, np.pi / 2), -np.pi / 2,
                                  2.0, eps=0.0)
        assert abs(fwd.nmse - back.nmse) <= 1e-10

    def test_error_map_shape(self):
        model = _tiny_model(seed=8)
        img = Image(np.random.default_rng(8).random((8, 8, 3)))
        entry = equivariance_error(model, img, np.pi, 2.0)
        assert entry.err_map.data.shape == (16, 16, 1)

    def test_unknown_mask_rejected_before_any_sr(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("model work started before the mask spec was checked")
        model = _tiny_model(seed=8)
        monkeypatch.setattr(metrics, "super_resolve", no_work)
        monkeypatch.setattr(metrics, "build_model", no_work)
        img = Image(np.random.default_rng(8).random((8, 8, 3)))
        with pytest.raises(ConfigError):
            equivariance_error(model, img, np.pi, 2.0, mask="bogus")
        with pytest.raises(ConfigError):
            sweep([("eq", model.cfg)], [np.pi], [2.0], [8], mask="bogus")
        # an explicit array is no longer a mask spec either
        array = np.ones((16, 16), dtype=bool)
        with pytest.raises(ConfigError, match="auto"):
            equivariance_error(model, img, np.pi, 2.0, mask=array)
        with pytest.raises(ConfigError, match="auto"):
            sweep([("eq", model.cfg)], [np.pi], [2.0], [8], mask=array)


class TestSweep:
    def _cfgs(self):
        return [("eq", ModelConfig(variant="liif", t=4, n=2, blocks=1, p=3,
                                   width=8, psi_widths=(8,), eps=0.0))]

    def test_single_point_grid(self):
        csv = sweep(self._cfgs(), [np.pi / 2], [2.0], [12], seeds=[0],
                    data=DatasetSpec(kind="shapes", count=1, size=48))
        lines = csv.strip().split("\n")
        assert lines[0].startswith("# equisr ")
        assert lines[1].startswith("model,variant,t,angle_rad")
        assert len(lines) == 3

    def test_full_cross_product(self):
        csv = sweep(self._cfgs(), [np.pi / 4, np.pi / 8], [2.0, 4.0], [12],
                    t_values=[4, 8], seeds=[0],
                    data=DatasetSpec(kind="shapes", count=1, size=48))
        lines = csv.strip().split("\n")
        assert len(lines) == 2 + 2 * 2 * 2  # header rows + t x angle x scale

    def test_byte_identical_across_runs(self):
        kw = dict(angles=[np.pi / 2], scales=[2.0], resolutions=[12],
                  seeds=[0, 1], data=DatasetSpec(kind="stripes", count=1, size=48))
        assert sweep(self._cfgs(), **kw) == sweep(self._cfgs(), **kw)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(self._cfgs(), [], [2.0], [12], seeds=[0])

    def test_aggregate_mean_std(self):
        from equisr.metrics import EquivEntry
        dummy = Image(np.zeros((1, 1, 1)))
        entries = [EquivEntry(0, 2, 1.0, 2.0, dummy), EquivEntry(0, 2, 3.0, 4.0, dummy)]
        rep = aggregate(entries)
        assert rep.nmse_mean == 2.0 and abs(rep.nmse_std - np.sqrt(2.0)) <= 1e-12


def _reference_sweep(model_cfgs, angles, scales, resolutions, t_values=None, seeds=(0,),
                     data=None, mask="auto", eps=None, model=None):
    """The nested per-angle sweep loop: a model, image and y0 per grid point."""
    lines = [f"# equisr {__version__}", SWEEP_HEADER]
    for name, cfg in model_cfgs:
        for t in (t_values if t_values else [cfg.t]):
            run_cfg = _budget_config(cfg, t) if t != cfg.t else cfg
            for angle in angles:
                for scale_ in scales:
                    for res in resolutions:
                        entries = []
                        for seed in seeds:
                            m = model if model is not None else build_model(run_cfg, seed=seed)
                            img = sweep_image(data, res, seed)
                            entries.append(equivariance_error(
                                m, img, angle, scale_, eps=eps, mask=mask))
                        rep = aggregate(entries)
                        lines.append(
                            f"{name},{run_cfg.variant},{run_cfg.t},{angle:.12g},"
                            f"{scale_:.12g},{res},{len(seeds)},"
                            f"{rep.nmse_mean:.10e},{rep.nmse_std:.10e},"
                            f"{rep.nmae_mean:.10e},{rep.nmae_std:.10e}"
                        )
    return "\n".join(lines) + "\n"


class TestSweepOnePass:
    ANGLES = [np.pi / 2, np.pi, 3 * np.pi / 2, np.pi / 4, np.pi / 8]
    DATA = DatasetSpec(kind="shapes", count=1, size=48)

    def _cfgs(self):
        return [("eq", ModelConfig(variant="liif", t=4, n=2, blocks=1, p=3,
                                   width=8, psi_widths=(8,), eps=0.0)),
                ("plain", ModelConfig(variant="ope", t=1, n=4, blocks=1, p=3,
                                      width=8, psi_widths=(8,)))]

    @pytest.mark.parametrize("mask", ["auto", None])
    def test_matches_nested_reference_byte_for_byte(self, mask):
        kw = dict(t_values=[2, 4], seeds=[0, 1], data=self.DATA, mask=mask)
        grid = (self._cfgs(), self.ANGLES, [2.0, 2.7], [12, 16])
        assert sweep(*grid, **kw) == _reference_sweep(*grid, **kw)

    def test_given_model_matches_nested_reference(self):
        model = build_model(self._cfgs()[0][1], seed=3)
        kw = dict(seeds=[0, 1], data=self.DATA, model=model)
        grid = (self._cfgs()[:1], self.ANGLES, [2.0, 2.7], [12, 16])
        assert sweep(*grid, **kw) == _reference_sweep(*grid, **kw)

    @pytest.mark.parametrize("given_model", [False, True])
    def test_call_counts(self, monkeypatch, given_model):
        calls = {"super_resolve": 0, "build_model": 0, "sweep_image": 0}

        def counted(name):
            real = getattr(metrics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper
        model = build_model(self._cfgs()[0][1], seed=3) if given_model else None
        for name in calls:
            monkeypatch.setattr(metrics, name, counted(name))
        # a given model has one group order, so it is swept at that one (T = 1)
        t_values = None if given_model else [2, 4]
        scales, resolutions, seeds = [2.0, 2.7], [8, 12], [0, 1]
        angles = self.ANGLES[:3]
        csv = sweep(self._cfgs()[:1], angles, scales, resolutions, t_values=t_values,
                    seeds=seeds, data=self.DATA, model=model)
        T = len(t_values) if t_values else 1
        S, R, N, A = len(scales), len(resolutions), len(seeds), len(angles)
        assert len(csv.strip().split("\n")) == 2 + T * A * S * R
        assert calls["super_resolve"] == T * S * R * N * (1 + A)
        assert calls["build_model"] == (0 if given_model else T * N)
        assert calls["sweep_image"] == T * R * N

    def test_given_model_with_t_values_rejected(self):
        # the rows would be labelled with each t but all measured on the one model
        model = build_model(self._cfgs()[0][1], seed=3)
        with pytest.raises(ConfigError, match="t_values"):
            sweep(self._cfgs()[:1], [np.pi / 2], [2.0], [8], t_values=[2, 8],
                  data=self.DATA, model=model)


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = init_train_state(params)
        before = params["w"].data.copy()
        adam_step(state, {"w": np.zeros(2)}, lr=0.1)
        assert np.array_equal(params["w"].data, before)

    def test_first_step_is_signed_lr(self):
        g = np.array([0.3, -2.0, 5.0])
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = init_train_state(params)
        adam_step(state, {"w": g}, lr=0.01)
        # bias correction makes the first update -lr * g/(|g| + eps')
        assert np.max(np.abs(params["w"].data + 0.01 * np.sign(g))) <= 1e-5

    def test_quadratic_descent_oracle(self):
        # independent scalar recurrence for f(w) = w^2 from w = 1
        w = np.array([1.0])
        params = {"w": Tensor(w.copy(), requires_grad=True)}
        state = init_train_state(params)
        w_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        for step in range(100):
            g = 2.0 * params["w"].data.copy()
            adam_step(state, {"w": g}, lr=0.1)
            # reference recurrence
            g_ref = 2.0 * w_ref
            m_ref = 0.9 * m_ref + 0.1 * g_ref
            v_ref = 0.999 * v_ref + 0.001 * g_ref * g_ref
            mh = m_ref / (1 - 0.9 ** (step + 1))
            vh = v_ref / (1 - 0.999 ** (step + 1))
            w_ref -= 0.1 * mh / (np.sqrt(vh) + 1e-8)
            assert abs(params["w"].data[0] - w_ref) <= 1e-12
        assert abs(params["w"].data[0]) < 0.5


def _train_setup():
    cfg = ModelConfig(variant="liif", t=2, n=4, blocks=1, p=3, width=8,
                      psi_widths=(8,))
    data = DatasetSpec(kind="stripes", count=4, size=48, seed=0,
                       scale_lo=2.0, scale_hi=4.0)
    return cfg, data


class TestTrain:
    def test_bit_identical_loss_logs(self):
        cfg, data = _train_setup()
        a = train(cfg, data, steps=4, lr=1e-4, batch=2, patch=12, seed=3)
        b = train(cfg, data, steps=4, lr=1e-4, batch=2, patch=12, seed=3)
        assert loss_log_csv(a.loss_rows) == loss_log_csv(b.loss_rows)

    def test_learning_rate_never_increases(self):
        cfg, data = _train_setup()
        res = train(cfg, data, steps=7, lr=1e-3, decay_steps=3, batch=1,
                    patch=12, seed=0)
        lrs = [r[2] for r in res.loss_rows]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert lrs[0] == 1e-3 and lrs[-1] == 1e-3 * 0.25

    def test_non_finite_loss_aborts_with_step(self, monkeypatch):
        import equisr.training as training_mod
        cfg, data = _train_setup()
        real = training_mod.l1_loss
        calls = []

        def poisoned(pred, target):
            out = real(pred, target)
            calls.append(1)
            if len(calls) >= 3:  # third batch item = step index 2 at batch=1
                out.data = np.array(np.inf)
            return out

        monkeypatch.setattr(training_mod, "l1_loss", poisoned)
        with pytest.raises(EvaluationError) as exc:
            train(cfg, data, steps=6, batch=1, patch=12, seed=0)
        assert "step 2" in str(exc.value)

    def test_loss_history_matches_steps(self):
        cfg, data = _train_setup()
        res = train(cfg, data, steps=3, batch=1, patch=12, seed=1)
        assert [row[0] for row in res.loss_rows] == [0, 1, 2]
        assert res.state.step == 3


class TestTrainingInvariance:
    """With eps = 0 a training step's loss and gradients do not change when
    the whole batch turns by a group rotation: the taped path (chunks, splice,
    backward) is p2/p4 exact as serving is."""

    @staticmethod
    def _step(model, lr, coords, targets):
        with diff.Tape() as tape:
            loss = step_loss(model, lr, coords, targets)
        grads = diff.backward(tape, loss)
        return float(loss.data), [grads[p].data for p in model.named_parameters().values()]

    @settings(max_examples=60)
    @given(variant=st.sampled_from(["liif", "ope", "lte"]),
           turn=st.sampled_from([(2, 2), (4, 1), (4, 2), (4, 3)]),  # (t, quarter turns)
           batch=st.sampled_from([1, 2]), mode=st.sampled_from(["ensemble", "nearest"]),
           h=st.integers(3, 7), scale=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
           seed=st.integers(0, 2**16))
    def test_rotated_batch_gives_same_loss_and_gradients(self, variant, turn, batch, mode, h,
                                                         scale, seed):
        # not scale 1: there every query sits on its latent's center, where
        # lte's frequency head has an exact gradient of 0 and a computed one
        # of pure roundoff, which no relative bound can compare
        t, quarters = turn
        cfg = ModelConfig(variant=variant, t=t, n=4, blocks=1, p=3, width=8, psi_widths=(8,),
                          K=3, k_max=1, eps=0.0, mode=mode)
        model = build_model(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        hr = round(h * scale)
        lr = rng.random((batch, h, h, 3))
        coords = np.tile(pixel_coords(hr).reshape(-1, 2), (batch, 1))
        targets = rng.random((coords.shape[0], 3))
        loss, grads = self._step(model, lr, coords, targets)
        # np.rot90 turns each patch counter-clockwise; its queries turn with it
        quarter = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), quarters)
        turned_lr = np.ascontiguousarray(np.rot90(lr, quarters, axes=(1, 2)))
        turned_loss, turned_grads = self._step(model, turned_lr, coords @ quarter.T, targets)
        assert abs(turned_loss - loss) <= 1e-12 * abs(loss)
        for g, r in zip(turned_grads, grads):
            assert np.max(np.abs(g - r)) <= 1e-9 * np.max(np.abs(r))


# the encoder's records of every small model below, in manifest (name) order
_ENC_RECORDS = [
    ("enc.block0.conv0.b", [3]), ("enc.block0.conv0.w", [3, 2, 3, 3, 3]),
    ("enc.block0.conv1.b", [3]), ("enc.block0.conv1.w", [3, 2, 3, 3, 3]),
    ("enc.head.b", [3]), ("enc.head.w", [3, 1, 3, 3, 3]),
    ("enc.tail.b", [3]), ("enc.tail.w", [3, 2, 3, 3, 3]),
]
_PSI_RECORDS = [("inr.psi0.b", [5]), ("inr.psi0.w", [5, 4]),
                ("inr.psi1.b", [3]), ("inr.psi1.w", [3, 5])]


class TestCheckpoint:
    @pytest.mark.parametrize("variant,L,inr_records", [
        ("liif", 0, [("inr.W_in", [2, 4, 5]), ("inr.W_out1", [4, 4]), *_PSI_RECORDS]),
        ("liif", 2, [("inr.W_in", [2, 4, 5]), ("inr.W_out1", [4, 4]),
                     ("inr.mid0", [2, 4, 4]), ("inr.mid1", [2, 4, 4]), *_PSI_RECORDS]),
        ("ope", 0, [("inr.ope_head.b", [27]), ("inr.ope_head.w", [27, 2, 3, 1, 1])]),
        ("lte", 0, [("inr.W_out1", [4, 6]),
                    ("inr.amp_head.b", [6]), ("inr.amp_head.w", [6, 2, 3, 1, 1]),
                    ("inr.freq_head.b", [6]), ("inr.freq_head.w", [6, 2, 3, 1, 1]),
                    *_PSI_RECORDS]),
    ])
    def test_manifest_records_are_pinned(self, tmp_path, variant, L, inr_records):
        # equisr-ckpt-1 manifests load by these names and shapes
        cfg = ModelConfig(variant=variant, t=2, n=3, blocks=1, p=3, width=4, psi_widths=(5,),
                          K=3, k_max=1, L=L)
        json_path, _ = save_checkpoint(str(tmp_path / "c"), build_model(cfg))
        records = json.loads(Path(json_path).read_text())["params"]
        assert [(r["name"], r["shape"]) for r in records] == _ENC_RECORDS + inr_records

    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(ModelConfig(variant="lte", t=2, n=4, blocks=1, p=3,
                                        width=8, psi_widths=(8,), K=4), seed=9)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, model)
        back = load_checkpoint(prefix + ".json")
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.data, back.named_parameters()[name].data)
        assert back.cfg == model.cfg

    def test_missing_key_names_field(self, tmp_path):
        import json
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=4, psi_widths=()), seed=0)
        prefix = str(tmp_path / "c")
        json_path, _ = save_checkpoint(prefix, model)
        from pathlib import Path
        doc = json.loads(Path(json_path).read_text())
        del doc["params"]
        Path(json_path).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(json_path)
        assert exc.value.field == "params"

    def test_shape_mismatch_names_parameter(self, tmp_path):
        import json
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=4, psi_widths=()), seed=0)
        json_path, _ = save_checkpoint(str(tmp_path / "c"), model)
        from pathlib import Path
        doc = json.loads(Path(json_path).read_text())
        doc["params"][0]["shape"] = [1, 2, 3]
        Path(json_path).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(json_path)
        assert exc.value.field == doc["params"][0]["name"]

    @pytest.mark.parametrize("field, value", [
        ("offset", "abc"),
        ("offset", None),
        ("shape", 5),
    ])
    def test_malformed_record_types_name_parameter(self, tmp_path, field, value):
        import json
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=4, psi_widths=()), seed=0)
        json_path, _ = save_checkpoint(str(tmp_path / "c"), model)
        from pathlib import Path
        doc = json.loads(Path(json_path).read_text())
        doc["params"][0][field] = value
        Path(json_path).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(json_path)
        assert exc.value.field == doc["params"][0]["name"]

    @pytest.mark.parametrize("mutate, field", [
        (lambda doc: 5, "<root>"),
        (lambda doc: {**doc, "params": 5}, "params"),
        (lambda doc: {**doc, "params": [5] + doc["params"][1:]}, "params[0]"),
        (lambda doc: {**doc, "params": [{**doc["params"][0], "name": [1]}]}, "[1]"),
        (lambda doc: {**doc, "blob": None}, "blob"),
        (lambda doc: {**doc, "blob": 5}, "blob"),
        (lambda doc: {**doc, "model": {**doc["model"], "t": 0}}, "model"),
        (lambda doc: {**doc, "model": "liif"}, "model"),
    ], ids=["root-5", "params-5", "record-5", "name-list", "blob-null", "blob-5",
            "model-t-0", "model-str"])
    def test_malformed_manifest_structure_names_field(self, tmp_path, mutate, field):
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=4, psi_widths=()), seed=0)
        json_path, _ = save_checkpoint(str(tmp_path / "c"), model)
        doc = json.loads(Path(json_path).read_text())
        Path(json_path).write_text(json.dumps(mutate(doc)))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(json_path)
        assert exc.value.field == field

    def test_oversized_model_config_rejected_before_building(self, tmp_path):
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=4, psi_widths=()), seed=0)
        json_path, _ = save_checkpoint(str(tmp_path / "c"), model)
        doc = json.loads(Path(json_path).read_text())
        doc["model"]["width"] = 10 ** 9  # 10^18 floats of W_out1
        Path(json_path).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="limit") as exc:
            load_checkpoint(json_path)
        assert exc.value.field == "model"

    def test_wrong_version_rejected(self, tmp_path):
        import json
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=4, psi_widths=()), seed=0)
        json_path, _ = save_checkpoint(str(tmp_path / "c"), model)
        from pathlib import Path
        doc = json.loads(Path(json_path).read_text())
        doc["version"] = "equisr-ckpt-0"
        Path(json_path).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(json_path)
        assert exc.value.field == "version"


class TestCheckpointLayout:
    """The loader takes every record from the model config's layout."""

    CFG = ModelConfig(variant="lte", t=2, n=3, blocks=1, p=3, width=4, psi_widths=(5,), K=3)

    def _saved(self, tmp_path):
        json_path, bin_path = save_checkpoint(str(tmp_path / "c"), build_model(self.CFG, seed=4))
        return json_path, json.loads(Path(json_path).read_text()), Path(bin_path).read_bytes()

    def _refused(self, json_path, doc):
        Path(json_path).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(json_path)
        return exc.value.field

    def test_load_draws_no_model(self, tmp_path, monkeypatch):
        json_path, _, _ = self._saved(tmp_path)
        from equisr import inr

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew parameters")

        monkeypatch.setattr(inr, "_draw", no_draw)
        back = load_checkpoint(json_path)
        monkeypatch.undo()
        model = build_model(self.CFG, seed=4)
        assert back.cfg == model.cfg
        for name, p in model.named_parameters().items():
            assert np.array_equal(back.named_parameters()[name].data, p.data)

    def test_table_order_and_flags_match_build_model(self, tmp_path):
        json_path, _, _ = self._saved(tmp_path)
        back = load_checkpoint(json_path).named_parameters()
        assert list(back) == list(build_model(self.CFG).named_parameters())
        assert all(p.requires_grad and p.data.flags.writeable for p in back.values())

    def test_consistently_reordered_records_refused(self, tmp_path):
        # records, offsets and blob agree with each other, but not in name order
        json_path, doc, blob = self._saved(tmp_path)
        records = doc["params"]
        order = [1, 0] + list(range(2, len(records)))
        chunks, offset = [], 0
        for rec in (records[i] for i in order):
            size = 8 * int(np.prod(rec["shape"]))
            chunks.append(blob[rec["offset"]:rec["offset"] + size])
            rec["offset"] = offset
            offset += size
        doc["params"] = [records[i] for i in order]
        Path(json_path).with_suffix(".bin").write_bytes(b"".join(chunks))
        assert self._refused(json_path, doc) == records[1]["name"]

    def test_record_with_extra_key_refused(self, tmp_path):
        json_path, doc, _ = self._saved(tmp_path)
        doc["params"][2]["note"] = "extra"
        assert self._refused(json_path, doc) == doc["params"][2]["name"]

    @pytest.mark.parametrize("mutate", [
        lambda rec: rec.update(offset=float(rec["offset"])),
        lambda rec: rec.update(shape=[float(s) for s in rec["shape"]]),
        lambda rec: rec.update(shape=[s == 1 or s for s in rec["shape"]]),
    ], ids=["offset-float", "shape-float", "shape-true"])
    def test_values_must_have_their_json_types(self, tmp_path, mutate):
        # each value equals the layout's (8.0 == 8, true == 1) but is not
        # its JSON integer
        json_path, doc, _ = self._saved(tmp_path)
        rec = next(r for r in doc["params"] if r["name"] == "enc.head.w")  # shape [3, 1, 3, 3, 3]
        mutate(rec)
        assert self._refused(json_path, doc) == "enc.head.w"
