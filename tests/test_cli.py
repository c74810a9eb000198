"""End-to-end CLI behavior: commands, file outputs, exit codes."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import equisr
from equisr import __version__, cli, config, data, inr, metrics, parallel
from equisr.cli import main
from equisr.data import read_image, write_image
from equisr.errors import ConfigError
from equisr.image import Image
from equisr.inr import ModelConfig, build_model
from equisr.metrics import equivariance_error, sweep_image
from equisr.training import save_checkpoint


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestGenData:
    def test_writes_count_files_and_manifest(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "data": {"kind": "shapes", "count": 3, "size": 16,
                     "scale_range": [1.0, 1.0]},
        })
        out = tmp_path / "corpus"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert files == ["img_00000.ppm", "img_00001.ppm", "img_00002.ppm",
                         "manifest.csv"]
        # files decode as valid P6
        img = read_image(str(out / "img_00000.ppm"))
        assert (img.h, img.w, img.c) == (16, 16, 3)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "data": {"kind": "stripes", "count": 2, "size": 12,
                     "scale_range": [1.0, 1.0]},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gen-data", "--config", cfg, "--out", str(out1)])
        main(["gen-data", "--config", cfg, "--out", str(out2)])
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_file_dir_copy_lists_once_and_keeps_each_images_size_and_format(
            self, tmp_path, monkeypatch):
        src = tmp_path / "src"
        src.mkdir()
        rng = np.random.default_rng(0)
        gray = Image(rng.integers(0, 256, (20, 30, 1)) / 255.0)
        rgb = Image(rng.integers(0, 256, (16, 16, 3)) / 255.0)
        write_image(str(src / "a.pgm"), gray)
        write_image(str(src / "b.ppm"), rgb)
        cfg = _write_config(tmp_path, {"data": {"kind": "file-dir", "path": str(src)}})
        calls = []
        real = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: calls.append(path) or real(path))
        out = tmp_path / "corpus"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert calls == [str(src)]
        assert (out / "manifest.csv").read_text().split("\n")[2:] == [
            "0,img_00000.pgm,file-dir,30x20,0", "1,img_00001.ppm,file-dir,16,0", ""]
        assert (out / "img_00000.pgm").read_bytes() == (src / "a.pgm").read_bytes()
        assert (out / "img_00001.ppm").read_bytes() == (src / "b.ppm").read_bytes()


@pytest.mark.parametrize("command", ["gen-data", "train", "eval-equiv"])
def test_file_dir_without_images_is_one_config_error(tmp_path, capsys, command):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "notes.txt").write_text("not an image")
    cfg = _write_config(tmp_path, {"data": {"kind": "file-dir", "path": str(corpus)},
                                   "train": {"steps": 1, "patch": 4}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: data.path: directory {str(corpus)!r} holds no .ppm or .pgm image\n"
    assert not out.exists()


class TestEvalEquiv:
    def test_equivariant_model_quarter_turn(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "model": {"t": 4, "encoder": {"blocks": 1, "n": 2, "p": 3}},
            "eval": {"angles_deg": [90.0], "scales": [2.0], "resolutions": [12],
                     "seeds": [0], "eps": 0.0},
        })
        out = tmp_path / "r.csv"
        assert main(["eval-equiv", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# equisr ")
        row = lines[2].split(",")
        assert float(row[7]) <= 1e-6  # nmse_mean

    def test_empty_angle_list_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path, {"eval": {"angles_deg": []}})
        assert main(["eval-equiv", "--config", cfg, "--out",
                     str(tmp_path / "r.csv")]) == 1

    def test_error_maps_written(self, tmp_path, monkeypatch):
        ev = {"angles_deg": [180.0, 45], "scales": [2.0, 2.5], "resolutions": [8],
              "seeds": [0, 1], "eps": 0.0}
        cfg = _write_config(tmp_path, {
            "model": {"t": 2, "encoder": {"blocks": 1, "n": 2, "p": 3}}, "eval": ev})
        sr_calls = []
        real_sr = metrics.super_resolve
        monkeypatch.setattr(metrics, "super_resolve",
                            lambda *a, **kw: sr_calls.append(1) or real_sr(*a, **kw))
        maps_dir = tmp_path / "maps"
        assert main(["eval-equiv", "--config", cfg, "--out",
                     str(tmp_path / "r.csv"), "--error-maps", str(maps_dir)]) == 0
        # one pass: per seed and scale one y0 plus one rotated SR per angle
        A, S, R, N = (len(ev[k]) for k in ("angles_deg", "scales", "resolutions", "seeds"))
        assert len(sr_calls) == S * R * N * (1 + A)

        doc = config.load_config(cfg)
        model_cfg, data = config.model_config(doc), config.dataset_spec(doc)
        expected_dir = tmp_path / "expected"
        expected_dir.mkdir()
        rows = [f"# equisr {__version__}", "file,angle_deg,scale,resolution,seed,max_abs_error"]
        for angle_deg in ev["angles_deg"]:
            for scale in ev["scales"]:
                for res in ev["resolutions"]:
                    for seed in ev["seeds"]:
                        entry = equivariance_error(
                            build_model(model_cfg, seed=seed), sweep_image(data, res, seed),
                            np.deg2rad(angle_deg), scale, eps=0.0)
                        emap = entry.err_map.data
                        peak = float(emap.max())
                        name = f"err_a{angle_deg:g}_s{scale:g}_r{res}_seed{seed}.pgm"
                        write_image(str(expected_dir / name), Image(emap / peak if peak > 0 else emap))
                        rows.append(f"{name},{angle_deg},{scale},{res},{seed},{peak}")
        (expected_dir / "scales.csv").write_text("\n".join(rows) + "\n")
        assert sorted(os.listdir(maps_dir)) == sorted(os.listdir(expected_dir))
        assert len(os.listdir(maps_dir)) == A * S * R * N + 1
        for name in os.listdir(expected_dir):
            assert (maps_dir / name).read_bytes() == (expected_dir / name).read_bytes(), name

    def test_error_map_names_follow_each_cells_own_angle(self, tmp_path, monkeypatch):
        # the maps do not depend on the order in which sweep_cells yields cells
        cfg = _write_config(tmp_path, {
            "model": {"t": 2, "encoder": {"blocks": 1, "n": 2, "p": 3}},
            "eval": {"angles_deg": [180.0, 45], "scales": [2.0, 2.5], "resolutions": [8],
                     "seeds": [0], "eps": 0.0}})
        real = cli.sweep_cells
        a, b = tmp_path / "angle-major", tmp_path / "reversed"
        assert main(["eval-equiv", "--config", cfg, "--out", str(tmp_path / "a.csv"),
                     "--error-maps", str(a)]) == 0
        monkeypatch.setattr(cli, "sweep_cells", lambda *args, **kw: list(real(*args, **kw))[::-1])
        assert main(["eval-equiv", "--config", cfg, "--out", str(tmp_path / "b.csv"),
                     "--error-maps", str(b)]) == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b)) and len(names) == 5
        for name in names[:-1]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        rows = [sorted((d / "scales.csv").read_text().splitlines()) for d in (a, b)]
        assert rows[0] == rows[1]

    def test_defaults_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch):
        # chunk boundaries must not follow the thread count: liif's products
        # round differently per chunk size
        cfg = _write_config(tmp_path, config.defaults())
        outs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "_workers", lambda w=workers: w)
            out = tmp_path / f"w{workers}.csv"
            assert main(["eval-equiv", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_defaults_same_bytes_for_any_blas_thread_count(self, tmp_path):
        # OpenBLAS reads its thread count at start-up: one process per count
        cfg = _write_config(tmp_path, config.defaults())
        src = str(Path(equisr.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "equisr.cli", "eval-equiv", "--config", cfg,
                            "--out", str(out)], env=env, check=True, capture_output=True)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path, {"modle": {}})
        assert main(["eval-equiv", "--config", cfg, "--out",
                     str(tmp_path / "r.csv")]) == 1


@pytest.mark.parametrize("command,text,key", [
    ("eval-equiv", '{"model": {"t": 2.5}}', "model.t"),
    ("eval-equiv", '{"model": {"t": "abc"}}', "model.t"),
    ("eval-equiv", '{"model": {"encoder": {"blocks": 1.9}}}', "model.encoder.blocks"),
    ("eval-equiv", '{"model": {"inr": {"widths": [32.7, 64]}}}', "model.inr.widths"),
    ("eval-equiv", '{"model": {"inr": {"eps": "1e-3"}}}', "model.inr.eps"),
    ("eval-equiv", '{"model": {"encoder": 5}}', "model.encoder"),
    ("train", '{"train": {"steps": "abc"}}', "train.steps"),
    ("train", '{"train": {"steps": 2.5}}', "train.steps"),
    ("train", '{"train": {"lr": "x"}}', "train.lr"),
    ("train", '{"train": {"seed": -1}}', "train.seed"),
    ("train", '{"train": {"batch": 0}}', "train.batch"),
    ("train", '{"train": {"patch": 0}}', "train.patch"),
    ("eval-equiv", '{"eval": {"scales": ["x"]}}', "eval.scales"),
    ("eval-equiv", '{"eval": {"scales": [0.5]}}', "eval.scales"),
    ("eval-equiv", '{"eval": {"seeds": ["a"]}}', "eval.seeds"),
    ("eval-equiv", '{"eval": {"angles_deg": ["x"]}}', "eval.angles_deg"),
    ("eval-equiv", '{"eval": {"resolutions": [2.5]}}', "eval.resolutions"),
    ("eval-equiv", '{"eval": {"mask": "foo"}}', "eval.mask"),
    ("eval-equiv", '{"eval": {"eps": -1}}', "eval.eps"),
    ("eval-equiv", '{"eval": {"eps": 1e400}}', "eval.eps"),
    ("eval-equiv", '{"eval": {"eps": true}}', "eval.eps"),
    ("gen-data", '{"data": {"count": 2.9}}', "data.count"),
    ("gen-data", '{"data": {"size": 48.7}}', "data.size"),
    ("gen-data", '{"data": {"count": "abc"}}', "data.count"),
    ("gen-data", '{"data": {"cutoff": "x"}}', "data.cutoff"),
    ("gen-data", '{"data": {"scale_range": [2, "x"]}}', "data.scale_range"),
    ("gen-data", '{"data": {"scale_range": 4}}', "data.scale_range"),
    ("gen-data", '{"data": {"seed": -3}}', "data.seed"),
    ("gen-data", '{"model": {"t": 0}}', "model.t"),
    ("train", '{"data": {"count": true}}', "data.count"),
])
def test_malformed_config_is_one_usage_error_naming_its_key(tmp_path, capsys, command, text,
                                                             key):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model,key", [
    ({"inr": {"widths": [1000000000, 64]}}, "model.inr.widths"),
    ({"t": 64, "encoder": {"n": 256}}, "model"),
])
def test_oversized_model_is_one_usage_error(tmp_path, capsys, model, key):
    cfg = _write_config(tmp_path, {"model": model, "train": {"steps": 1}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert f"limit of {inr.MAX_PARAMETERS}" in err
    assert not (tmp_path / "out").exists()


class TestTrainAndSr:
    def test_train_then_eval_preserves_equivariance(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "model": {"t": 4, "encoder": {"blocks": 1, "n": 2, "p": 3},
                      "inr": {"widths": [8, 8]}},
            "data": {"kind": "stripes", "count": 2, "size": 48},
            "train": {"steps": 3, "batch": 1, "patch": 12},
            "eval": {"angles_deg": [90.0], "scales": [2.0], "resolutions": [12],
                     "seeds": [0], "eps": 0.0},
        })
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "ckpt.json").exists() and (out / "ckpt.bin").exists()
        loss_lines = (out / "loss.csv").read_text().strip().split("\n")
        assert loss_lines[1] == "step,loss,lr" and len(loss_lines) == 5

        result = tmp_path / "after.csv"
        assert main(["eval-equiv", "--config", cfg, "--ckpt",
                     str(out / "ckpt.json"), "--out", str(result)]) == 0
        row = result.read_text().strip().split("\n")[2].split(",")
        assert float(row[7]) <= 1e-6

    def test_train_on_mixed_channel_corpus_is_one_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(0)
        write_image(str(corpus / "a.pgm"), Image(rng.random((20, 30, 1))))
        write_image(str(corpus / "b.ppm"), Image(rng.random((16, 16, 3))))
        cfg = _write_config(tmp_path, {"data": {"kind": "file-dir", "path": str(corpus)},
                                       "train": {"steps": 1, "patch": 4}})
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: corpus image has 1 channels, model expects 3\n"
        assert not out.exists()

    def test_sr_shape_contract(self, tmp_path):
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=8, psi_widths=(8,)), seed=0)
        ckpt, _ = save_checkpoint(str(tmp_path / "m"), model)
        rng = np.random.default_rng(0)
        write_image(str(tmp_path / "in.ppm"),
                    Image(rng.integers(0, 256, (20, 20, 3)) / 255.0))
        out = tmp_path / "out.ppm"
        assert main(["sr", "--ckpt", ckpt, "--in", str(tmp_path / "in.ppm"),
                     "--scale", "2.5", "--out", str(out)]) == 0
        img = read_image(str(out))
        assert (img.h, img.w) == (50, 50)

    def test_sr_missing_input_is_io_error(self, tmp_path):
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=8, psi_widths=(8,)), seed=0)
        ckpt, _ = save_checkpoint(str(tmp_path / "m"), model)
        assert main(["sr", "--ckpt", ckpt, "--in", str(tmp_path / "nope.ppm"),
                     "--scale", "2", "--out", str(tmp_path / "o.ppm")]) == 2

    def _sr_inputs(self, tmp_path, side=8):
        model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3,
                                        width=8, psi_widths=(8,)), seed=0)
        ckpt, _ = save_checkpoint(str(tmp_path / "m"), model)
        write_image(str(tmp_path / "in.ppm"), Image(np.full((side, side, 3), 0.5)))
        return ckpt, str(tmp_path / "in.ppm")

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0.5"])
    def test_sr_bad_scale_is_usage_error(self, tmp_path, capsys, scale):
        ckpt, infile = self._sr_inputs(tmp_path)
        out = tmp_path / "o.ppm"
        assert main(["sr", "--ckpt", ckpt, "--in", infile, "--scale", scale,
                     "--out", str(out)]) == 1
        assert "--scale" in capsys.readouterr().err
        assert not out.exists()

    def test_sr_oversized_output_is_usage_error(self, tmp_path, capsys):
        ckpt, infile = self._sr_inputs(tmp_path)
        out = tmp_path / "o.ppm"
        assert main(["sr", "--ckpt", ckpt, "--in", infile, "--scale", "600",
                     "--out", str(out)]) == 1
        assert "limit of 16777216 (4096x4096)" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_checkpoint_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": "equisr-ckpt-1"}))
        assert main(["sr", "--ckpt", str(bad), "--in", "x.ppm",
                     "--scale", "2", "--out", "y.ppm"]) == 3

    def test_malformed_ppm_is_one_data_error(self, tmp_path, capsys):
        ckpt, _ = self._sr_inputs(tmp_path)
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n8 8\n255\n" + bytes(10))  # 10 of its 192 pixel bytes
        out = tmp_path / "o.ppm"
        assert main(["sr", "--ckpt", ckpt, "--in", str(bad), "--scale", "2",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "byte offset" in err
        assert not out.exists()


    def test_sr_grayscale_into_rgb_model_is_one_data_error(self, tmp_path, capsys):
        ckpt, _ = self._sr_inputs(tmp_path)
        gray = tmp_path / "gray.pgm"
        write_image(str(gray), Image(np.full((8, 8, 1), 0.5)))
        out = tmp_path / "o.ppm"
        assert main(["sr", "--ckpt", ckpt, "--in", str(gray), "--scale", "2",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: encoder expects 3 channels, image has 1\n"
        assert not out.exists()


class TestAtomicOutputs:
    """Every CLI output replaces its file whole or leaves it as it was."""

    _SMALL = {
        "model": {"t": 2, "encoder": {"blocks": 1, "n": 2, "p": 3}, "inr": {"widths": [8, 8]}},
        "data": {"kind": "stripes", "count": 2, "size": 48},
        "train": {"steps": 1, "batch": 1, "patch": 12},
        "eval": {"angles_deg": [90.0], "scales": [2.0], "resolutions": [8],
                 "seeds": [0], "eps": 0.0},
    }

    @staticmethod
    def _fail_partway(monkeypatch, target):
        """Writes to `target` stop with ENOSPC after half of the payload."""
        real_write, real_fdopen = data.atomic_write, os.fdopen

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, payload):
                self.fh.write(payload[:len(payload) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def write(path, payload):
            if os.path.abspath(path) != str(target):
                return real_write(path, payload)
            with monkeypatch.context() as m:
                m.setattr(os, "fdopen", lambda fd, mode: HalfWriter(real_fdopen(fd, mode)))
                return real_write(path, payload)

        monkeypatch.setattr(cli, "atomic_write", write)

    @pytest.mark.parametrize("command, target", [
        (["defaults", "--out", "{d}/defaults.json"], "defaults.json"),
        (["gen-data", "--config", "{cfg}", "--out", "{d}/corpus"], "corpus/manifest.csv"),
        (["eval-equiv", "--config", "{cfg}", "--out", "{d}/r.csv"], "r.csv"),
        (["eval-equiv", "--config", "{cfg}", "--out", "{d}/r.csv", "--error-maps", "{d}/maps"],
         "maps/scales.csv"),
        (["train", "--config", "{cfg}", "--out", "{d}/run"], "run/loss.csv"),
    ])
    def test_failed_write_leaves_earlier_file(self, tmp_path, monkeypatch, command, target):
        cfg = _write_config(tmp_path, self._SMALL)
        target = tmp_path / target
        target.parent.mkdir(exist_ok=True)
        target.write_text("earlier\n")
        self._fail_partway(monkeypatch, target)
        argv = [arg.format(d=tmp_path, cfg=cfg) for arg in command]
        assert main(argv) == 2  # an OSError is an I/O error
        assert target.read_text() == "earlier\n"
        assert not list(target.parent.glob("*.tmp"))


class TestGradcheckAndDefaults:
    def test_gradcheck_module_exits_zero(self, capsys):
        assert main(["gradcheck", "--module", "filters"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_gradcheck_unknown_module_usage_error(self):
        assert main(["gradcheck", "--module", "nonsense"]) == 1

    def test_defaults_json(self, tmp_path):
        out = tmp_path / "defaults.json"
        assert main(["defaults", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"model", "data", "train", "eval"}

    def test_every_command_runs_on_the_defaults(self, tmp_path):
        defaults = tmp_path / "defaults.json"
        assert main(["defaults", "--out", str(defaults)]) == 0
        doc = json.loads(defaults.read_text())
        doc["train"]["steps"] = 2
        cfg = _write_config(tmp_path, doc)
        corpus, run = tmp_path / "corpus", tmp_path / "run"
        assert main(["gen-data", "--config", cfg, "--out", str(corpus)]) == 0
        assert main(["train", "--config", cfg, "--out", str(run)]) == 0
        assert main(["sr", "--ckpt", str(run / "ckpt.json"), "--in",
                     str(corpus / "img_00000.ppm"), "--scale", "2.5",
                     "--out", str(tmp_path / "hr.ppm")]) == 0
        assert (read_image(str(tmp_path / "hr.ppm")).h, doc["data"]["size"]) == (120, 48)
        assert main(["eval-equiv", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 0

    @pytest.mark.parametrize("override", [
        {"train": {"patch": 24}},  # the former default
        {"data": {"size": 40}},
        {"data": {"scale_range": [2.0, 4.5], "size": 50}},
    ])
    def test_patch_larger_than_corpus_rejected(self, tmp_path, override):
        cfg = _write_config(tmp_path, override)
        with pytest.raises(ConfigError, match=r"train\.patch .* data\.scale_range\[1\] .* "
                                              r"data\.size >= \d+"):
            config.load_config(cfg)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1

    def test_patch_check_skips_file_dirs(self, tmp_path):
        cfg = _write_config(tmp_path, {"data": {"kind": "file-dir", "path": "x"},
                                       "train": {"patch": 24}})
        assert config.load_config(cfg)["train"]["patch"] == 24

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 1

    def test_help_available(self, capsys):
        assert main(["--help"]) == 0
        assert "equisr" in capsys.readouterr().out
        assert main(["train", "--help"]) == 0
        assert "--config" in capsys.readouterr().out
