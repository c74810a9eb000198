"""Print one `name sha256` line per output of the package, to show bit identity.

It also prints one `chunks.*` line per query-chunk plan, to show that a change
leaves the plans alone.

Run it on two source trees and compare the lines; a refactor that keeps
every output bit-identical prints the same text for both:

    python tools/out_digests.py src > after.txt
    python tools/out_digests.py /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The outputs are:
  * `super_resolve` of one 16x16 image at scale 2.5 for liif/ope/lte x
    t in {1, 2, 4, 16} x both evaluation modes x eps in {the config's, 0};
  * per variant, a 4-step `train` (batch 4, patch 12) and a 2-step `train`
    at the benchmark's train-steps shape (stripes of size 96, batch 4,
    patch 24, whose INR queries are several chunks per step): their losses,
    checkpoint bytes and checkpoint manifest;
  * per variant, the table `load_checkpoint` returns for the 4-step
    checkpoint (names in table order, shapes, bytes, `requires_grad`) and
    that model's `super_resolve` of the 16x16 image at scale 2.5, as
    `load.<variant>`;
  * per variant and evaluation mode, every parameter gradient of one
    training step at that train-steps shape (the first batch a seed-0
    `train` draws, a seed-0 model), as `grads.<variant>.<mode>`, listed
    by parameter name;
  * per variant x t in {1, 4, 16}, plus liif at L = 2, the initial
    parameter table of `build_model` for seeds 0 and 1, listed by name,
    as `params.<variant>.t<t>[.L2]`;
  * the CLI's manifest.csv (gen-data), loss.csv, ckpt.bin and ckpt.json (train),
    eval-equiv CSV and scales.csv (--error-maps) on the default config,
    with train.steps cut to 4; then, on that train run's checkpoint, the
    `sr` output of a 16x16 PPM at scale 2.5 (`cli.sr.hr.ppm`) and the
    `eval-equiv --ckpt` CSV (`cli.eval-equiv.ckpt.csv`);
  * loss.csv and ckpt.bin of a 2-step `train` on that gen-data corpus read
    as a file-dir corpus (`cli.file-dir.*`);
  * the gen-data manifest.csv of a file-dir corpus holding one 30x20 PGM and
    one 24x16 PPM (`cli.file-dir.manifest.csv`);
  * every gradcheck case's `max_rel_err`;
  * the query chunks `inr.eval_global_batch` cuts for one 64x64 -> 256x256
    `super_resolve` per variant x t in {1, 4, 16} x both evaluation modes,
    as `chunks.<variant>.t<t>.<mode> <size>x<count> ...` (each chunk size
    and how many chunks have it), seen by wrapping `inr._eval_global_chunk`.
`OPENBLAS_NUM_THREADS` is 1 unless it is set: some products round
differently at other thread counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

VARIANTS = ("liif", "ope", "lte")


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _array_digest(arr) -> str:
    import numpy as np

    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return _digest(repr(arr.shape).encode() + arr.tobytes())


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return _digest(fh.read())


def _sr_image():
    """The 16x16 LR image every SR line super-resolves at scale 2.5."""
    import numpy as np

    from equisr.image import Image

    return Image(np.random.default_rng(0).random((16, 16, 3)))


def sr_lines():
    from dataclasses import replace

    from equisr.inr import ModelConfig, build_model, super_resolve

    img = _sr_image()
    for variant in VARIANTS:
        for t in (1, 2, 4, 16):
            for mode in ("ensemble", "nearest"):
                model = build_model(ModelConfig(variant=variant, t=t, mode=mode), seed=0)
                for label, run in (("cfg", model),
                                   ("0", replace(model, cfg=replace(model.cfg, eps=0.0)))):
                    out = super_resolve(run, img, 2.5)
                    yield f"sr.{variant}.t{t}.{mode}.eps{label}", _array_digest(out.data)


def chunk_lines():
    import collections

    import numpy as np

    from equisr import inr
    from equisr.image import Image
    from equisr.inr import ModelConfig, build_model, super_resolve

    img = Image(np.random.default_rng(0).random((64, 64, 3)))
    real = inr._eval_global_chunk
    sizes = []

    def counting(model, lats, X, *rest):
        sizes.append(X.shape[0])
        return real(model, lats, X, *rest)

    inr._eval_global_chunk = counting
    try:
        for variant in VARIANTS:
            for t in (1, 4, 16):
                for mode in ("ensemble", "nearest"):
                    sizes.clear()
                    super_resolve(build_model(ModelConfig(variant=variant, t=t, mode=mode)),
                                  img, 4.0)
                    plan = sorted(collections.Counter(sizes).items())
                    yield (f"chunks.{variant}.t{t}.{mode}",
                           " ".join(f"{size}x{count}" for size, count in plan))
    finally:
        inr._eval_global_chunk = real


def train_lines(tmp: str):
    from equisr.data import DatasetSpec
    from equisr.inr import ModelConfig
    from equisr.inr import super_resolve
    from equisr.training import load_checkpoint, save_checkpoint, train

    runs = (("", DatasetSpec(kind="stripes", count=2, size=48), dict(steps=4)),
            (".steps", DatasetSpec(kind="stripes", count=8, size=96, scale_lo=2.0, scale_hi=4.0),
             dict(steps=2, batch=4, patch=24)))
    for variant in VARIANTS:
        for label, data, kw in runs:
            result = train(ModelConfig(variant=variant), data, **kw)
            losses = json.dumps([row[1] for row in result.loss_rows]).encode()
            yield f"train{label}.{variant}.losses", _digest(losses)
            ckpt = os.path.join(tmp, f"ckpt{label}_{variant}")
            json_path, bin_path = save_checkpoint(ckpt, result.model)
            yield f"train{label}.{variant}.ckpt_bin", _file_digest(bin_path)
            yield f"train{label}.{variant}.ckpt_json", _file_digest(json_path)
            if not label:
                model = load_checkpoint(json_path)
                text = "".join(f"{name} {p.requires_grad} {_array_digest(p.data)}\n"
                               for name, p in model.named_parameters().items())
                text += _array_digest(super_resolve(model, _sr_image(), 2.5).data)
                yield f"load.{variant}", _digest(text.encode())


def grads_lines():
    import numpy as np

    from equisr import diff
    from equisr.data import DatasetSpec, sample_patch_pairs
    from equisr.inr import ModelConfig, build_model
    from equisr.training import step_loss

    spec = DatasetSpec(kind="stripes", count=8, size=96, scale_lo=2.0, scale_hi=4.0)
    pairs = sample_patch_pairs(spec, 24, 4, seed=(0, 0))
    batch = (np.stack([p.lr.data for p in pairs]), np.concatenate([p.coords for p in pairs]),
             np.concatenate([p.targets for p in pairs]))
    for variant in VARIANTS:
        for mode in ("ensemble", "nearest"):
            model = build_model(ModelConfig(variant=variant, mode=mode), seed=0)
            with diff.Tape() as tape:
                loss = step_loss(model, *batch)
            grads = diff.backward(tape, loss)
            text = "".join(f"{name} {_array_digest(grads[p].data) if p in grads else None}\n"
                           for name, p in sorted(model.named_parameters().items()))
            yield f"grads.{variant}.{mode}", _digest(text.encode())


def params_lines():
    from equisr.inr import ModelConfig, build_model

    cases = [(f"{variant}.t{t}", ModelConfig(variant=variant, t=t))
             for variant in VARIANTS for t in (1, 4, 16)]
    cases.append(("liif.t4.L2", ModelConfig(variant="liif", t=4, L=2)))
    for label, cfg in cases:
        text = "".join(f"{seed} {name} {_array_digest(p.data)}\n" for seed in (0, 1)
                       for name, p in sorted(build_model(cfg, seed).named_parameters().items()))
        yield f"params.{label}", _digest(text.encode())


def cli_lines(tmp: str):
    import numpy as np

    from equisr import config
    from equisr.cli import main
    from equisr.data import write_image
    from equisr.image import Image

    doc = config.defaults()
    doc["train"]["steps"] = 4
    cfg = os.path.join(tmp, "config.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    corpus, run = os.path.join(tmp, "corpus"), os.path.join(tmp, "run")
    sweep, maps = os.path.join(tmp, "equiv.csv"), os.path.join(tmp, "maps")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(["gen-data", "--config", cfg, "--out", corpus]),
                 main(["train", "--config", cfg, "--out", run]),
                 main(["eval-equiv", "--config", cfg, "--out", sweep, "--error-maps", maps])]
    if any(codes):
        raise SystemExit(f"a CLI command failed: exit codes {codes}")
    # sr and eval-equiv on the train run's checkpoint
    ckpt, ckpt_sweep = os.path.join(run, "ckpt.json"), os.path.join(tmp, "equiv-ckpt.csv")
    lr, hr = os.path.join(tmp, "lr.ppm"), os.path.join(tmp, "hr.ppm")
    write_image(lr, _sr_image())
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(["sr", "--ckpt", ckpt, "--in", lr, "--scale", "2.5", "--out", hr]),
                 main(["eval-equiv", "--config", cfg, "--ckpt", ckpt, "--out", ckpt_sweep])]
    if any(codes):
        raise SystemExit(f"a CLI command on the checkpoint failed: exit codes {codes}")
    for name, path in (("manifest.csv", os.path.join(corpus, "manifest.csv")),
                       ("loss.csv", os.path.join(run, "loss.csv")),
                       ("ckpt.bin", os.path.join(run, "ckpt.bin")),
                       ("ckpt.json", ckpt),
                       ("eval-equiv.csv", sweep),
                       ("scales.csv", os.path.join(maps, "scales.csv")),
                       ("sr.hr.ppm", hr),
                       ("eval-equiv.ckpt.csv", ckpt_sweep)):
        yield f"cli.{name}", _file_digest(path)
    # a 2-step train on the gen-data corpus, read back as a file-dir corpus
    doc["data"].update(kind="file-dir", path=corpus)
    doc["train"]["steps"] = 2
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    run = os.path.join(tmp, "run-file-dir")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--config", cfg, "--out", run])
    if code:
        raise SystemExit(f"train on the file-dir corpus failed: exit code {code}")
    for name in ("loss.csv", "ckpt.bin"):
        yield f"cli.file-dir.{name}", _file_digest(os.path.join(run, name))
    # gen-data copying a file-dir corpus of one PGM and one non-square PPM
    mixed, copy = os.path.join(tmp, "mixed"), os.path.join(tmp, "mixed-copy")
    os.makedirs(mixed)
    rng = np.random.default_rng(0)
    write_image(os.path.join(mixed, "a.pgm"), Image(rng.integers(0, 256, (20, 30, 1)) / 255.0))
    write_image(os.path.join(mixed, "b.ppm"), Image(rng.integers(0, 256, (16, 24, 3)) / 255.0))
    doc["data"]["path"] = mixed
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["gen-data", "--config", cfg, "--out", copy])
    if code:
        raise SystemExit(f"gen-data on the file-dir corpus failed: exit code {code}")
    yield "cli.file-dir.manifest.csv", _file_digest(os.path.join(copy, "manifest.csv"))


def gradcheck_lines():
    from equisr.checks import run_all

    for r in run_all():
        yield f"gradcheck.{r.name}", _digest(repr(r.max_rel_err).encode())


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: python tools/out_digests.py SRC_DIR", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.abspath(argv[0]))
    with tempfile.TemporaryDirectory() as tmp:
        for lines in (sr_lines(), train_lines(tmp), grads_lines(), params_lines(), cli_lines(tmp),
                      gradcheck_lines(), chunk_lines()):
            for name, digest in lines:
                print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
