"""Command-line front end.

Commands: gen-data, eval-equiv, train, sr, gradcheck, defaults.  Angles are
accepted in degrees and converted to radians internally.  Exit codes:
1 usage, 2 I/O, 3 data/checkpoint, 4 numeric (non-finite).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, config
from .data import atomic_write, corpus_images, csv_text, read_image, write_image
from .errors import (
    ConfigError,
    DomainError,
    EquisrError,
    EvaluationError,
)
from .image import Image
from .metrics import sweep_cells, sweep_csv
from .training import load_checkpoint, loss_log_csv, save_checkpoint, train

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="equisr",
        description="Rotation-equivariant arbitrary-scale super-resolution toolkit.",
        epilog="config defaults (also written by `equisr defaults`):\n"
               + config.defaults_json(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--version", action="version", version=f"equisr {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("gen-data", parents=[], help="materialize a corpus as PPM/PGM files")
    d.add_argument("--config", required=True, help="run config JSON (data section used)")
    d.add_argument("--out", required=True, help="output directory")

    e = sub.add_parser("eval-equiv", help="evaluate equivariance errors over a grid")
    e.add_argument("--config", required=True, help="run config JSON (model + eval sections)")
    e.add_argument("--ckpt", default=None, help="checkpoint manifest (random init when absent)")
    e.add_argument("--out", required=True, help="output CSV path")
    e.add_argument("--error-maps", default=None, help="directory for per-case error-map PGMs")

    t = sub.add_parser("train", help="train a model on the configured corpus")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True, help="output directory (checkpoint + loss log)")

    s = sub.add_parser("sr", help="super-resolve one PPM image")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--scale", type=float, required=True)
    s.add_argument("--out", required=True)

    g = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    g.add_argument("--module", default=None,
                   help="restrict to one module (diff, filters, inr, encoder)")

    f = sub.add_parser("defaults", help="write the default config as JSON")
    f.add_argument("--out", default=None, help="output path (stdout when absent)")
    return p


def _cmd_gen_data(args) -> int:
    doc = config.load_config(args.config)
    spec = config.dataset_spec(doc)
    images = corpus_images(spec)  # lists a file-dir before any output
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for i, img in enumerate(images):
        name = f"img_{i:05d}." + ("pgm" if img.c == 1 else "ppm")
        write_image(os.path.join(args.out, name), img)
        size = img.h if img.h == img.w else f"{img.w}x{img.h}"
        rows.append((i, name, spec.kind, size, spec.seed))
    text = csv_text("index,file,kind,size,seed", rows)
    atomic_write(os.path.join(args.out, "manifest.csv"), text.encode())
    print(f"wrote {len(rows)} images + manifest.csv to {args.out}")
    return 0


def _cmd_eval_equiv(args) -> int:
    doc = config.load_config(args.config)
    ev = doc["eval"]
    angles_deg = ev["angles_deg"]
    angles = [np.deg2rad(a) for a in angles_deg]
    mask = "auto" if ev["mask"] == "auto" else None
    cfg = config.model_config(doc)
    data = config.dataset_spec(doc)
    model = load_checkpoint(args.ckpt) if args.ckpt else None
    if model is not None:
        cfg = model.cfg
    cells = list(sweep_cells(
        [(cfg.variant if cfg.t > 1 else f"{cfg.variant}-plain", cfg)],
        angles, ev["scales"], ev["resolutions"],
        seeds=ev["seeds"], data=data, mask=mask, eps=ev["eps"], model=model,
    ))
    atomic_write(args.out, sweep_csv(cells).encode())
    print(f"wrote {args.out}")

    if args.error_maps:
        os.makedirs(args.error_maps, exist_ok=True)
        side_rows = []
        degrees = dict(zip(angles, angles_deg))  # as the config spells each angle
        for _, _, angle, scale, res, entries in cells:
            angle_deg = degrees[angle]
            for seed, entry in zip(ev["seeds"], entries):
                emap = entry.err_map.data
                peak = float(emap.max())
                name = f"err_a{angle_deg:g}_s{scale:g}_r{res}_seed{seed}.pgm"
                write_image(os.path.join(args.error_maps, name),
                            Image(emap / peak if peak > 0 else emap))
                side_rows.append((name, angle_deg, scale, res, seed, peak))
        text = csv_text("file,angle_deg,scale,resolution,seed,max_abs_error", side_rows)
        atomic_write(os.path.join(args.error_maps, "scales.csv"), text.encode())
        print(f"wrote {len(side_rows)} error maps to {args.error_maps}")
    return 0


def _cmd_train(args) -> int:
    doc = config.load_config(args.config)
    cfg = config.model_config(doc)
    data = config.dataset_spec(doc)
    tr = doc["train"]
    result = train(cfg, data, **tr)
    os.makedirs(args.out, exist_ok=True)
    ckpt_json, _ = save_checkpoint(os.path.join(args.out, "ckpt"), result.model)
    atomic_write(os.path.join(args.out, "loss.csv"), loss_log_csv(result.loss_rows).encode())
    final = result.loss_rows[-1][1]
    print(f"trained {tr['steps']} steps, final loss {final:.6f}; checkpoint at {ckpt_json}")
    return 0


def _cmd_sr(args) -> int:
    model = load_checkpoint(args.ckpt)
    img = read_image(args.infile)
    from .inr import super_resolve
    try:
        out = super_resolve(model, img, args.scale)
    except DomainError as e:  # a scale or output size super_resolve refuses
        raise ConfigError(f"--scale: {e}") from e
    write_image(args.out, Image(np.clip(out.data, 0.0, 1.0)))
    print(f"wrote {out.w}x{out.h} image to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .checks import run_all
    try:
        results = run_all(args.module)
    except KeyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name:28s} max_rel_err={r.max_rel_err:.3e} tol={r.tol:.0e}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return 0 if failed == 0 else EXIT_NUMERIC


def _cmd_defaults(args) -> int:
    text = config.defaults_json()
    if args.out:
        atomic_write(args.out, text.encode())
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "eval-equiv": _cmd_eval_equiv,
    "train": _cmd_train,
    "sr": _cmd_sr,
    "gradcheck": _cmd_gradcheck,
    "defaults": _cmd_defaults,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except EvaluationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except EquisrError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
