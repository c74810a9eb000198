#!/usr/bin/env python3
"""The equisr benchmark: three closed-loop, single-client workloads.

    python3 bench/run.py --workload sr-mixed --seed 1 --seconds 20 --trace 0

Workloads (one client, each op starts when the previous one returns):

* sr-mixed     `equisr sr`-style requests: read an LR PPM, super_resolve,
               clip, write the HR PPM.  liif/ope/lte round robin, LR sides
               48 and 64, scales over [2, 4].
* train-steps  `training.train(cfg, stripes, steps=4, batch=4, patch=24)`
               per op, liif/ope/lte round robin.
* equiv-sweep  one `metrics.sweep` call per op (one config, one seed,
               resolution 32): p4 quarter turns at eps=0 with the scale
               cycling over {2, 2.7, 3}, and every fourth op a p8 case.

A run sets up its inputs, runs one untimed warm-up op per op kind, then
runs whole cycles of its own ops until `--seconds` of op time have passed.
After each cycle it sets up again (the median set-up time is `setup_s`)
and runs one repetition of a small cross-check of the two other op kinds,
so that every end-to-end metric is measured on every workload.  Each op's
output is checked outside its timed region; a raise or a failed check is a
failed op.

With `--trace 1` the run instead runs its own ops untraced for half the
time, then repeats each of those ops untraced and traced back to back and
prints the per-layer metrics.  Spans go to `.bench_out/`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units are the ones
declared in BENCHMARK.json at the repository root.
"""

import os

# One BLAS thread: small matmuls slow down 50-370x when a second BLAS
# thread contends for a core on a 2-core box.  Must precede the numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    from equisr import data, inr, metrics, training
    from equisr.data import DatasetSpec
    from equisr.image import Image
    from equisr.inr import ModelConfig
    from tracer import Tracer
except ImportError as exc:
    sys.exit(f"bench: cannot import equisr from {ROOT / 'src'}: {exc}")

VARIANTS = ("liif", "ope", "lte")
WORKLOADS = ("sr-mixed", "train-steps", "equiv-sweep")
MIN_REPS = 3  # cross-check repetitions per run, at least
SETUPS_PER_REP = 3
GOLDEN_RTOL = 1e-6  # relative tolerance on reference output norms
P4_EXACT = 1e-6  # NMSE at or below which a p4 row counts as exact
GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
SR_SIDES = (48, 64)
SR_IMAGES = 4  # corpus images per LR side
CROSS_SIDE = 32  # LR side of the sr cross-check requests
EQUIV_SCALES = (2.0, 2.7, 3.0)  # 3 is kept: it shows the eps=0 tie defect
QUARTER_TURNS = (math.pi / 2, math.pi, 3 * math.pi / 2)
EIGHTH_TURNS = (math.pi / 4, 3 * math.pi / 4)
TRAIN_STEPS, TRAIN_BATCH, TRAIN_PATCH = 4, 4, 24


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    tmp: Path
    models: dict  # variant -> INRModel loaded from a checkpoint
    lr_paths: dict  # LR side -> list of PPM paths
    stripes: DatasetSpec
    shapes: DatasetSpec
    probe: Image  # 16x16 image for the p4 probe


def set_up(seed: int, tmp_root: Path) -> Inputs:
    """Build every input of a run from the seed: checkpoints, PPMs, corpora."""
    tmp = Path(tempfile.mkdtemp(dir=tmp_root, prefix="setup-"))
    models = {}
    for v in VARIANTS:
        built = inr.build_model(ModelConfig(variant=v), seed=seed)
        json_path, _ = training.save_checkpoint(str(tmp / v), built)
        models[v] = training.load_checkpoint(json_path)  # as the CLI loads it
    lr_paths = {}
    for side in (CROSS_SIDE, *SR_SIDES):
        spec = DatasetSpec(kind="smooth-field", count=SR_IMAGES, size=side, seed=seed)
        lr_paths[side] = []
        for i in range(SR_IMAGES):
            path = tmp / f"lr{side}_{i}.ppm"
            data.write_image(str(path), data.gen_synthetic(spec, i))
            lr_paths[side].append(path)
    # the default config's corpus cannot train (patch 24 at scale 4 needs
    # side >= 96), so train-steps uses acceptance criterion 8's corpus
    stripes = DatasetSpec(kind="stripes", count=8, size=96, seed=seed,
                          scale_lo=2.0, scale_hi=4.0)
    shapes = DatasetSpec(kind="shapes", count=1, size=48)  # sweep sets the seed
    probe = data.gen_synthetic(DatasetSpec(kind="smooth-field", count=1, size=16, seed=seed), 0)
    return Inputs(tmp, models, lr_paths, stripes, shapes, probe)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str  # sr | train | equiv
    variant: str
    seed: int
    scale: float = 2.0
    side: int = 48  # sr: LR side
    image: int = 0  # sr: corpus index
    group: str = "p4"  # equiv: p4 | p8
    res: int = 32  # equiv: test image resolution
    steps: int = TRAIN_STEPS  # train
    batch: int = TRAIN_BATCH  # train


@dataclass
class Record:
    op: Op
    ms: float = 0.0
    ok: bool = False
    error: str = ""
    info: dict = field(default_factory=dict)


def _p4_probe(model, img: Image) -> float:
    """Quarter-turn NMSE at eps=0, scale 2: about 1e-15 for a p4-exact model.

    One quarter turn generates p4, so one angle keeps the per-op check cheap.
    """
    return metrics.equivariance_error(model, img, math.pi / 2, 2.0, eps=0.0).nmse


def _sr(inputs: Inputs, op: Op, rec: Record) -> None:
    model = inputs.models[op.variant]
    out_path = inputs.tmp / "hr.ppm"
    t0 = time.perf_counter()
    img = data.read_image(str(inputs.lr_paths[op.side][op.image]))
    y = inr.super_resolve(model, img, op.scale)
    y = Image(np.clip(y.data, 0.0, 1.0))
    data.write_image(str(out_path), y)
    rec.ms = (time.perf_counter() - t0) * 1e3
    side_out = int(math.floor(op.scale * op.side + 0.5))
    if y.data.shape != (side_out, side_out, 3):
        raise AssertionError(f"output shape {y.data.shape}, expected {side_out}^2 x 3")
    header = len(b"P6\n%d %d\n255\n" % (side_out, side_out))
    if out_path.stat().st_size != header + 3 * side_out * side_out:
        raise AssertionError("written PPM has the wrong size")
    rec.info["pixels"] = side_out * side_out


def _train(inputs: Inputs, op: Op, rec: Record):
    t0 = time.perf_counter()
    result = training.train(ModelConfig(variant=op.variant), inputs.stripes,
                            steps=op.steps, batch=op.batch, patch=TRAIN_PATCH, seed=op.seed)
    rec.ms = (time.perf_counter() - t0) * 1e3
    losses = [row[1] for row in result.loss_rows]
    if len(losses) != op.steps or not all(math.isfinite(x) for x in losses):
        raise AssertionError(f"bad loss log {losses}")

    def check():  # calls into the library, so it runs outside any tracing
        json_path, _ = training.save_checkpoint(str(inputs.tmp / "trained"), result.model)
        reloaded = training.load_checkpoint(json_path).named_parameters()
        for name, p in result.model.named_parameters().items():
            if not np.array_equal(p.data, reloaded[name].data):
                raise AssertionError(f"checkpoint round trip changed {name}")
        err = _p4_probe(result.model, inputs.probe)
        if not err <= P4_EXACT:
            raise AssertionError(f"trained weights fail the p4 probe: NMSE {err:.3e}")
    return check


def _equiv(inputs: Inputs, op: Op, rec: Record) -> None:
    cfg = ModelConfig(variant=op.variant)
    if op.group == "p4":
        angles, t_values, eps = QUARTER_TURNS, None, 0.0
    else:  # t = 8 at the same channel budget, default eps, auto mask
        angles, t_values, eps = EIGHTH_TURNS, [8], None
    t0 = time.perf_counter()
    csv_text = metrics.sweep([(op.variant, cfg)], angles, [op.scale], [op.res],
                             t_values=t_values, seeds=[op.seed], data=inputs.shapes,
                             mask="auto", eps=eps)
    rec.ms = (time.perf_counter() - t0) * 1e3
    lines = csv_text.rstrip("\n").split("\n")
    if not lines[0].startswith("# equisr") or lines[1] != metrics.SWEEP_HEADER:
        raise AssertionError("sweep CSV has the wrong header")
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != len(angles) or any(len(r) != 11 for r in rows):
        raise AssertionError(f"sweep CSV has {len(rows)} rows, grid implies {len(angles)}")
    numbers = [[float(x) for x in r[2:]] for r in rows]  # ValueError if unparsable
    if not all(math.isfinite(x) for r in numbers for x in r):
        raise AssertionError("non-finite value in sweep CSV")
    nmse = [r[5] for r in numbers]
    rec.info["rows"] = len(rows)
    if op.group == "p4":
        rec.info["p4_exact"] = sum(x <= P4_EXACT for x in nmse)


OP_FUNCS = {"sr": _sr, "train": _train, "equiv": _equiv}


def run_op(inputs: Inputs, op: Op, tracer=None) -> Record:
    rec = Record(op)
    try:
        check = OP_FUNCS[op.kind](inputs, op, rec)
        if check is not None:
            with tracer.suspended() if tracer else contextlib.nullcontext():
                check()
        rec.ok = True
    except Exception as exc:  # a failed op is counted, not fatal
        rec.error = f"{type(exc).__name__}: {exc}"
        print(f"# op failed: {op} -> {rec.error}", file=sys.stderr)
    return rec


# ---------------------------------------------------------------------------
# schedules: op lists are pure functions of (seed, cycle index)
# ---------------------------------------------------------------------------

def _op_seed(seed: int, cycle: int, slot: int) -> int:
    return seed * 100_000 + cycle * 32 + slot


def sr_cycle(seed: int, c: int) -> list[Op]:
    """One request per (variant, LR side).

    Cycle c serves scale 4 - 2 * frac(c * golden ratio), less a seeded
    jitter of up to 0.02: a low-discrepancy cover of [2, 4] that starts
    with the largest request (64 -> 256, one 65,536-query chunk), so
    every run reaches the same peak memory.
    """
    rng = np.random.default_rng((seed, c, 1))
    base = 4.0 - 2.0 * ((c * GOLDEN_RATIO) % 1.0)
    ops = []
    for slot, (side, v) in enumerate((s, v) for s in SR_SIDES for v in VARIANTS):
        scale = max(2.0, base - 0.02 * rng.random())
        ops.append(Op("sr", v, _op_seed(seed, c, slot), scale=scale, side=side,
                      image=c % SR_IMAGES))
    return ops


def train_cycle(seed: int, c: int) -> list[Op]:
    return [Op("train", v, _op_seed(seed, c, slot)) for slot, v in enumerate(VARIANTS)]


def equiv_cycle(seed: int, c: int) -> list[Op]:
    """Three p4 ops (one per variant) at one scale, then one p8 op."""
    scale = EQUIV_SCALES[c % len(EQUIV_SCALES)]
    ops = [Op("equiv", v, _op_seed(seed, c, slot), scale=scale)
           for slot, v in enumerate(VARIANTS)]
    ops.append(Op("equiv", VARIANTS[c % len(VARIANTS)], _op_seed(seed, c, 3),
                  scale=2.0, group="p8"))
    return ops


CYCLES = {"sr-mixed": sr_cycle, "train-steps": train_cycle, "equiv-sweep": equiv_cycle}


def cross_check(workload: str, seed: int, r: int) -> list[Op]:
    """Repetition r of small ops of the two kinds the workload does not run.

    The run contract asks for every end-to-end metric on every workload; on
    a workload other than its own, a metric comes from these reduced ops
    (sr: LR 32 at scale 2; train: steps=1, batch=1; equiv: resolution 16),
    so compare a metric's values only within one workload.
    """
    c = 900 + r
    ops = []
    for k in range(2):  # sr and train micro-ops are short: two of each
        if workload != "sr-mixed":
            ops += [Op("sr", v, _op_seed(seed, c, 3 * k + i), scale=2.0, side=CROSS_SIDE,
                       image=(2 * r + k) % SR_IMAGES) for i, v in enumerate(VARIANTS)]
        if workload != "train-steps":
            ops += [Op("train", v, _op_seed(seed, c, 9 + 3 * k + i), steps=1, batch=1)
                    for i, v in enumerate(VARIANTS)]
    if workload != "equiv-sweep":
        ops += [Op("equiv", v, _op_seed(seed, c, 18 + i), scale=s, res=16)
                for i, (v, s) in enumerate(zip(VARIANTS, (3.0, 2.0, 2.7)))]
        ops.append(Op("equiv", "liif", _op_seed(seed, c, 21), res=16, group="p8"))
    return ops


def warm_up(workload: str, seed: int) -> list[Op]:
    """One untimed op per kind the run measures, so lazy caches and the
    allocator settle before timing starts."""
    first = {}
    for op in CYCLES[workload](seed, 0) + cross_check(workload, seed, 0):
        first.setdefault(op.kind, op)
    return list(first.values())


def run_window(inputs: Inputs, workload: str, seed: int, seconds: float,
               between=None) -> list[Record]:
    """Whole cycles until `seconds` of op time have passed (at least one).

    Stopping only at cycle ends keeps every run's op mix balanced across
    variants and sizes; a failed op counts its wall time.  `between(c)`
    runs after cycle c, outside the op-time budget.
    """
    records, spent, c = [], 0.0, 0
    while spent < seconds:
        for op in CYCLES[workload](seed, c):
            t0 = time.perf_counter()
            rec = run_op(inputs, op)
            records.append(rec)
            spent += rec.ms / 1e3 if rec.ok else time.perf_counter() - t0
        if between is not None:
            records += between(c)
        c += 1
    return records


def timed_set_up(seed: int, tmp_root: Path, setups: list[float]) -> Inputs:
    t0 = time.perf_counter()
    inputs = set_up(seed, tmp_root)
    setups.append(time.perf_counter() - t0)
    return inputs


def measure(inputs: Inputs, workload: str, seed: int, seconds: float,
            tmp_root: Path, setups: list[float]) -> list[Record]:
    """The untraced run: home cycles, each followed by one cross-check
    repetition and one more set-up, so that every metric's samples (and the
    set-up samples) spread over the whole run rather than one slow phase
    of a shared machine."""
    reps = 0

    def between(c):
        nonlocal reps
        reps += 1
        for _ in range(SETUPS_PER_REP):
            timed_set_up(seed, tmp_root, setups)
        return [run_op(inputs, op) for op in cross_check(workload, seed, c)]

    records = run_window(inputs, workload, seed, seconds, between)
    while reps < MIN_REPS:
        records += between(reps)
    return records


# ---------------------------------------------------------------------------
# end-of-run gates
# ---------------------------------------------------------------------------

def golden_norms() -> dict:
    """Output norms of fixed requests: seed-0 models, seed-0 24x24 image."""
    img = data.gen_synthetic(DatasetSpec(kind="smooth-field", count=1, size=24, seed=0), 0)
    out = {}
    for v in VARIANTS:
        model = inr.build_model(ModelConfig(variant=v), seed=0)
        for scale in (2.7, 3.5):
            y = np.clip(inr.super_resolve(model, img, scale).data, 0.0, 1.0)
            out[f"{v}@{scale}"] = float(np.linalg.norm(y))
    return out


def end_gates(inputs: Inputs, records: list[Record]) -> list[str]:
    """Model-level checks; a failure fails every sr op served by that model."""
    problems = []
    bad = set()
    for v, model in inputs.models.items():
        err = _p4_probe(model, inputs.probe)
        if not err <= P4_EXACT:
            problems.append(f"{v} checkpoint fails the p4 probe: NMSE {err:.3e}")
            bad.add(v)
    reference = json.loads(REFERENCE_PATH.read_text())
    for key, norm in golden_norms().items():
        ref = reference[key]
        if not abs(norm - ref) <= GOLDEN_RTOL * abs(ref):
            problems.append(f"{key} output norm {norm!r} differs from reference {ref!r}")
            bad.add(key.split("@")[0])
    for rec in records:
        if rec.op.kind == "sr" and rec.op.variant in bad and rec.ok:
            rec.ok, rec.error = False, "model failed an end-of-run gate"
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _p90(values) -> float:
    return float(np.percentile(values, 90))


def _need(values, what: str):
    if not values:
        raise RuntimeError(f"no successful {what} ops to measure")
    return values


def end_to_end(records: list[Record], setups: list[float]) -> dict:
    ok = [r for r in records if r.ok]
    sr = _need([r for r in ok if r.op.kind == "sr"], "sr")
    train = _need([r for r in ok if r.op.kind == "train"], "train")
    equiv = _need([r for r in ok if r.op.kind == "equiv"], "equiv")
    out = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops_ok_frac": len(ok) / len(records),
        "sr_ms_p50": statistics.median(r.ms for r in sr),
        "sr_ms_p90": _p90([r.ms for r in sr]),
    }
    for v in VARIANTS:  # a request's rate barely depends on its size
        out[f"sr_mpix_s.{v}"] = statistics.median(_need(
            [r.info["pixels"] / (r.ms * 1e3) for r in sr if r.op.variant == v], f"sr {v}"))
    for v in VARIANTS:
        out[f"train_step_ms.{v}"] = statistics.median(_need(
            [r.ms / r.op.steps for r in train if r.op.variant == v], f"train {v}"))
    out["train_step_ms_p90"] = _p90([r.ms / r.op.steps for r in train])
    # Balanced over case cells (group, variant, scale, resolution): the
    # value does not depend on how often the run happened to visit a cell.
    cells: dict[tuple, list[Record]] = {}
    for r in equiv:
        cells.setdefault((r.op.group, r.op.variant, r.op.scale, r.op.res), []).append(r)
    rows = sum(c[0].info["rows"] for c in cells.values())
    secs = sum(statistics.median(r.ms for r in c) for c in cells.values()) / 1e3
    out["equiv_cases_s"] = rows / secs
    out["equiv_op_ms_p90"] = _p90([r.ms for r in equiv])
    p4 = [c for key, c in cells.items() if key[0] == "p4"]
    _need(p4, "p4 equiv")
    out["p4_exact_frac"] = statistics.mean(
        sum(r.info["p4_exact"] for r in c) / sum(r.info["rows"] for r in c) for c in p4)
    return out


def per_layer(tracer, records: list[Record], untraced_ms: float) -> dict:
    """Per-op layer metrics from the traced phase."""
    n = len(records)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, op_id = span
        if op_id == "setup":
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
    setup_total = sum(end - start for name, start, end, _, op_id in tracer.spans
                      if op_id == "setup" and name in ("training.save_checkpoint",
                                                       "training.load_checkpoint"))

    def ms(seconds: float) -> float:  # summed over the traced ops -> per op
        return seconds * 1e3 / n

    query_s = own.get("inr.eval_global_batch", 0.0)
    out = {
        "encoder.fwd_ms": ms(own.get("encoder.encode_t", 0.0)),
        "filters.kernel_ms": ms(total.get("filters.lifting_kernel", 0.0)
                                + total.get("filters.group_kernel", 0.0)),
        "filters.kernel_calls": (calls.get("filters.lifting_kernel", 0)
                                 + calls.get("filters.group_kernel", 0)) / n,
        "inr.latents_ms": ms(own.get("inr.compute_latents", 0.0)),
        "inr.query_ms": ms(query_s),
        "inr.local_evals": tracer.local_evals / n,
        "inr.ns_per_local_eval": query_s * 1e9 / max(tracer.local_evals, 1),
        "diff.tape_entries": tracer.tape_entries / max(tracer.backward_calls, 1),
        "diff.backward_ms": ms(total.get("diff.backward", 0.0)),
    }
    for p in ("conv2d", "matmul", "gather", "concat", "mul", "add", "sum", "relu",
              "reshape", "sin", "cos"):
        st = tracer.prims[p]
        out[f"diff.calls.{p}"] = st.calls / n
        out[f"diff.fwd_ms.{p}"] = ms(st.fwd_s)
        out[f"diff.bwd_ms.{p}"] = ms(st.bwd_s)
        out[f"diff.out_mb.{p}"] = st.out_bytes / 1e6 / n
    out.update({
        "diff.bwd_wasted_mb": tracer.bwd_wasted_bytes / 1e6 / n,
        "training.adam_ms": ms(total.get("training.adam_step", 0.0)),
        "training.ckpt_ms": setup_total * 1e3,
        "data.sample_ms": ms(own.get("data.sample_patch_pairs", 0.0)),
        "data.io_ms": ms(total.get("data.read_image", 0.0) + total.get("data.write_image", 0.0)),
        "data.synth_ms": ms(total.get("data.gen_synthetic", 0.0)
                            + total.get("data.sweep_image", 0.0)),
        "groups.rotate_ms": ms(total.get("groups.rotate_image", 0.0)),
        "metrics.self_ms": ms(own.get("metrics.equivariance_error", 0.0)),
        "trace_overhead_frac": sum(r.ms for r in records) / untraced_ms - 1.0,
    })
    return out


def traffic_report(tracer, records: list[Record]) -> list[str]:
    """Per-variant time split of each op kind, from the spans."""
    by_op: dict[int, dict[str, float]] = {}
    for span in tracer.spans:
        name, start, end, _, op_id = span
        if isinstance(op_id, int):
            d = by_op.setdefault(op_id, {})
            d[name] = d.get(name, 0.0) + (end - start) * 1e3
    lines = []
    for v in VARIANTS:
        mine = [(i, r) for i, r in enumerate(records) if r.op.variant == v and r.ok]
        if not mine:
            continue
        op_ms = sum(r.ms for _, r in mine)
        part = lambda name: sum(by_op.get(i, {}).get(name, 0.0) for i, _ in mine)  # noqa: E731
        enc, query, bwd = part("encoder.encode_t"), part("inr.eval_global_batch"), part("diff.backward")
        kind = mine[0][1].op.kind
        if kind == "train":
            steps = sum(r.op.steps for _, r in mine)
            rest = (part("training.train") - part("inr.build_model") - part("data.sample_patch_pairs")
                    - enc - bwd - part("training.adam_step"))
            lines.append(f"# split train {v}: step {op_ms / steps:.1f} ms, encoder fwd "
                         f"{enc / steps:.1f} ms, INR + loss fwd {rest / steps:.1f} ms, "
                         f"backward {bwd / steps:.1f} ms")
        else:
            lines.append(f"# split {kind} {v}: encoder {100 * enc / op_ms:.1f} %, "
                         f"INR query {100 * query / op_ms:.1f} % of op time")
    return lines


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def stamp() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    info = stamp()
    info["loadavg_start"] = os.getloadavg()
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{workload}-"))
    try:
        setups = []
        inputs = timed_set_up(seed, tmp_root, setups)
        report = []
        warm = [run_op(inputs, op) for op in warm_up(workload, seed)]
        if trace:
            records = run_window(inputs, workload, seed, seconds / 2.0)
            tracer = Tracer()
            tracer.op_id = "setup"
            with tracer.active():
                set_up(seed, tmp_root)
            # each op again, untraced then traced back to back, so both
            # timings see the same warm caches and the same machine phase
            untraced, traced = [], []
            for i, rec in enumerate(records):
                untraced.append(run_op(inputs, rec.op))
                tracer.op_id = i
                with tracer.active():
                    traced.append(run_op(inputs, rec.op, tracer))
            report = traffic_report(tracer, traced)
            tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
            values = per_layer(tracer, traced, sum(r.ms for r in untraced))
            records += untraced + traced
            section = "per_layer"
        else:
            records = measure(inputs, workload, seed, seconds, tmp_root, setups)
            section = "end_to_end"
        problems = end_gates(inputs, warm + records)
        if not trace:
            values = end_to_end(records, setups)
        records = warm + records
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    info["loadavg_end"] = os.getloadavg()
    units = declared_units(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"BENCHMARK.json {section}")
    failed = sum(not r.ok for r in records)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "stamp": info, "problems": problems, "result": result,
              "ops": [{"kind": r.op.kind, "variant": r.op.variant, "group": r.op.group,
                       "scale": r.op.scale, "side": r.op.side, "ms": r.ms, "ok": r.ok,
                       "error": r.error} for r in records]}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1))
    for line in report:
        print(line)
    for p in problems:
        print(f"# gate failed: {p}")
    print("# stamp " + json.dumps(info))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute bench/reference.json and exit")
    args = ap.parse_args(argv)
    if args.write_reference:
        REFERENCE_PATH.write_text(json.dumps(golden_norms(), indent=1) + "\n")
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
