#!/usr/bin/env python3
"""Short smoke test of the benchmark itself (about two minutes).

    python3 bench/smoke.py

Checks that
* every workload, untraced and traced, exits 0 and prints as its last line
  a JSON result with every metric BENCHMARK.json declares, by name and unit;
* the correctness gates run: a wrong output shape, a short sweep CSV, a
  checkpoint that does not round-trip and a wrong reference norm each fail
  the op (or the run's gate), in-process with the library patched;
* without the library next to it the benchmark exits non-zero and prints
  no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_outputs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            proc = _run(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, set(printed.items()) ^ set(declared.items())
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
            print(f"ok  {w['name']} trace={trace}: {len(printed)} metrics")


def _expect_failed_op(inputs, op, patch_module, attr, fake) -> None:
    original = getattr(patch_module, attr)
    setattr(patch_module, attr, fake)
    try:
        rec = run.run_op(inputs, op)
    finally:
        setattr(patch_module, attr, original)
    assert not rec.ok and rec.error, f"{attr} fault was not caught"
    print(f"ok  gate catches a faulty {attr}: {rec.error}")


def check_gates(inputs) -> None:
    from equisr import inr, metrics, training
    from equisr.image import Image

    sr_op = run.sr_cycle(0, 1)[1]  # ope, LR 48
    real_sr = inr.super_resolve
    _expect_failed_op(inputs, sr_op, inr, "super_resolve",
                      lambda m, img, s, **kw: Image(real_sr(m, img, s, **kw).data[1:]))

    real_sweep = metrics.sweep
    _expect_failed_op(inputs, run.equiv_cycle(0, 0)[0], metrics, "sweep",
                      lambda *a, **kw: real_sweep(*a, **kw).rsplit("\n", 2)[0] + "\n")

    real_load = training.load_checkpoint

    def corrupt_load(path):
        model = real_load(path)
        next(iter(model.named_parameters().values())).data.flat[0] += 1e-12
        return model
    _expect_failed_op(inputs, run.train_cycle(0, 0)[0], training, "load_checkpoint", corrupt_load)

    rec = run.run_op(inputs, sr_op)
    assert rec.ok, rec.error
    real_ref = run.REFERENCE_PATH
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as d:
        bad = json.loads(real_ref.read_text())
        bad["ope@2.7"] *= 1.0 + 1e-4
        run.REFERENCE_PATH = Path(d) / "reference.json"
        run.REFERENCE_PATH.write_text(json.dumps(bad))
        try:
            problems = run.end_gates(inputs, [rec])
        finally:
            run.REFERENCE_PATH = real_ref
    assert any("ope@2.7" in p for p in problems) and not rec.ok, problems
    print(f"ok  end-of-run gate catches a wrong reference norm and fails the ope op")


def check_without_library() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        shutil.copytree(BENCH_DIR, Path(d) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "sr-mixed", "--seed", "0", "--seconds", "1",
                     "--trace", "0"], cwd=d)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        check_gates(run.set_up(0, Path(tmp)))
    check_without_library()
    check_outputs()
    print("smoke: all checks passed")
