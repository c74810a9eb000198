"""The benchmark tracer's wrap sites exist in the library.

`bench/tracer.py` patches library attributes by name when a traced run
(`bench/run.py --trace 1`) installs it, so a renamed function would only
fail there.  This loads the tracer by path and checks every name it wraps,
and that its per-layer training counts still mean what they say.
"""

import importlib.util
from pathlib import Path

import pytest

from equisr import diff, training
from equisr.data import DatasetSpec
from equisr.inr import ModelConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_sites_exist(tracer):
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.SPAN_SITES
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_primitives_exist(tracer):
    missing = [attr for attr in tracer.PRIMITIVES.values()
               if not callable(getattr(diff, attr, None))]
    assert not missing


def test_one_query_assembly_per_training_step(tracer):
    # the tracer counts X.shape[0] * 4 local evaluations per ensemble-mode
    # eval_global_batch call, so a step's queries must be one (N, 2) call
    cfg = ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3, width=8, psi_widths=(8,))
    data = DatasetSpec(kind="stripes", count=2, size=48, seed=0, scale_lo=2.0, scale_hi=4.0)
    tr = tracer.Tracer()
    with tr.active():
        training.train(cfg, data, steps=1, batch=3, patch=8)
    assert tr.local_evals == 3 * 64 * 4
    assert [span[0] for span in tr.spans].count("inr.eval_global_batch") == 1
