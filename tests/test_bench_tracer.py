"""The benchmark tracer's wrap sites exist in the library.

`bench/tracer.py` patches library attributes by name when a traced run
(`bench/run.py --trace 1`) installs it, so a renamed function would only
fail there.  This loads the tracer by path and checks every name it wraps.
"""

import importlib.util
from pathlib import Path

import pytest

from equisr import diff

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
