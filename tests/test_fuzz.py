"""Fuzzing of the two file parsers: netpbm images and checkpoints.

Every malformed input must end as ParseError (images) or CheckpointError
(checkpoints), both exit 3 from the CLI; no raw TypeError, ValueError,
KeyError, OSError or numpy error may escape.  Examples are bounded and, under
the test suite's hypothesis profile (tests/conftest.py), derandomized, so the
suite stays fast and reproducible.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equisr.data import read_image
from equisr.errors import CheckpointError, ParseError
from equisr.inr import ModelConfig, build_model
from equisr.training import load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _json_values(ints):
    leaves = (st.none() | st.booleans() | ints | st.floats() | st.text(max_size=4))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                        max_leaves=6)


# boundary values are drawn as often as random JSON; model-config fields
# take small integers here, and sizes past any blob come from LARGE_SIZES
MODEL_VALUES = st.sampled_from([-1, 0, 1, 2, 1.5, math.nan, math.inf, "", None, True,
                                [], [0], [-1], [2]]) | _json_values(st.integers(-3, 8))
# well-formed sizes; a config whose model would take megabytes to terabytes
# more than the blob holds must fail on its parameter count, before a build
LARGE_SIZES = st.sampled_from([10**6, 10**9, 10**12])
RECORD_VALUES = _json_values(st.integers())


# ---------------------------------------------------------------------------
# netpbm images
# ---------------------------------------------------------------------------

def _read_outcome(path, payload):
    path.write_bytes(payload)
    try:
        img = read_image(str(path))
    except ParseError:
        return None
    assert img.c in (1, 3) and np.all((img.data >= 0.0) & (img.data <= 1.0))
    return img


@FUZZ
@given(payload=st.binary(max_size=300))
def test_read_image_arbitrary_bytes(tmp_path, payload):
    _read_outcome(tmp_path / "f.ppm", payload)


_HEADER_TOKENS = st.sampled_from([b"P5", b"P6", b"P3", b"0", b"-1", b"255", b"65535", b"1_0",
                                  b"+2", b"#", b"\n", b" ", b"\xff", b"1e3", b"9" * 30])


@FUZZ
@given(magic=st.sampled_from([b"P5", b"P6"]), w=st.integers(1, 4), h=st.integers(1, 4),
       data=st.data())
def test_read_image_mutated_header(tmp_path, magic, w, h, data):
    channels = 3 if magic == b"P6" else 1
    tokens = [magic, b"%d" % w, b"%d" % h, b"255"]
    seps = [b"\n", b" ", b"\n", b"\n"]
    payload = bytes(range(w * h * channels))
    mutation = data.draw(st.sampled_from(["token", "sep", "insert", "truncate", "flip"]))
    if mutation == "token":
        i = data.draw(st.integers(0, 3))
        tokens[i] = data.draw(_HEADER_TOKENS | st.binary(max_size=6))
    elif mutation == "sep":
        i = data.draw(st.integers(0, 3))
        seps[i] = data.draw(st.sampled_from([b"", b"#c\n", b"\t\r", b"#", b"  "]))
    raw = b"".join(t + s for t, s in zip(tokens, seps)) + payload
    if mutation == "insert":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=4)) + raw[at:]
    elif mutation == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw)))]
    elif mutation == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    _read_outcome(tmp_path / "f.ppm", raw)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    model = build_model(ModelConfig(variant="liif", t=2, n=2, blocks=1, p=3, width=4,
                                    psi_widths=(4,)), seed=0)
    json_path, bin_path = save_checkpoint(str(tmp_path_factory.mktemp("ckpt") / "c"), model)
    with open(json_path) as fh:
        manifest = json.load(fh)
    with open(bin_path, "rb") as fh:
        blob = fh.read()
    return manifest, blob


def _load_outcome(tmp_path, manifest, blob):
    """Load a (manifest, blob) pair; malformed pairs must raise CheckpointError."""
    json_path, bin_path = tmp_path / "m.json", tmp_path / "m.bin"
    if isinstance(manifest, bytes):
        json_path.write_bytes(manifest)
    else:
        if isinstance(manifest, dict) and manifest.get("blob") == "c.bin":
            manifest = {**manifest, "blob": "m.bin"}
        json_path.write_text(json.dumps(manifest))
    bin_path.write_bytes(blob)
    try:
        return load_checkpoint(str(json_path))
    except CheckpointError:
        return None


@FUZZ
@given(key=st.sampled_from(["version", "blob", "model", "params"]),
       value=RECORD_VALUES, delete=st.booleans())
def test_checkpoint_mutated_manifest_key(tmp_path, saved, key, value, delete):
    manifest, blob = saved
    doc = dict(manifest)
    if delete:
        del doc[key]
    else:
        doc[key] = value
    assert _load_outcome(tmp_path, doc, blob) is None


# model keys of knobs that were removed, with the one value that still loads
RETIRED = {"relu_after_input": None, "bias": True}


@pytest.mark.parametrize("key", sorted([*ModelConfig.__dataclass_fields__, *RETIRED]) + ["extra"])
@settings(FUZZ, max_examples=40)
@given(value=MODEL_VALUES | LARGE_SIZES)
def test_checkpoint_mutated_model_field(tmp_path, saved, key, value):
    manifest, blob = saved
    doc = {**manifest, "model": {**manifest["model"], key: value}}
    model = _load_outcome(tmp_path, doc, blob)
    if key in RETIRED:
        assert (model is None) == (value is not RETIRED[key])
    else:
        assert model is None or getattr(model.cfg, key) == (
            tuple(value) if key == "psi_widths" else value)


@pytest.mark.parametrize("key,value", [
    ("relu_after_input", True), ("relu_after_input", False), ("relu_after_input", 0),
    ("bias", False), ("bias", 1), ("bias", 1.0), ("bias", None),
])
def test_checkpoint_retired_knob(tmp_path, saved, key, value):
    manifest, blob = saved
    legacy = {**manifest, "model": {**manifest["model"], **RETIRED}}
    assert _load_outcome(tmp_path, legacy, blob) is not None
    doc = {**legacy, "model": {**legacy["model"], key: value}}
    assert _load_outcome(tmp_path, doc, blob) is None
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(tmp_path / "m.json"))
    assert err.value.field == key


@FUZZ
@given(index=st.integers(0, 30), key=st.sampled_from(["name", "shape", "dtype", "offset"]),
       value=RECORD_VALUES, action=st.sampled_from(["set", "delete", "drop", "repeat"]))
def test_checkpoint_mutated_record(tmp_path, saved, index, key, value, action):
    manifest, blob = saved
    records = [dict(r) for r in manifest["params"]]
    index %= len(records)
    if action == "set":
        if records[index][key] == value:
            return
        records[index][key] = value
    elif action == "delete":
        del records[index][key]
    elif action == "drop":
        del records[index]
    else:
        records.insert(index, dict(records[index]))
    assert _load_outcome(tmp_path, {**manifest, "params": records}, blob) is None


@FUZZ
@given(cut=st.integers(1, 64), extra=st.binary(min_size=1, max_size=16), grow=st.booleans())
def test_checkpoint_blob_length(tmp_path, saved, cut, extra, grow):
    manifest, blob = saved
    changed = blob + extra if grow else blob[:max(0, len(blob) - cut)]
    assert _load_outcome(tmp_path, manifest, changed) is None


@FUZZ
@given(index=st.integers(0, 10_000), value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_checkpoint_non_finite_value(tmp_path, saved, index, value):
    manifest, blob = saved
    values = np.frombuffer(blob, dtype="<f8").copy()
    values[index % values.size] = value
    assert _load_outcome(tmp_path, manifest, values.tobytes()) is None


@FUZZ
@given(payload=st.binary(max_size=200))
def test_checkpoint_arbitrary_manifest_bytes(tmp_path, saved, payload):
    _, blob = saved
    _load_outcome(tmp_path, payload, blob)


def test_checkpoint_fuzz_baseline_loads(tmp_path, saved):
    # the unmutated pair loads, so each rejection above is due to its mutation
    manifest, blob = saved
    assert _load_outcome(tmp_path, manifest, blob) is not None
