"""JSON run configuration: strict schema with documented defaults.

A run config has four sections (model, data, train, eval); unknown keys are
rejected with the offending dotted path.  `load_config` checks the train and
eval values as they are, without coercion, and the data section through
`dataset_spec`; `dataset_spec` and `model_config` pass the values unchanged
to `DatasetSpec` and `ModelConfig`, whose checks are the only ones.  A bad
value raises ConfigError naming its dotted key.  `defaults()` returns the
complete default document, which the CLI can also emit as defaults.json.
"""

from __future__ import annotations

import copy
import json
import math

from .data import DatasetSpec
from .errors import ConfigError, DomainError
from .groups import _is_int, _is_real
from .inr import ModelConfig, output_size

_DEFAULTS = {
    "model": {
        "variant": "liif",  # liif | ope | lte
        "t": 4,  # group order; 1 selects the plain baseline
        "encoder": {"blocks": 4, "n": 8, "p": 5},  # n = channels per group slot
        "inr": {
            "L": 0,  # intermediate layers (liif only)
            "widths": [32, 64],  # [H-value width, psi hidden widths...]
            "k_max": 3,  # ope maximum frequency
            "K": 16,  # lte frequency count
            "eps": 1e-7,  # local-ensemble stabilizer
            "mode": "ensemble",  # ensemble | nearest
        },
    },
    "data": {
        "kind": "shapes",  # shapes | stripes | smooth-field | file-dir
        "count": 8,
        "size": 48,
        "seed": 0,
        "scale_range": [2.0, 4.0],
        "cutoff": 0.25,  # smooth-field band limit (fraction of Nyquist)
        "path": None,  # file-dir only
    },
    "train": {
        "steps": 200,
        "lr": 1e-4,
        "decay_steps": 500,
        "batch": 4,
        "patch": 12,  # LR side; round(patch * scale_range[1]) must fit data.size
        "seed": 0,
    },
    "eval": {
        "angles_deg": [90.0, 180.0, 270.0],
        "scales": [2.0],
        "resolutions": [32],
        "seeds": [0, 1, 2],
        "mask": "auto",  # auto | none
        "eps": None,  # None = model's own eps
    },
}


def defaults() -> dict:
    return copy.deepcopy(_DEFAULTS)


def defaults_json() -> str:
    return json.dumps(_DEFAULTS, indent=2) + "\n"


def _merge(base: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted} must be a JSON object")
            out[key] = _merge(base[key], value, dotted)
        else:
            out[key] = value
    return out


def load_config(path: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = _merge(_DEFAULTS, doc, "")
    _check_run_values(doc)
    _check_patch_fits(doc["train"]["patch"], dataset_spec(doc))
    model_config(doc)  # checked here for every command, built where one is used
    return doc


# key -> (test, rule); eval entries are lists, each item tested
_TRAIN_RULES = {
    "steps": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "lr": (lambda v: _is_real(v) and v > 0, "a finite number > 0"),
    "decay_steps": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "batch": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "patch": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
}
_EVAL_RULES = {
    "angles_deg": (_is_real, "finite numbers"),
    "scales": (_is_real, "finite numbers"),
    "resolutions": (lambda v: _is_int(v) and v >= 1, "integers >= 1"),
    "seeds": (lambda v: _is_int(v) and v >= 0, "integers >= 0"),
}


def _check_run_values(doc: dict) -> None:
    """The train and eval values the commands use as they are."""
    for key, (ok, rule) in _TRAIN_RULES.items():
        value = doc["train"][key]
        if not ok(value):
            raise ConfigError(f"train.{key} must be {rule}, got {json.dumps(value)}")
    ev = doc["eval"]
    for key, (ok, rule) in _EVAL_RULES.items():
        if not (isinstance(ev[key], list) and ev[key] and all(ok(v) for v in ev[key])):
            raise ConfigError(f"eval.{key} must be a non-empty list of {rule}, "
                              f"got {json.dumps(ev[key])}")
    for scale in ev["scales"]:
        for res in ev["resolutions"]:
            try:
                output_size(res, res, scale)
            except DomainError as e:
                raise ConfigError(f"eval.scales: {e}") from None
    if ev["mask"] not in ("auto", "none"):
        raise ConfigError(f"eval.mask must be \"auto\" or \"none\", got {json.dumps(ev['mask'])}")
    if ev["eps"] is not None:
        try:
            ModelConfig(eps=ev["eps"])
        except ConfigError as e:
            raise ConfigError(f"eval.eps: {e}") from None


def _check_patch_fits(patch: int, data: DatasetSpec) -> None:
    """A generated corpus must hold the largest HR crop a training patch needs."""
    side = math.floor(patch * data.scale_hi + 0.5)
    if data.kind != "file-dir" and side > data.size:
        raise ConfigError(
            f"train.patch {patch} at data.scale_range[1] {data.scale_hi} needs "
            f"data.size >= {side}, got {data.size}")


def model_config(doc: dict) -> ModelConfig:
    """The model section as a ModelConfig, its values unchanged: ModelConfig's
    checks are the only ones, and a failing field is reported by its key (a
    model too large only as a whole, see inr.MAX_PARAMETERS, as "model")."""
    m = doc["model"]
    enc, head = m["encoder"], m["inr"]
    widths = head["widths"]
    if not (isinstance(widths, list) and widths):
        raise ConfigError(f"model.inr.widths must be a non-empty list, got {json.dumps(widths)}")
    fields = {  # ModelConfig field -> (dotted key, value)
        "variant": ("model.variant", m["variant"]),
        "t": ("model.t", m["t"]),
        "blocks": ("model.encoder.blocks", enc["blocks"]),
        "n": ("model.encoder.n", enc["n"]),
        "p": ("model.encoder.p", enc["p"]),
        "L": ("model.inr.L", head["L"]),
        "width": ("model.inr.widths", widths[0]),
        "psi_widths": ("model.inr.widths", tuple(widths[1:])),
        "k_max": ("model.inr.k_max", head["k_max"]),
        "K": ("model.inr.K", head["K"]),
        "eps": ("model.inr.eps", head["eps"]),
        "mode": ("model.inr.mode", head["mode"]),
    }
    # each field alone in the smallest model of the section's variant, so an
    # error names its key and a model too large only as a whole is "model"
    smallest = dict(t=1, blocks=1, n=1, p=1, width=1, psi_widths=(), k_max=0, K=1)
    for name, (key, value) in fields.items():
        try:
            ModelConfig(**{**smallest, name: value})
        except ConfigError as e:
            raise ConfigError(f"{key}: {e}") from None
        if name == "variant":
            smallest["variant"] = value
    try:
        return ModelConfig(**{name: value for name, (_, value) in fields.items()})
    except ConfigError as e:
        raise ConfigError(f"model: {e}") from None


def dataset_spec(doc: dict) -> DatasetSpec:
    """The data section as a DatasetSpec, its values unchanged: DatasetSpec's
    checks are the only ones, and its message names the failing key."""
    d = doc["data"]
    scales = d["scale_range"]
    if not (isinstance(scales, list) and len(scales) == 2):
        raise ConfigError(f"data.scale_range must be a list [lo, hi], got {json.dumps(scales)}")
    try:
        return DatasetSpec(kind=d["kind"], count=d["count"], size=d["size"], seed=d["seed"],
                           scale_lo=scales[0], scale_hi=scales[1], cutoff=d["cutoff"],
                           path=d["path"])
    except ConfigError as e:
        raise ConfigError(f"data.{e}") from None
