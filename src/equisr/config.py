"""JSON run configuration: strict schema with documented defaults.

A run config has four sections (model, data, train, eval); unknown keys are
rejected with the offending dotted path.  `defaults()` returns the complete
default document, which the CLI can also emit as defaults.json.
"""

from __future__ import annotations

import copy
import json
import math

from .data import DatasetSpec
from .errors import ConfigError
from .inr import ModelConfig

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
        if isinstance(base[key], dict) and isinstance(value, dict):
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
    _check_patch_fits(doc)
    return doc


def _check_patch_fits(doc: dict) -> None:
    """A generated corpus must hold the largest HR crop a training patch needs."""
    data, patch = doc["data"], doc["train"]["patch"]
    try:
        side = math.floor(float(patch) * float(data["scale_range"][1]) + 0.5)
        size = int(data["size"])
    except (TypeError, ValueError, IndexError, KeyError):
        return  # a malformed field is reported where it is converted
    if data["kind"] != "file-dir" and side > size:
        raise ConfigError(
            f"train.patch {patch} at data.scale_range[1] {data['scale_range'][1]} needs "
            f"data.size >= {side}, got {size}")


def model_config(doc: dict) -> ModelConfig:
    m = doc["model"]
    widths = list(m["inr"]["widths"])
    if not widths:
        raise ConfigError("model.inr.widths must be non-empty")
    return ModelConfig(
        variant=m["variant"],
        t=int(m["t"]),
        blocks=int(m["encoder"]["blocks"]),
        n=int(m["encoder"]["n"]),
        p=int(m["encoder"]["p"]),
        L=int(m["inr"]["L"]),
        width=int(widths[0]),
        psi_widths=tuple(int(wv) for wv in widths[1:]),
        k_max=int(m["inr"]["k_max"]),
        K=int(m["inr"]["K"]),
        eps=float(m["inr"]["eps"]),
        mode=m["inr"]["mode"],
    )


def dataset_spec(doc: dict) -> DatasetSpec:
    d = doc["data"]
    lo, hi = d["scale_range"]
    return DatasetSpec(
        kind=d["kind"],
        count=int(d["count"]),
        size=int(d["size"]),
        seed=int(d["seed"]),
        scale_lo=float(lo),
        scale_hi=float(hi),
        cutoff=float(d["cutoff"]),
        path=d["path"],
    )
