"""Adam optimizer, the patch-sampling training loop, and checkpoints.

Training minimizes the mean L1 error on sampled query pixels.  The learning
rate halves every `decay_steps` steps and never increases.  Runs are pure
functions of (config, seed): the per-step batch is drawn from a generator
seeded with (seed, step), so identical seeds give bit-identical loss logs.

Checkpoints are a JSON manifest (version "equisr-ckpt-1", model config, and
one record per parameter with name/shape/dtype/byte offset) plus a single
little-endian raw blob that the records tile in order.  The records are
exactly those the model config's layout (inr._layout) gives, in name order;
save and load both derive them from it, so the round trip is bit-exact, and
any other records, like any malformed pair, raise CheckpointError.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import diff
from .data import DatasetSpec, atomic_write, csv_text, sample_patch_pairs
from .diff import Tape, Tensor, backward
from .encoder import encode_t
from .errors import CheckpointError, ContractError, EvaluationError, ShapeError
from .groups import make_group
from .inr import (
    INRModel,
    ModelConfig,
    _layout,
    build_model,
    compute_latents,
    eval_global_batch,
    parameter_count,
)


@dataclass
class TrainState:
    """Optimizer state; moments are shaped like the parameters."""

    step: int
    params: dict[str, Tensor]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_train_state(params: dict[str, Tensor]) -> TrainState:
    return TrainState(
        step=0,
        params=params,
        m={k: np.zeros(p.shape) for k, p in params.items()},
        v={k: np.zeros(p.shape) for k, p in params.items()},
    )


# Adam's moment decay rates and denominator stabilizer
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(state: TrainState, grads: dict[str, np.ndarray], lr: float) -> TrainState:
    """One bias-corrected Adam update (parameters updated in place)."""
    t = state.step + 1
    for name, p in state.params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        elif isinstance(g, Tensor):
            g = g.data
        if g.shape != p.shape:
            raise ContractError(f"gradient for {name!r} has shape {g.shape}, expected {p.shape}")
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    state.step = t
    return state


def l1_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error as a differentiable scalar."""
    d = diff.sub(pred, diff.constant(target))
    return diff.scale(diff.reduce_sum(diff.absolute(d)), 1.0 / d.size)


def step_loss(model: INRModel, lr: np.ndarray, coords: np.ndarray,
              targets: np.ndarray) -> Tensor:
    """The L1 loss of one training step: LR patches (B, h, w, c_in) and
    their queries, B * q coordinates item-major, with their targets."""
    feat = encode_t(model, diff.constant(lr))
    lats = compute_latents(model, feat)
    # every item has q queries, so the one mean is the mean of the per-item means
    return l1_loss(eval_global_batch(model, lats, coords), targets)


@dataclass
class TrainResult:
    model: INRModel
    state: TrainState
    loss_rows: list[tuple[int, float, float]]  # (step, loss, lr)


def train(cfg: ModelConfig, data: DatasetSpec, steps: int, lr: float = 1e-4,
          decay_steps: int = 500, batch: int = 4, patch: int = 12,
          seed: int = 0) -> TrainResult:
    """Train a model on sampled patch pairs with L1 loss."""
    if steps < 1:
        raise ContractError("steps must be >= 1")
    model = build_model(cfg, seed=seed)
    params = model.named_parameters()
    state = init_train_state(params)
    rows: list[tuple[int, float, float]] = []
    for step in range(steps):
        lr_t = lr * 0.5 ** (step // decay_steps)
        pairs = sample_patch_pairs(data, patch, batch, seed=(seed, step))
        for pair in pairs:  # np.stack below needs one channel count
            if pair.lr.c != cfg.c_in:
                raise ShapeError(f"corpus image has {pair.lr.c} channels, model expects {cfg.c_in}")
        with Tape() as tape:
            loss = step_loss(model, np.stack([pair.lr.data for pair in pairs]),
                             np.concatenate([pair.coords for pair in pairs]),
                             np.concatenate([pair.targets for pair in pairs]))
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise EvaluationError(f"non-finite loss at step {step}")
        grads = backward(tape, loss)
        by_name = {name: grads[p] for name, p in params.items() if p in grads}
        adam_step(state, by_name, lr_t)
        rows.append((step, loss_val, lr_t))
    return TrainResult(model, state, rows)


def loss_log_csv(rows) -> str:
    return csv_text("step,loss,lr", ((s, f"{l:.10e}", f"{r:.10e}") for s, l, r in rows))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CKPT_VERSION = "equisr-ckpt-1"


def _records(cfg: ModelConfig) -> list[dict]:
    """The manifest records of model `cfg`: every parameter's name, shape,
    dtype and blob offset, in name order, tiling the blob."""
    records, offset = [], 0
    for name, shape, _ in sorted(_layout(cfg)):
        records.append({"name": name, "shape": list(shape), "dtype": "<f8", "offset": offset})
        offset += 8 * math.prod(shape)
    return records


def save_checkpoint(prefix: str, model: INRModel) -> tuple[str, str]:
    """Write `<prefix>.json` (manifest) and `<prefix>.bin` (raw blob)."""
    json_path, bin_path = prefix + ".json", prefix + ".bin"
    records = _records(model.cfg)
    params = model.named_parameters()
    blob = b"".join(np.ascontiguousarray(params[r["name"]].data, dtype="<f8").tobytes()
                    for r in records)
    cfg = dict(model.cfg.__dict__)
    cfg["psi_widths"] = list(cfg["psi_widths"])
    manifest = {
        "version": CKPT_VERSION,
        "blob": os.path.basename(bin_path),
        "model": cfg,
        "params": records,
    }
    atomic_write(bin_path, blob)
    atomic_write(json_path, json.dumps(manifest, indent=1).encode())
    return json_path, bin_path


def load_checkpoint(json_path: str) -> INRModel:
    """Rebuild a model from a manifest + blob pair (bit-exact).

    After the version, blob name and model config, the blob must hold the
    config's parameter count, and the records must be exactly the layout's
    (see _records): a record that differs, records in another order or with
    an extra key are refused, naming that record.  The blob is sliced into a
    new parameter table in layout order; no model is drawn.
    """
    with open(json_path, "rb") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as e:  # bad JSON, bad UTF-8, deep nesting
            raise CheckpointError(f"manifest is not valid JSON: {e}", field="<root>")
    if not isinstance(manifest, dict):
        raise CheckpointError("manifest is not a JSON object", field="<root>")
    for key in ("version", "blob", "model", "params"):
        if key not in manifest:
            raise CheckpointError("manifest key missing", field=key)
    if manifest["version"] != CKPT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {manifest['version']!r}", field="version")
    if not isinstance(manifest["model"], dict):
        raise CheckpointError("model config is not a JSON object", field="model")
    blob_name = manifest["blob"]
    if (not isinstance(blob_name, str) or blob_name in ("", ".", "..") or "\0" in blob_name
            or os.path.basename(blob_name) != blob_name):
        raise CheckpointError(f"blob {blob_name!r} is not a file name", field="blob")
    if not isinstance(manifest["params"], list):
        raise CheckpointError("params is not a JSON list", field="params")
    cfg_dict = dict(manifest["model"])
    # knobs removed from ModelConfig load only at their one former value;
    # `is` compares type too, so 1 does not pass for true
    for key, former in (("relu_after_input", None), ("bias", True)):
        if cfg_dict.pop(key, former) is not former:
            raise CheckpointError(f"{key} is no longer configurable; only "
                                  f"{json.dumps(former)} loads", field=key)
    try:
        cfg_dict["psi_widths"] = tuple(cfg_dict.get("psi_widths", ()))
        cfg = ModelConfig(**cfg_dict)
    except (TypeError, ValueError) as e:  # ConfigError is a ValueError
        raise CheckpointError(f"bad model config: {e}", field="model")
    blob_path = os.path.join(os.path.dirname(os.path.abspath(json_path)), blob_name)
    try:
        with open(blob_path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read blob: {e}", field="blob") from e
    # checked before the layout is listed: a config may declare any size.
    # With it, the layout's records tile the blob exactly
    needed = 8 * parameter_count(cfg)
    if needed != len(blob):
        raise CheckpointError(f"model config needs {needed} parameter bytes, blob has "
                              f"{len(blob)}", field="model")
    expected = _records(cfg)
    values = {}
    for i, rec in enumerate(manifest["params"]):
        if not isinstance(rec, dict):
            raise CheckpointError("params record is not a JSON object", field=f"params[{i}]")
        want = expected[i] if i < len(expected) else None
        # == alone would pass 8.0 or true for an integer
        if not (rec == want and type(rec["offset"]) is int
                and all(type(s) is int for s in rec["shape"])):
            raise CheckpointError(f"params[{i}] is not the layout's record "
                                  f"{json.dumps(want) if want else '(it has none)'}",
                                  field=str(rec.get("name")))
        data = np.frombuffer(blob, "<f8", math.prod(want["shape"]), want["offset"]).copy()
        if not np.all(np.isfinite(data)):
            raise CheckpointError("non-finite parameter value", field=want["name"])
        values[want["name"]] = data
    if len(values) < len(expected):
        raise CheckpointError("parameters missing from manifest",
                              field=expected[len(values)]["name"])
    params = {name: diff.parameter(values[name].reshape(shape)) for name, shape, _ in _layout(cfg)}
    return INRModel(cfg, make_group(cfg.t), params)
