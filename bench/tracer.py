"""Span and counter tracing for the traced benchmark run.

The tracer wraps module attributes of the equisr package at the places the
library looks them up (for example `equisr.training.eval_global_batch`,
which `training.train` calls, and `equisr.inr.eval_global_batch`, which
`super_resolve` calls), so nothing under `src/` changes.  Layer functions
become spans `(name, start, end, parent, op_id)`; autodiff primitives are
too numerous for spans and are counted instead (calls, forward time,
output bytes).  The wrapped `training.backward` wraps each backward closure
on the tape before replaying it, which times backward by primitive and
counts gradient bytes computed for inputs that do not require grad.

`active()` brackets each traced op; the untraced end-to-end runs never
construct a tracer.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from equisr import data, diff, filters, inr, metrics, training

# (module, attribute, span name): each public layer function at every
# module namespace it is called through.
SPAN_SITES = (
    (inr, "super_resolve", "inr.super_resolve"),
    (inr, "encode_t", "encoder.encode_t"),
    (inr, "compute_latents", "inr.compute_latents"),
    (inr, "eval_global_batch", "inr.eval_global_batch"),
    (filters, "lifting_kernel", "filters.lifting_kernel"),
    (filters, "group_kernel", "filters.group_kernel"),
    (training, "train", "training.train"),
    (training, "build_model", "inr.build_model"),
    (training, "sample_patch_pairs", "data.sample_patch_pairs"),
    (training, "encode_t", "encoder.encode_t"),
    (training, "compute_latents", "inr.compute_latents"),
    (training, "eval_global_batch", "inr.eval_global_batch"),
    (training, "adam_step", "training.adam_step"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (data, "gen_synthetic", "data.gen_synthetic"),
    (data, "read_image", "data.read_image"),
    (data, "write_image", "data.write_image"),
    (metrics, "sweep", "metrics.sweep"),
    (metrics, "build_model", "inr.build_model"),
    (metrics, "sweep_image", "data.sweep_image"),
    (metrics, "equivariance_error", "metrics.equivariance_error"),
    (metrics, "super_resolve", "inr.super_resolve"),
    (metrics, "rotate_image", "groups.rotate_image"),
)

# catalogue name -> attribute of equisr.diff
PRIMITIVES = {
    "add": "add", "sub": "sub", "mul": "mul", "matmul": "matmul",
    "conv2d": "conv2d", "relu": "relu", "sin": "sin", "cos": "cos",
    "concat": "concat", "sum": "reduce_sum", "scale": "scale",
    "gather": "gather", "reshape": "reshape",
}
_PRIM_BY_FUNC = {attr: name for name, attr in PRIMITIVES.items()}


class PrimStats:
    __slots__ = ("calls", "fwd_s", "out_bytes", "bwd_s")

    def __init__(self):
        self.calls = 0
        self.fwd_s = 0.0
        self.out_bytes = 0
        self.bwd_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op_id]
        self._stack: list[int] = []
        self.op_id: object = None
        self.prims: dict[str, PrimStats] = defaultdict(PrimStats)
        self.local_evals = 0
        self.tape_entries = 0
        self.backward_calls = 0
        self.bwd_wasted_bytes = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top was {popped}")

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    # -- wrappers ------------------------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, fn, name: str, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _prim_wrapper(self, fn, stats: PrimStats):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            stats.fwd_s += time.perf_counter() - t0
            stats.calls += 1
            stats.out_bytes += out.data.nbytes
            return out
        return wrapper

    def _count_local_evals(self, args, kwargs) -> None:
        model, X = args[0], args[2]
        mode = kwargs.get("mode", args[3] if len(args) > 3 else None) or model.cfg.mode
        self.local_evals += X.shape[0] * (4 if mode == "ensemble" else 1)

    def _timed_backward_closure(self, bwd, inputs):
        prim = _PRIM_BY_FUNC.get(bwd.__qualname__.split(".")[0], "other")
        stats = self.prims[prim]

        def timed(g):
            t0 = time.perf_counter()
            grads = bwd(g)
            stats.bwd_s += time.perf_counter() - t0
            for t, gi in zip(inputs, grads):
                if gi is not None and not t.requires_grad:
                    self.bwd_wasted_bytes += gi.nbytes
            return grads
        return timed

    def _backward_wrapper(self, fn):
        def wrapper(tape, loss):
            self.tape_entries += len(tape.entries)
            self.backward_calls += 1
            tape.entries = [(out, inputs, self._timed_backward_closure(bwd, inputs))
                            for out, inputs, bwd in tape.entries]
            idx = self.open("diff.backward")
            try:
                return fn(tape, loss)
            finally:
                self.close(idx)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in SPAN_SITES:
            before = self._count_local_evals if attr == "eval_global_batch" else None
            self._replace(module, attr, self._span_wrapper(getattr(module, attr), name, before))
        self._replace(training, "backward", self._backward_wrapper(training.backward))
        for name, attr in PRIMITIVES.items():
            if hasattr(diff, attr):
                self._replace(diff, attr, self._prim_wrapper(getattr(diff, attr), self.prims[name]))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def active(self):
        """Run a block with every wrapper installed."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def suspended(self):
        """Run a block (such as an output check) with every wrapper removed."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def write(self, path) -> None:
        """Spans as JSON lines: {name, start, end, parent, op_id}."""
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op_id": op_id}) + "\n")
