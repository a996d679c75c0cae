"""Shared-encoder multi-head dense network with exact analytic gradients.

The whole model lives in one flat float64 vector so that forking, merging,
and gradient mixing are plain vector arithmetic. Layout, in order:

    encoder layer 0: W (input_dim x h0, row-major), then b (h0)
    encoder layer 1: W (h0 x h1), then b (h1)
    ...
    head blocks in ascending task_id order: W (enc_out x out_dim), then b

``ModelSpec.layout`` holds the exact slice for every block, built once per
spec; all branches of a fork share this single layout, which is what makes
merged vectors meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .vectors import NonFiniteError, RngStream

CROSS_ENTROPY = "softmax_cross_entropy"
MEAN_SQUARED_ERROR = "mean_squared_error"

_ACTIVATIONS = ("relu", "tanh")


class UnknownTaskError(KeyError):
    """A task_id with no corresponding head."""


class EmptySplitError(ValueError):
    """Evaluation was asked for on a split with no rows."""


@dataclass(frozen=True)
class HeadSpec:
    output_dim: int
    loss: str = CROSS_ENTROPY

    def __post_init__(self):
        if self.output_dim < 1:
            raise ValueError(f"output_dim must be positive, got {self.output_dim}")
        if self.loss not in (CROSS_ENTROPY, MEAN_SQUARED_ERROR):
            raise ValueError(f"unknown loss kind: {self.loss!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: shared encoder plus one head per task."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    activation: str
    heads: Mapping[int, HeadSpec]

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if not self.heads:
            raise ValueError("need at least one head")
        object.__setattr__(self, "heads", dict(sorted(self.heads.items())))

    @property
    def encoder_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims)

    @property
    def encoder_out_dim(self) -> int:
        return self.encoder_dims[-1]

    @property
    def task_ids(self) -> tuple[int, ...]:
        return tuple(self.heads)

    @cached_property
    def layout(self) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
        """Ordered (block_name, slice, shape) triples covering the whole
        vector, computed on first use and kept for the life of the spec."""
        return _build_layout(self)


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    targets: np.ndarray
    task_id: int

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        object.__setattr__(self, "targets", np.asarray(self.targets))
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError("inputs must be a nonempty (n, input_dim) matrix")
        if self.targets.shape[0] != self.inputs.shape[0]:
            raise ValueError("inputs and targets row counts differ")


def _build_layout(spec: ModelSpec) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
    blocks: list[tuple[str, slice, tuple[int, ...]]] = []
    offset = 0

    def block(name: str, shape: tuple[int, ...]):
        nonlocal offset
        size = int(np.prod(shape))
        blocks.append((name, slice(offset, offset + size), shape))
        offset += size

    dims = spec.encoder_dims
    for i in range(len(dims) - 1):
        block(f"enc{i}.W", (dims[i], dims[i + 1]))
        block(f"enc{i}.b", (dims[i + 1],))
    for task_id, head in spec.heads.items():
        block(f"head{task_id}.W", (spec.encoder_out_dim, head.output_dim))
        block(f"head{task_id}.b", (head.output_dim,))
    return tuple(blocks)


def param_layout(spec: ModelSpec) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
    """Ordered (block_name, slice, shape) triples covering the whole vector."""
    return spec.layout


def param_count(spec: ModelSpec) -> int:
    return spec.layout[-1][1].stop


def head_slice(spec: ModelSpec, task_id: int) -> slice:
    """Contiguous slice covering task_id's W and b blocks."""
    start = stop = None
    for name, sl, _ in spec.layout:
        if name.startswith(f"head{task_id}."):
            start = sl.start if start is None else start
            stop = sl.stop
    if start is None:
        raise UnknownTaskError(task_id)
    return slice(start, stop)


@dataclass(frozen=True)
class SharedHeadModel:
    spec: ModelSpec
    params: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = param_count(self.spec)
        if len(self.params) != expected:
            raise ValueError(
                f"params length {len(self.params)} != spec-derived count {expected}"
            )

    def with_params(self, params: np.ndarray) -> "SharedHeadModel":
        return SharedHeadModel(self.spec, np.asarray(params, dtype=np.float64))


def init_params(spec: ModelSpec, rng: RngStream) -> SharedHeadModel:
    """Weights ~ Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero.

    Blocks are drawn in layout order from a single generator, so the result
    is a pure function of (spec, rng).
    """
    gen = rng.generator()
    params = np.zeros(param_count(spec))
    for name, sl, shape in spec.layout:
        if name.endswith(".W"):
            bound = 1.0 / np.sqrt(shape[0])
            params[sl] = gen.uniform(-bound, bound, size=shape).ravel()
    return SharedHeadModel(spec, params)


def _unpack(spec: ModelSpec, vector: np.ndarray) -> dict[str, np.ndarray]:
    """Writable block views of a full-length vector, by block name."""
    return {name: vector[sl].reshape(shape) for name, sl, shape in spec.layout}


def _encoder_forward(model: SharedHeadModel, x: np.ndarray):
    """Returns (activations per layer incl. input, pre-activations per layer)."""
    views = _unpack(model.spec, model.params)
    acts = [x]
    pres = []
    a = x
    for i in range(len(model.spec.hidden_dims)):
        z = a @ views[f"enc{i}.W"] + views[f"enc{i}.b"]
        pres.append(z)
        a = np.tanh(z) if model.spec.activation == "tanh" else np.maximum(z, 0.0)
        acts.append(a)
    return acts, pres, views


def _head_logits(model: SharedHeadModel, x: np.ndarray, task_id: int) -> np.ndarray:
    if task_id not in model.spec.heads:
        raise UnknownTaskError(task_id)
    acts, _, views = _encoder_forward(model, np.asarray(x, dtype=np.float64))
    return acts[-1] @ views[f"head{task_id}.W"] + views[f"head{task_id}.b"]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_gradient(model: SharedHeadModel, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean per-example loss and its exact gradient as a full-length vector.

    Head blocks not belonging to ``batch.task_id`` are exactly zero. A
    non-finite loss raises: that signals divergence and the caller is
    expected to abort the run with a diagnostic.
    """
    spec = model.spec
    if batch.task_id not in spec.heads:
        raise UnknownTaskError(batch.task_id)
    head = spec.heads[batch.task_id]
    x = batch.inputs
    n = x.shape[0]

    acts, pres, views = _encoder_forward(model, x)
    w_head = views[f"head{batch.task_id}.W"]
    logits = acts[-1] @ w_head + views[f"head{batch.task_id}.b"]

    if head.loss == CROSS_ENTROPY:
        labels = np.asarray(batch.targets, dtype=np.int64)
        if labels.min() < 0 or labels.max() >= head.output_dim:
            raise ValueError("class label out of range for head")
        log_probs = _log_softmax(logits)
        loss = float(-log_probs[np.arange(n), labels].mean())
        dlogits = np.exp(log_probs)
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
    else:
        targets = np.asarray(batch.targets, dtype=np.float64).reshape(n, head.output_dim)
        diff = logits - targets
        loss = float(np.mean(diff**2))
        dlogits = 2.0 * diff / diff.size

    if not np.isfinite(loss):
        raise NonFiniteError(f"non-finite loss on task {batch.task_id}: diverged")

    grad = np.zeros_like(model.params)
    grad_blocks = _unpack(spec, grad)
    grad_blocks[f"head{batch.task_id}.W"][...] = acts[-1].T @ dlogits
    grad_blocks[f"head{batch.task_id}.b"][...] = dlogits.sum(axis=0)
    da = dlogits @ w_head.T
    for i in reversed(range(len(spec.hidden_dims))):
        if spec.activation == "tanh":
            dz = da * (1.0 - acts[i + 1] ** 2)
        else:
            dz = da * (pres[i] > 0.0)
        grad_blocks[f"enc{i}.W"][...] = acts[i].T @ dz
        grad_blocks[f"enc{i}.b"][...] = dz.sum(axis=0)
        da = dz @ views[f"enc{i}.W"].T
    return loss, grad


@dataclass(frozen=True)
class PerfValue:
    """A scalar performance where larger is always better.

    Regression heads report negative mean squared error so the same
    maximization code path serves every metric.
    """

    value: float
    metric: str
    higher_is_better: bool = True

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise NonFiniteError(f"non-finite performance value ({self.metric})")


def evaluate(model: SharedHeadModel, split, task_id: int) -> PerfValue:
    """Accuracy in [0, 1] for classification heads, negative MSE otherwise.

    ``task_id`` picks the head; the split may come from any task with
    compatible inputs (that is how shifted-distribution probes work).
    """
    inputs = np.asarray(split.inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise EmptySplitError("cannot evaluate an empty split")
    head = model.spec.heads.get(task_id)
    if head is None:
        raise UnknownTaskError(task_id)
    logits = _head_logits(model, inputs, task_id)
    if head.loss == CROSS_ENTROPY:
        labels = np.asarray(split.targets, dtype=np.int64)
        acc = float(np.mean(np.argmax(logits, axis=1) == labels))
        return PerfValue(acc, "accuracy")
    targets = np.asarray(split.targets, dtype=np.float64).reshape(logits.shape)
    return PerfValue(-float(np.mean((logits - targets) ** 2)), "neg_mse")


def mean_max_confidence(model: SharedHeadModel, split, task_id: int) -> float:
    """Mean over the split of the max softmax probability; in [1/C, 1]."""
    head = model.spec.heads.get(task_id)
    if head is None:
        raise UnknownTaskError(task_id)
    if head.loss != CROSS_ENTROPY:
        raise ValueError("confidence is defined only for classification heads")
    inputs = np.asarray(split.inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise EmptySplitError("cannot evaluate an empty split")
    log_probs = _log_softmax(_head_logits(model, inputs, task_id))
    return float(np.exp(log_probs.max(axis=1)).mean())
