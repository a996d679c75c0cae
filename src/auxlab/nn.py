"""Shared-encoder multi-head dense network with exact analytic gradients.

The whole model lives in one flat float64 vector so that forking, merging,
and gradient mixing are plain vector arithmetic. Layout, in order:

    encoder layer 0: W (input_dim x h0, row-major), then b (h0)
    encoder layer 1: W (h0 x h1), then b (h1)
    ...
    head blocks in ascending task_id order: W (enc_out x out_dim), then b

``ModelSpec.layout`` holds the exact slice for every block, built once per
spec; all branches of a fork share this single layout, which is what makes
merged vectors meaningful. ``ModelSpec.kernel`` compiles the spec once into
the only forward/backward implementation, which reuses its workspaces across
calls; the module-level functions are thin callers that return fresh values.
"""

from __future__ import annotations

import math
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
            raise ValueError("hidden_dims must be positive")
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

    @cached_property
    def kernel(self) -> "_Kernel":
        """Compiled forward/backward with its workspaces, built on first use
        and kept for the life of the spec."""
        return _Kernel(self)


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


class _Kernel:
    """Forward and backward passes of one ModelSpec.

    Parameter and gradient vectors are read and written through block views
    from ``views``, which callers may keep for as long as the vector lives.
    Activations, logits and backward scratch live in grow-only workspaces
    sized to the largest row count seen so far and sliced to ``[:n]`` per
    call; a workspace view returned by ``logits`` or ``log_probs`` is valid
    only until the next call. The operations and their order are those of a
    plain allocating implementation, so results do not depend on which
    calls came before. One kernel serves one thread at a time.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.n_params = spec.layout[-1][1].stop
        self._depth = len(spec.hidden_dims)
        self._tanh = spec.activation == "tanh"
        self._max_out = max(head.output_dim for head in spec.heads.values())
        self._rows = 0

    def _reserve(self, n: int) -> None:
        if n <= self._rows:
            return
        hidden = self.spec.hidden_dims
        # tanh' needs 1 - a**2; relu' is the mask a > 0
        deriv = np.float64 if self._tanh else np.bool_
        self._acts = [np.empty((n, h)) for h in hidden]
        self._deltas = [np.empty((n, h)) for h in hidden]
        self._derivs = [np.empty((n, h), dtype=deriv) for h in hidden]
        self._logits = np.empty(n * self._max_out)
        self._probs = np.empty(n * self._max_out)
        self._col = np.empty((n, 1))
        self._argmax = np.empty(n, dtype=np.intp)
        self._hits = np.empty(n, dtype=np.bool_)
        self._row_ids = np.arange(n)
        self._rows = n

    def views(self, vector: np.ndarray):
        """Writable block views of a full-length vector: a tuple of (W, b)
        per encoder layer, and a dict of (W, b) per head by task id."""
        if len(vector) != self.n_params:
            raise ValueError(f"vector length {len(vector)} != {self.n_params}")
        blocks = [vector[sl].reshape(shape) for _, sl, shape in self.spec.layout]
        pairs = list(zip(blocks[::2], blocks[1::2]))
        return tuple(pairs[: self._depth]), dict(zip(self.spec.heads, pairs[self._depth:]))

    def logits(self, views, x: np.ndarray, task_id: int) -> np.ndarray:
        """(n, C) logits of head ``task_id`` on inputs ``x``, in a workspace."""
        n = x.shape[0]
        self._reserve(n)
        a = x
        for (w, b), act in zip(views[0], self._acts):
            z = act[:n]
            np.matmul(a, w, out=z)
            z += b
            if self._tanh:
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
            a = z
        w, b = views[1][task_id]
        out = self._logits[: n * w.shape[1]].reshape(n, w.shape[1])
        np.matmul(a, w, out=out)
        out += b
        return out

    def log_probs(self, views, x: np.ndarray, task_id: int) -> np.ndarray:
        """(n, C) log-softmax of head ``task_id`` on ``x``, in a workspace."""
        logits = self.logits(views, x, task_id)
        n, c = logits.shape
        col = self._col[:n]
        np.maximum.reduce(logits, axis=1, keepdims=True, out=col)
        logits -= col
        probs = self._probs[: n * c].reshape(n, c)
        np.exp(logits, out=probs)
        np.add.reduce(probs, axis=1, keepdims=True, out=col)
        np.log(col, out=col)
        logits -= col
        return logits

    def loss_and_gradient(self, views, batch: Batch, grad_views) -> float:
        """Mean loss on ``batch``; writes its gradient into ``grad_views``.

        Only the encoder blocks and ``batch.task_id``'s head blocks are
        written, so a gradient buffer that is zero in the other heads' blocks
        stays so. A non-finite loss raises before the backward pass.
        """
        head = self._head(batch.task_id)
        x = batch.inputs
        n = x.shape[0]
        c = head.output_dim
        if head.loss == CROSS_ENTROPY:
            labels = np.asarray(batch.targets, dtype=np.int64)
            if labels.min() < 0 or labels.max() >= c:
                raise ValueError("class label out of range for head")
            log_probs = self.log_probs(views, x, batch.task_id)
            rows = self._row_ids[:n]
            loss = float(-log_probs[rows, labels].mean())
            if not math.isfinite(loss):
                raise NonFiniteError(f"non-finite loss on task {batch.task_id}: diverged")
            dlogits = np.exp(log_probs, out=self._probs[: n * c].reshape(n, c))
            dlogits[rows, labels] -= 1.0
            dlogits /= n
        else:
            targets = np.asarray(batch.targets, dtype=np.float64).reshape(n, c)
            diff = self.logits(views, x, batch.task_id)
            diff -= targets
            dlogits = np.square(diff, out=self._probs[: n * c].reshape(n, c))
            loss = float(np.mean(dlogits))
            if not math.isfinite(loss):
                raise NonFiniteError(f"non-finite loss on task {batch.task_id}: diverged")
            np.multiply(diff, 2.0, out=dlogits)
            dlogits /= diff.size

        w, _ = views[1][batch.task_id]
        gw, gb = grad_views[1][batch.task_id]
        np.matmul((self._acts[-1][:n] if self._depth else x).T, dlogits, out=gw)
        np.add.reduce(dlogits, axis=0, out=gb)
        delta = dlogits
        for i in reversed(range(self._depth)):
            d = self._deltas[i][:n]
            np.matmul(delta, w.T, out=d)
            act, deriv = self._acts[i][:n], self._derivs[i][:n]
            if self._tanh:
                np.square(act, out=deriv)
                np.subtract(1.0, deriv, out=deriv)
            else:
                np.greater(act, 0.0, out=deriv)
            np.multiply(d, deriv, out=d)
            gw, gb = grad_views[0][i]
            np.matmul((self._acts[i - 1][:n] if i else x).T, d, out=gw)
            np.add.reduce(d, axis=0, out=gb)
            delta, w = d, views[0][i][0]
        return loss

    def evaluate(self, views, split, task_id: int) -> "PerfValue":
        inputs = _inputs(split)
        n = inputs.shape[0]
        head = self._head(task_id)
        logits = self.logits(views, inputs, task_id)
        if head.loss == CROSS_ENTROPY:
            labels = np.asarray(split.targets, dtype=np.int64)
            predicted = np.argmax(logits, axis=1, out=self._argmax[:n])
            hits = np.equal(predicted, labels, out=self._hits[:n])
            return PerfValue(float(np.mean(hits)), "accuracy")
        targets = np.asarray(split.targets, dtype=np.float64).reshape(logits.shape)
        logits -= targets
        np.square(logits, out=logits)
        return PerfValue(-float(np.mean(logits)), "neg_mse")

    def confidence(self, views, split, task_id: int) -> float:
        if self._head(task_id).loss != CROSS_ENTROPY:
            raise ValueError("confidence is defined only for classification heads")
        inputs = _inputs(split)
        log_probs = self.log_probs(views, inputs, task_id)
        top = np.maximum.reduce(log_probs, axis=1, out=self._col[: inputs.shape[0], 0])
        return float(np.exp(top, out=top).mean())

    def _head(self, task_id: int) -> HeadSpec:
        head = self.spec.heads.get(task_id)
        if head is None:
            raise UnknownTaskError(task_id)
        return head


def _inputs(split) -> np.ndarray:
    inputs = np.asarray(split.inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise EmptySplitError("cannot evaluate an empty split")
    return inputs


def loss_and_gradient(model: SharedHeadModel, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean per-example loss and its exact gradient as a fresh full-length
    vector.

    Head blocks not belonging to ``batch.task_id`` are exactly zero. A
    non-finite loss raises: that signals divergence and the caller is
    expected to abort the run with a diagnostic.
    """
    kernel = model.spec.kernel
    grad = np.zeros(kernel.n_params)
    loss = kernel.loss_and_gradient(kernel.views(model.params), batch, kernel.views(grad))
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
    kernel = model.spec.kernel
    return kernel.evaluate(kernel.views(model.params), split, task_id)


def mean_max_confidence(model: SharedHeadModel, split, task_id: int) -> float:
    """Mean over the split of the max softmax probability; in [1/C, 1]."""
    kernel = model.spec.kernel
    return kernel.confidence(kernel.views(model.params), split, task_id)
