"""Shared-encoder multi-head dense network with exact analytic gradients.

The whole model lives in one flat float64 vector so that forking, merging,
and gradient mixing are plain vector arithmetic. Layout, in order:

    encoder layer 0: W (input_dim x h0, row-major), then b (h0)
    encoder layer 1: W (h0 x h1), then b (h1)
    ...
    head blocks in ascending task_id order: W (enc_out x out_dim), then b

``ModelSpec.layout`` holds the exact slice for every block, built once per
spec; all branches of a fork share this single layout, which is what makes
merged vectors meaningful. ``ModelSpec.kernel`` compiles the spec once per
thread into a kernel that reuses its workspaces across calls, so any thread
may evaluate or train a model. Its stacked pass over (branch, task) pairs,
which is built once, bound to its parameters and the splits it reads, and
then called with row indices per step, is the only forward/backward;
``loss_and_gradient`` builds one such pass over one split per call. A model
is its spec plus one parameter vector: the module-level functions take both
and return fresh values.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .tasks import DataSplit, class_labels
from .vectors import NonFiniteError, RngStream, check_domains, within

CROSS_ENTROPY = "softmax_cross_entropy"
MEAN_SQUARED_ERROR = "mean_squared_error"

_ACTIVATIONS = ("relu", "tanh")


class UnknownTaskError(KeyError):
    """A task_id with no corresponding head."""


class EmptySplitError(ValueError):
    """A pass or an evaluation was asked to read a split with no rows."""


@dataclass(frozen=True)
class HeadSpec:
    output_dim: int = within(">= 1")
    loss: str = within((CROSS_ENTROPY, MEAN_SQUARED_ERROR), CROSS_ENTROPY)

    def __post_init__(self):
        check_domains(self)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: shared encoder plus one head per task."""

    input_dim: int = within(">= 1")
    hidden_dims: tuple[int, ...] = within(">= 1")
    activation: str = within(_ACTIVATIONS)
    heads: Mapping[int, HeadSpec]

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        check_domains(self)
        if not self.heads:
            raise ValueError("heads: need at least one head")
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
    def head_slices(self) -> dict[int, slice]:
        """Each task's contiguous slice covering its head's W and b blocks,
        computed from ``layout`` on first use."""
        blocks = {name: sl for name, sl, _ in self.layout}
        return {t: slice(blocks[f"head{t}.W"].start, blocks[f"head{t}.b"].stop)
                for t in self.heads}

    @cached_property
    def _kernels(self) -> threading.local:
        return threading.local()

    @property
    def kernel(self) -> "_Kernel":
        """The calling thread's compiled forward/backward with its
        workspaces, built on the thread's first use and kept for the life of
        the spec. Each thread has its own, so any number of threads may run
        `evaluate` or a pass on one spec at once."""
        kernels = self._kernels
        if not hasattr(kernels, "kernel"):
            kernels.kernel = _Kernel(self)
        return kernels.kernel


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
    try:
        return spec.head_slices[task_id]
    except KeyError:
        raise UnknownTaskError(task_id) from None


def init_params(spec: ModelSpec, rng: RngStream) -> np.ndarray:
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
    return params


class _Fitted(NamedTuple):
    """A kernel's workspace views shaped for one row shape (..., n)."""

    acts: list[np.ndarray]
    deltas: list[np.ndarray]
    derivs: list[np.ndarray]
    col: np.ndarray
    row_ids: np.ndarray


class _Kernel:
    """Forward and backward passes of one ModelSpec.

    Parameter and gradient vectors are read and written through block views
    from ``views``, which callers may keep for as long as the vector lives.
    Every operation acts on the last two axes, so the same code runs one
    ``(n, d)`` batch and a stacked ``(P, n, d)`` pass over P (branch, task)
    pairs (see ``pair_pass``), with one matmul per layer over the leading
    pair axis. Activations, logits and backward scratch live in grow-only
    workspaces sized to the most rows seen so far and sliced per call; a
    workspace view returned by ``logits`` or ``log_probs`` is valid only
    until the next call. The operations and their order are those of a
    plain allocating implementation, so results do not depend on which calls
    came before or on which pairs are stacked together. A kernel belongs to
    the thread that ``ModelSpec.kernel`` built it for and keeps no pass.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.n_params = spec.layout[-1][1].stop
        self._depth = len(spec.hidden_dims)
        self._tanh = spec.activation == "tanh"
        self._max_out = max(head.output_dim for head in spec.heads.values())
        self._rows = 0
        self._fitted: dict[tuple[int, ...], _Fitted] = {}

    def _reserve(self, rows: int) -> None:
        if rows <= self._rows:
            return
        hidden = self.spec.hidden_dims
        # tanh' needs 1 - a**2; relu' is the mask a > 0
        deriv = np.float64 if self._tanh else np.bool_
        self._acts = [np.empty((rows, h)) for h in hidden]
        self._deltas = [np.empty((rows, h)) for h in hidden]
        self._derivs = [np.empty((rows, h), dtype=deriv) for h in hidden]
        self._logits = np.empty(rows * self._max_out)
        self._probs = np.empty(rows * self._max_out)
        self._col = np.empty((rows, 1))
        self._count = np.empty((rows, 1), dtype=np.intp)
        self._equal = np.empty((rows, 1), dtype=np.bool_)
        self._row_ids = np.arange(rows)
        self._rows = rows
        self._fitted.clear()

    def _fit(self, lead: tuple[int, ...]) -> "_Fitted":
        """Workspace views shaped for rows ``lead``, (n,) or (P, n); kept per
        shape until the workspaces grow."""
        fitted = self._fitted.get(lead)
        if fitted is None:
            rows = math.prod(lead)
            self._reserve(rows)

            def fit(ws):
                return ws[:rows].reshape(*lead, *ws.shape[1:])

            fitted = self._fitted[lead] = _Fitted(
                [fit(ws) for ws in self._acts], [fit(ws) for ws in self._deltas],
                [fit(ws) for ws in self._derivs], fit(self._col), self._row_ids[:rows])
        return fitted

    def views(self, vector: np.ndarray):
        """Writable block views of a full-length vector: a tuple of (W, b)
        per encoder layer, and a dict of (W, b) per head by task id."""
        if len(vector) != self.n_params:
            raise ValueError(f"vector length {len(vector)} != {self.n_params}")
        blocks = [vector[sl].reshape(shape) for _, sl, shape in self.spec.layout]
        pairs = list(zip(blocks[::2], blocks[1::2]))
        return tuple(pairs[: self._depth]), dict(zip(self.spec.heads, pairs[self._depth:]))

    def _encode(self, enc, x: np.ndarray) -> list[np.ndarray]:
        """[x, a_1, ..., a_depth]: inputs ``x`` (..., n, d) and each hidden
        layer's activations under encoder blocks ``enc``, in workspaces."""
        acts = [x]
        for (w, b), z in zip(enc, self._fit(x.shape[:-1]).acts):
            np.matmul(acts[-1], w, out=z)
            z += b
            if self._tanh:
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def _affine_head(self, a: np.ndarray, w: np.ndarray, b: np.ndarray,
                     start: int = 0) -> np.ndarray:
        """a @ w + b into the logits workspace from flat offset ``start``."""
        out = self._logits[start: start + a.size // a.shape[-1] * w.shape[-1]]
        out = out.reshape(*a.shape[:-1], w.shape[-1])
        np.matmul(a, w, out=out)
        out += b
        return out

    def _log_softmax(self, logits: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Log-softmax over the last axis, in place; ``scratch`` (same shape)
        holds the exponentials."""
        col = self._fit(logits.shape[:-1]).col
        _reduce_last(np.maximum, logits, col)
        logits -= col
        np.exp(logits, out=scratch)
        _reduce_last(np.add, scratch, col)
        np.log(col, out=col)
        logits -= col
        return logits

    def logits(self, views, x: np.ndarray, task_id: int) -> np.ndarray:
        """(n, C) logits of head ``task_id`` on inputs ``x``, in a workspace."""
        return self._affine_head(self._encode(views[0], x)[-1], *views[1][task_id])

    def log_probs(self, views, x: np.ndarray, task_id: int) -> np.ndarray:
        """(n, C) log-softmax of head ``task_id`` on ``x``, in a workspace."""
        logits = self.logits(views, x, task_id)
        return self._log_softmax(logits, self._probs[: logits.size].reshape(logits.shape))

    def _loss(self, a: np.ndarray, w: np.ndarray, b: np.ndarray, head: HeadSpec,
              targets: np.ndarray, start: int = 0):
        """Mean loss over the row axis of one head kind on activations ``a``
        (..., n, h), and d loss / d logits in the probs workspace from flat
        offset ``start``. ``targets`` are checked labels (..., n) or values
        (..., n, C); the loss has shape (...)."""
        logits = self._affine_head(a, w, b, start)
        n, c = logits.shape[-2:]
        grad = self._probs[start: start + logits.size].reshape(logits.shape)
        if head.loss == CROSS_ENTROPY:
            log_probs = self._log_softmax(logits, grad)
            hit = (self._fit(targets.shape).row_ids, targets.reshape(-1))
            loss = -(np.add.reduce(log_probs.reshape(-1, c)[hit].reshape(targets.shape),
                                   axis=-1) / n)
            np.exp(log_probs, out=grad)
            grad.reshape(-1, c)[hit] -= 1.0
            grad /= n
        else:
            diff = logits
            diff -= targets
            np.square(diff, out=grad)
            loss = np.add.reduce(grad, axis=(-2, -1)) / (n * c)
            np.multiply(diff, 2.0, out=grad)
            grad /= n * c
        return loss, grad

    def _backward(self, acts, enc, genc, heads) -> None:
        """Backward pass after ``_encode`` and ``_loss``: writes encoder
        gradients into ``genc``. ``heads`` holds, per head kind, (slice of
        the leading axis, W, gW, gb, d loss / d logits)."""
        fitted = self._fit(acts[0].shape[:-1])
        deltas, derivs = fitted.deltas, fitted.derivs
        top = acts[-1]
        delta = deltas[-1] if self._depth else None
        for part, w, gw, gb, grad in heads:
            np.matmul(top[part].swapaxes(-1, -2), grad, out=gw)
            np.add.reduce(grad, axis=-2, out=gb)
            if delta is not None:
                np.matmul(grad, w.swapaxes(-1, -2), out=delta[part])
        for i in reversed(range(self._depth)):
            d = deltas[i]
            if i + 1 < self._depth:
                np.matmul(delta, enc[i + 1][0].swapaxes(-1, -2), out=d)
            act, deriv = acts[i + 1], derivs[i]
            if self._tanh:
                np.square(act, out=deriv)
                np.subtract(1.0, deriv, out=deriv)
            else:
                np.greater(act, 0.0, out=deriv)
            np.multiply(d, deriv, out=d)
            gw, gb = genc[i]
            np.matmul(acts[i].swapaxes(-1, -2), d, out=gw)
            np.add.reduce(d, axis=-2, out=gb)
            delta = d

    def pair_pass(self, params: np.ndarray, pairs: Sequence[tuple[int, int]],
                  splits: Mapping[int, DataSplit], batch_size: int) -> "_PairPass":
        """One stacked forward/backward per step for the (row of ``params``,
        task id) ``pairs`` on rows of ``splits``; see ``_PairPass``."""
        return _PairPass(self, params, pairs, splits, batch_size)

    def evaluate(self, views, split, task_id: int) -> "PerfValue":
        inputs = _inputs(split)
        n = inputs.shape[0]
        head = self._head(task_id)
        logits = self.logits(views, inputs, task_id)
        if head.loss == CROSS_ENTROPY:
            labels = _checked_targets(split.targets, head)
            # a count over n is what np.mean of the hit flags gives, bit for bit
            return PerfValue(self._argmax_hits(logits, labels) / n, "accuracy")
        targets = np.asarray(split.targets, dtype=np.float64).reshape(logits.shape)
        logits -= targets
        np.square(logits, out=logits)
        return PerfValue(-float(np.mean(logits)), "neg_mse")

    def _argmax_hits(self, logits: np.ndarray, labels: np.ndarray) -> int:
        """Rows of ``logits`` (n, C) whose label is ``np.argmax``'s pick,
        counted without a row-wise argmax. The row maximum is folded column
        by column, as in ``_reduce_last``; a row whose maximum occurs exactly
        once is a hit when its label's logit equals it. The other rows (ties,
        NaN, repeated infinities) go to ``np.argmax`` alone, which picks the
        first maximum or the first NaN."""
        n, c = logits.shape
        top, count, equal = self._col[:n], self._count[:n], self._equal[:n]
        _reduce_last(np.maximum, logits, top)
        np.equal(logits[:, :1], top, out=count)
        for j in range(1, c):
            count += np.equal(logits[:, j:j + 1], top, out=equal)
        unique = count[:, 0] == 1
        target = np.take(logits.reshape(-1), self._row_ids[:n] * c + labels)
        hits = np.count_nonzero(unique & (target == top[:, 0]))
        odd = np.flatnonzero(~unique)
        if len(odd):
            hits += np.count_nonzero(np.argmax(logits[odd], axis=1) == labels[odd])
        return int(hits)

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


class _PairPass:
    """One stacked forward/backward per step over (branch, task) pairs.

    ``params`` is a C-contiguous (branches, ``kernel.n_params``) array with
    one branch's parameter vector per row, which the caller may update in
    place between steps; every pair's branch must be one of its rows. Each task's split in ``splits`` is checked once,
    when the pass is built, and the splits' inputs are copied back to back
    into one table, as are each head kind's targets, on the same row
    offsets. A step offsets each task's row indices into that table and
    gathers every pair's inputs with one ``take``, and its targets with one
    more per head kind, straight into the pass's buffers. Pair (i, t) runs
    task t's batch through row i's encoder and head t, and its gradient goes
    to ``grads[index[(i, t)]]``, a full-length vector that stays zero outside
    the encoder and head t. The pair axis is ordered by head kind, so each
    kind's heads are one slice of it; a single pair drops the axis and runs
    as one ``(n, d)`` batch. The pairs' parameter blocks are read through a
    strided view of ``params`` when they sit evenly spaced in it (one pair,
    or one branch on consecutive heads) and gathered per step otherwise;
    head gradients are written in place or scattered likewise.
    """

    def __init__(self, kernel: _Kernel, params: np.ndarray,
                 pairs: Sequence[tuple[int, int]], splits: Mapping[int, DataSplit],
                 batch_size: int):
        spec, depth, n = kernel.spec, kernel._depth, kernel.n_params
        if params.ndim != 2 or params.shape[1] != n:
            raise ValueError(f"params of shape {params.shape} are not rows of length {n}")
        if not params.flags.c_contiguous:
            raise ValueError("params must be C-contiguous, one branch per row")
        if not pairs:
            raise ValueError("a pass needs at least one (branch, task) pair")
        for i, t in pairs:
            if not 0 <= i < params.shape[0]:
                raise ValueError(f"pair ({i}, {t}) names branch {i}, but params has"
                                 f" {params.shape[0]} rows")
        heads = {t: kernel._head(t) for _, t in pairs}
        kinds = list(dict.fromkeys(heads[t] for t in sorted(heads)))
        order = sorted(pairs, key=lambda pair: (kinds.index(heads[pair[1]]), pair))
        self.index = {pair: k for k, pair in enumerate(order)}
        self.grads = np.zeros((len(order), n))
        self._grads_flat = self.grads.reshape(-1)
        self.losses = np.empty(len(order))
        self._kernel = kernel
        self._params = params.reshape(-1)
        self._gathers: list[tuple[np.ndarray, np.ndarray]] = []
        self._scatters: list[tuple[np.ndarray, np.ndarray]] = []
        self._xs = self._x = np.empty((len(order), batch_size, spec.input_dim))
        branch_at = np.array([i for i, _ in order]) * n
        enc_shapes = [shape for _, _, shape in spec.layout[: 2 * depth]]
        enc_size = sum(math.prod(shape) for shape in enc_shapes)
        enc = _rows_at(self._params, branch_at, enc_size, self._gathers)
        self._enc = _stacked_blocks(enc, enc_shapes)
        self._genc = _stacked_blocks(self.grads[:, :enc_size], enc_shapes, bias_rows=False)
        # row r of task t's split is row offset[t] + r of every table
        tasks = sorted(heads)
        inputs = [_inputs(splits[t]) for t in tasks]
        lengths = [len(x) for x in inputs]
        offsets = np.cumsum([0] + lengths[:-1]).tolist()
        self._inputs = np.concatenate(inputs, out=np.empty((sum(lengths), spec.input_dim)))
        self._task_rows = np.empty((len(tasks), batch_size), dtype=np.int64)
        self._offsets = list(zip(tasks, offsets, self._task_rows))
        self._pair_tasks = np.array([tasks.index(t) for _, t in order])
        self._rows = np.empty((len(order), batch_size), dtype=np.int64)
        self._targets = []  # per head kind: (its target table, its pairs, their buffer)
        self._kinds = []
        start = 0
        for kind in kinds:
            members = [k for k, (_, t) in enumerate(order) if heads[t] == kind]
            part = slice(members[0], members[-1] + 1)
            head_at = np.array([spec.head_slices[t].start for _, t in order[part]])
            shapes = [(spec.encoder_out_dim, kind.output_dim), (kind.output_dim,)]
            size = (spec.encoder_out_dim + 1) * kind.output_dim
            head = _rows_at(self._params, branch_at[part] + head_at, size, self._gathers)
            (w, b), = _stacked_blocks(head, shapes)
            grad_at = np.arange(part.start, part.stop) * n + head_at
            ghead = _rows_at(self._grads_flat, grad_at, size, self._scatters)
            (gw, gb), = _stacked_blocks(ghead, shapes, bias_rows=False)
            # rows of another kind's tasks stay zero; no pair of this kind reads them
            shape, dtype = (((), np.int64) if kind.loss == CROSS_ENTROPY
                            else ((kind.output_dim,), np.float64))
            table = np.zeros((len(self._inputs), *shape), dtype)
            for t, at, rows in zip(tasks, offsets, lengths):
                if heads[t] == kind:
                    table[at: at + rows] = _checked_targets(splits[t].targets, kind)
            y = np.empty((len(members), batch_size, *shape), dtype)
            self._targets.append((table, part, y))
            self._kinds.append((part, kind, w, b, y, gw, gb, start))
            start += len(members) * batch_size * kind.output_dim
        if len(order) == 1:
            self._x = self._x[0]
            self._enc, self._genc = ([(w[0], b[0]) for w, b in blocks]
                                     for blocks in (self._enc, self._genc))
            _, kind, *operands, start = self._kinds[0]
            self._kinds = [(slice(None), kind, *(a[0] for a in operands), start)]

    def __call__(self, rows: Mapping[int, np.ndarray]) -> np.ndarray:
        """Every pair's loss on this step's rows (``batch_size`` indices in
        [0, len(split)) into each task's split), in pair order, and its
        gradient into ``grads``. The gradient of a pair whose loss is
        non-finite is meaningless."""
        kernel = self._kernel
        for t, offset, at in self._offsets:
            np.add(rows[t], offset, out=at)
        at = self._task_rows.take(self._pair_tasks, 0, self._rows)
        self._inputs.take(at, 0, self._xs)
        for table, part, y in self._targets:
            table.take(at[part], 0, y)
        for at, out in self._gathers:
            self._params.take(at, None, out)
        acts = kernel._encode(self._enc, self._x)
        heads = []
        for part, kind, w, b, targets, gw, gb, start in self._kinds:
            loss, grad = kernel._loss(acts[-1][part], w, b, kind, targets, start)
            self.losses[part] = loss
            heads.append((part, w, gw, gb, grad))
        kernel._backward(acts, self._enc, self._genc, heads)
        for at, values in self._scatters:
            self._grads_flat[at] = values
        return self.losses


def _reduce_last(ufunc: np.ufunc, x: np.ndarray, out: np.ndarray) -> None:
    """``ufunc.reduce`` over the last axis of ``x`` into ``out`` (keepdims),
    bit for bit. Below 8 columns numpy folds each row left to right, from
    the ufunc's identity if it has one, so one elementwise call per column
    gives the same bits without a per-row inner loop; from 8 columns on it
    sums pairwise, so the reduce itself runs."""
    c = x.shape[-1]
    if c >= 8:
        ufunc.reduce(x, axis=-1, keepdims=True, out=out)
        return
    if ufunc.identity is None:
        np.copyto(out, x[..., :1])
    else:
        ufunc(x[..., :1], ufunc.identity, out=out)
    for j in range(1, c):
        ufunc(out, x[..., j:j + 1], out=out)


def _rows_at(flat: np.ndarray, offsets: np.ndarray, size: int, copies: list) -> np.ndarray:
    """(len(offsets), size) rows of ``flat`` starting at ``offsets``: a
    strided view when the offsets are evenly spaced, else a buffer whose
    (flat index, buffer) pair joins ``copies``, to be copied every step."""
    steps = np.diff(offsets)
    if (steps != steps[:1]).any():
        rows = np.empty((len(offsets), size))
        copies.append((offsets[:, None] + np.arange(size), rows))
        return rows
    step = int(steps[0]) if len(steps) else 0
    return np.lib.stride_tricks.as_strided(
        flat[offsets[0]:], (len(offsets), size), (step * flat.itemsize, flat.itemsize))


def _stacked_blocks(stack: np.ndarray, shapes, bias_rows: bool = True
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views of (P, size) rows that hold blocks of ``shapes`` back to
    back. Biases are (P, 1, k), which broadcast over a forward pass's rows,
    or with ``bias_rows`` false (P, k), which a backward pass sums into."""
    blocks, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        lead = (len(stack), -1) if len(shape) == 2 or bias_rows else (len(stack),)
        blocks.append(stack[:, at: at + size].reshape(*lead, shape[-1]))
        at += size
    return list(zip(blocks[::2], blocks[1::2]))


def check_loss(loss, task_id: int) -> None:
    """Raise NonFiniteError naming ``task_id`` for a non-finite loss."""
    if not math.isfinite(loss):
        raise NonFiniteError(f"non-finite loss on task {task_id}: diverged")


def _checked_targets(targets, head: HeadSpec) -> np.ndarray:
    """Labels as int64 for a classification head, by `class_labels`, else
    (n, C) float64 regression targets."""
    if head.loss == CROSS_ENTROPY:
        return class_labels(targets, head.output_dim)
    return np.asarray(targets, dtype=np.float64).reshape(-1, head.output_dim)


def _inputs(split) -> np.ndarray:
    inputs = np.asarray(split.inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise EmptySplitError("cannot read a split with no rows")
    return inputs


def loss_and_gradient(spec: ModelSpec, params: np.ndarray,
                      split: DataSplit) -> tuple[float, np.ndarray]:
    """Mean per-example loss over ``split`` and its exact gradient as a fresh
    full-length vector: a one-pair stacked pass over ``params`` and every
    row of ``split``, built for this call and called once.

    Head blocks not belonging to ``split.task_id`` are exactly zero. A
    non-finite loss raises: that signals divergence and the caller is
    expected to abort the run with a diagnostic.
    """
    t, n = split.task_id, len(split)
    single = spec.kernel.pair_pass(np.array(params, dtype=np.float64)[None], [(0, t)],
                                   {t: split}, n)
    [loss] = single({t: np.arange(n)})
    check_loss(loss, t)
    return float(loss), single.grads[0]


@dataclass(frozen=True)
class PerfValue:
    """A scalar performance where larger is always better.

    Regression heads report negative mean squared error so the same
    maximization code path serves every metric.
    """

    value: float
    metric: str

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise NonFiniteError(f"non-finite performance value ({self.metric})")


def evaluate(spec: ModelSpec, params: np.ndarray, split, task_id: int) -> PerfValue:
    """Accuracy in [0, 1] for classification heads, negative MSE otherwise.

    ``task_id`` picks the head; the split may come from any task with
    compatible inputs (that is how shifted-distribution probes work).
    """
    kernel = spec.kernel
    return kernel.evaluate(kernel.views(params), split, task_id)


def mean_max_confidence(spec: ModelSpec, params: np.ndarray, split,
                        task_id: int) -> float:
    """Mean over the split of the max softmax probability; in [1/C, 1]."""
    kernel = spec.kernel
    return kernel.confidence(kernel.views(params), split, task_id)
