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
which is built once, bound to its parameters and the splits it reads, then
handed the row indices of up to one draw chunk of steps at a time and run
step by step, is the only forward/backward; ``loss_and_gradient`` builds
one such pass over one split per call and runs its one step. A model is
its spec plus one parameter vector: the module-level functions take both
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


class _Kernel:
    """Forward and backward passes of one ModelSpec.

    Parameter and gradient vectors are read and written through block views
    from ``views``, which callers may keep for as long as the vector lives.
    Every operation acts on the last two axes, so the same code runs one
    ``(n, d)`` batch and a stacked ``(P, n, d)`` pass over P (branch, task)
    pairs (see ``pair_pass``), with one matmul per layer over the leading
    pair axis. Activations, logits and backward scratch live in grow-only
    workspaces sized to the most rows seen so far; an evaluation slices them
    per call, and a pass takes its views of them once, when it is built. A
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
                return _rows_outer(ws, lead, ws.shape[1])

            fitted = self._fitted[lead] = _Fitted(
                [fit(ws) for ws in self._acts], [fit(ws) for ws in self._deltas],
                [fit(ws) for ws in self._derivs], fit(self._col))
        return fitted

    def views(self, vector: np.ndarray):
        """Writable block views of a full-length vector: a tuple of (W, b)
        per encoder layer, and a dict of (W, b) per head by task id."""
        if len(vector) != self.n_params:
            raise ValueError(f"vector length {len(vector)} != {self.n_params}")
        blocks = [vector[sl].reshape(shape) for _, sl, shape in self.spec.layout]
        pairs = list(zip(blocks[::2], blocks[1::2]))
        return tuple(pairs[: self._depth]), dict(zip(self.spec.heads, pairs[self._depth:]))

    def _encode(self, enc, x: np.ndarray, acts: Sequence[np.ndarray]) -> None:
        """Each hidden layer's activations under encoder blocks ``enc`` on
        inputs ``x`` (..., n, d), into ``acts``, workspaces of its rows."""
        for (w, b), z in zip(enc, acts):
            np.matmul(x, w, out=z)
            z += b
            if self._tanh:
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
            x = z

    def logits(self, views, x: np.ndarray, task_id: int) -> np.ndarray:
        """(n, C) logits of head ``task_id`` on inputs ``x``, in a workspace."""
        acts = self._fit(x.shape[:-1]).acts
        self._encode(views[0], x, acts)
        w, b = views[1][task_id]
        out = self._logits[: len(x) * w.shape[-1]].reshape(len(x), w.shape[-1])
        np.matmul(acts[-1] if acts else x, w, out=out)
        out += b
        return out

    def log_probs(self, views, x: np.ndarray, task_id: int) -> np.ndarray:
        """(n, C) log-softmax of head ``task_id`` on ``x``, in a workspace."""
        logits = self.logits(views, x, task_id)
        return _log_softmax(logits, self._probs[: logits.size].reshape(logits.shape),
                            self._fit(logits.shape[:-1]).col)

    def pair_pass(self, params: np.ndarray, pairs: Sequence[tuple[int, int]],
                  splits: Mapping[int, DataSplit], batch_size: int,
                  steps: int = 1) -> "_PairPass":
        """One stacked forward/backward per step for the (row of ``params``,
        task id) ``pairs`` on rows of ``splits``, staged up to ``steps``
        steps at a time; see ``_PairPass``."""
        return _PairPass(self, params, pairs, splits, batch_size, steps)

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
    """One stacked forward/backward per step over (branch, task) pairs, on
    row indices staged up to ``steps`` steps at a time.

    ``params`` is a C-contiguous (branches, ``kernel.n_params``) array with
    one branch's parameter vector per row, which the caller may update in
    place between steps; every pair's branch must be one of its rows. Each
    task's split in ``splits`` is checked once, when the pass is built, and
    the splits' inputs are copied back to back into one table, as are each
    head kind's targets, on the same row offsets. `stage` takes up to
    ``steps`` steps' row indices per task at once and does for all of them
    what depends only on the batch: it offsets every pair's rows into that
    table and looks up its targets, a classification head's as flat indices
    into its logits and a regression head's as values, into buffers sized
    when the pass is built. `run` then runs one staged step: one ``take`` of
    every pair's inputs, the gathers of the pairs' parameter blocks and the
    arithmetic, through workspace views that the pass also built once.
    Calling the pass stages one step and runs it.

    Pair (i, t) runs task t's batch through row i's encoder and head t, and
    its gradient goes to ``grads[index[(i, t)]]``, a full-length vector that
    stays zero outside the encoder and head t. The pair axis is ordered by
    head kind, so each kind's heads are one slice of it; a single pair drops
    the axis and runs as one ``(n, d)`` batch. The pairs' parameter blocks
    are read through a strided view of ``params`` when they sit evenly
    spaced in it (one pair, or one branch on consecutive heads) and gathered
    per step otherwise; head gradients are written in place or scattered
    likewise.
    """

    def __init__(self, kernel: _Kernel, params: np.ndarray,
                 pairs: Sequence[tuple[int, int]], splits: Mapping[int, DataSplit],
                 batch_size: int, steps: int):
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
        single = len(order) == 1
        self.index = {pair: k for k, pair in enumerate(order)}
        self.grads = np.zeros((len(order), n))
        self._grads_flat = self.grads.reshape(-1)
        self.losses = np.empty(len(order))
        self._kernel = kernel
        self._params = params.reshape(-1)
        self._gathers: list[tuple[np.ndarray, np.ndarray]] = []
        self._scatters: list[tuple[np.ndarray, np.ndarray]] = []
        # row r of task t's split is row offset[t] + r of every table
        tasks = sorted(heads)
        inputs = [_inputs(splits[t]) for t in tasks]
        lengths = [len(x) for x in inputs]
        offsets = dict(zip(tasks, np.cumsum([0] + lengths[:-1]).tolist()))
        self._inputs = np.concatenate(inputs, out=np.empty((sum(lengths), spec.input_dim)))
        fitted = kernel._fit((batch_size,) if single else (len(order), batch_size))
        self._xs = np.empty((len(order), batch_size, spec.input_dim))
        branch_at = np.array([i for i, _ in order]) * n
        enc_shapes = [shape for _, _, shape in spec.layout[: 2 * depth]]
        enc_size = sum(math.prod(shape) for shape in enc_shapes)
        enc = _rows_at(self._params, branch_at, enc_size, self._gathers)
        self._enc = _stacked_blocks(enc, enc_shapes)
        genc = _stacked_blocks(self.grads[:, :enc_size], enc_shapes, bias_rows=False)
        if single:
            self._enc, genc = ([(w[0], b[0]) for w, b in blocks]
                               for blocks in (self._enc, genc))
        acts = [self._xs[0] if single else self._xs, *fitted.acts]
        self._x, self._acts = acts[0], fitted.acts
        # per hidden layer, the top one first: the delta and transposed W of
        # the layer above (None for the top one), then the layer's delta,
        # activations, derivative, transposed inputs and gradient blocks
        self._layers = [
            (*((fitted.deltas[i + 1], self._enc[i + 1][0].swapaxes(-1, -2))
               if i + 1 < depth else (None, None)),
             fitted.deltas[i], acts[i + 1], fitted.derivs[i], acts[i].swapaxes(-1, -2),
             *genc[i])
            for i in reversed(range(depth))]
        self._pair_offsets = [(t, offsets[t]) for _, t in order]
        self._lengths = dict(zip(tasks, lengths))
        self._rows = np.empty((steps, len(order), batch_size), dtype=np.int64)
        # per head kind: its target table, its pairs' slice, their stage and,
        # for labels, each (pair, row)'s offset into the kind's flat logits
        self._targets = []
        self._heads = []
        logits_at = 0
        for kind in kinds:
            members = [k for k, (_, t) in enumerate(order) if heads[t] == kind]
            part = slice(members[0], members[-1] + 1)
            head_at = np.array([spec.head_slices[t].start for _, t in order[part]])
            c = kind.output_dim
            shapes = [(spec.encoder_out_dim, c), (c,)]
            size = (spec.encoder_out_dim + 1) * c
            head = _rows_at(self._params, branch_at[part] + head_at, size, self._gathers)
            grad_at = np.arange(part.start, part.stop) * n + head_at
            ghead = _rows_at(self._grads_flat, grad_at, size, self._scatters)
            blocks = [*_stacked_blocks(head, shapes)[0],
                      *_stacked_blocks(ghead, shapes, bias_rows=False)[0]]
            # rows of another kind's tasks stay zero; no pair of this kind reads them
            ce = kind.loss == CROSS_ENTROPY
            shape, dtype = ((), np.int64) if ce else ((c,), np.float64)
            table = np.zeros((len(self._inputs), *shape), dtype)
            for t, rows in zip(tasks, lengths):
                if heads[t] == kind:
                    table[offsets[t]: offsets[t] + rows] = _checked_targets(
                        splits[t].targets, kind)
            # a classification kind's logits keep their rows outermost (see
            # `_Head`), so pair q's row r starts at (r * pairs + q) * c
            at = slice(logits_at, logits_at + len(members) * batch_size * c)
            logits_at = at.stop
            flat_at = np.arange(0, at.stop - at.start, c).reshape(
                batch_size, len(members)).T if ce else None
            stage = np.empty((steps, len(members), batch_size, *shape), dtype)
            self._targets.append((table, part, stage, flat_at))

            def rows_of(view):
                return view if single else view[part]

            self._heads.append(_Head(
                ce, rows_of(acts[-1]), *(block[0] if single else block for block in blocks),
                kernel._logits[at], kernel._probs[at], rows_of(fitted.col),
                rows_of(fitted.deltas[-1]) if depth else None,
                self.losses.reshape(()) if single else self.losses[part]))
        # each step's rows, and per head kind its targets
        self._staged = [(self._rows[j], [stage[j, 0] if single else stage[j]
                                         for _, _, stage, _ in self._targets])
                        for j in range(steps)]

    def stage(self, rows: Mapping[int, np.ndarray]) -> None:
        """Stage the steps that `run` runs next: row j of ``rows[t]`` holds
        step j's ``batch_size`` indices in [0, len(split)) into task t's
        split, for as many steps as the pass was built to stage or fewer."""
        count = len(rows[self._pair_offsets[0][0]])
        if count > len(self._rows):
            raise ValueError(f"cannot stage {count} steps in a stage of {len(self._rows)}")
        # a step's gathers do not check their indices
        for t, length in self._lengths.items():
            if rows[t].size and not 0 <= rows[t].min() <= rows[t].max() < length:
                raise IndexError(f"task {t}: a row index lies outside its {length}-row split")
        staged = self._rows[:count]
        for p, (t, offset) in enumerate(self._pair_offsets):
            np.add(rows[t], offset, out=staged[:, p])
        for table, part, stage, flat_at in self._targets:
            table.take(staged[:, part], 0, stage[:count], "clip")
            if flat_at is not None:
                stage[:count] += flat_at

    def run(self, step: int) -> np.ndarray:
        """Every pair's loss on staged step ``step``, counted from the first
        step staged last, in pair order, and its gradient into ``grads``.
        The gradient of a pair whose loss is non-finite is meaningless."""
        rows, targets = self._staged[step]
        self._inputs.take(rows, 0, self._xs, "clip")
        for at, out in self._gathers:
            self._params.take(at, None, out, "clip")
        self._kernel._encode(self._enc, self._x, self._acts)
        for head, y in zip(self._heads, targets):
            head.forward(y)
        for head in self._heads:
            head.backward()
        tanh = self._kernel._tanh
        for above, w_t, d, act, deriv, inputs_t, gw, gb in self._layers:
            if above is not None:
                np.matmul(above, w_t, out=d)
            # tanh' is 1 - a**2; relu' is the mask a > 0
            if tanh:
                np.square(act, out=deriv)
                np.subtract(1.0, deriv, out=deriv)
            else:
                np.greater(act, 0.0, out=deriv)
            d *= deriv
            np.matmul(inputs_t, d, out=gw)
            np.add.reduce(d, axis=-2, out=gb)
        for at, values in self._scatters:
            self._grads_flat[at] = values
        return self.losses

    def __call__(self, rows: Mapping[int, np.ndarray]) -> np.ndarray:
        """`run` of one step staged alone: ``rows[t]`` holds its
        ``batch_size`` indices in [0, len(split)) into task t's split."""
        self.stage({t: np.asarray(at)[None] for t, at in rows.items()})
        return self.run(0)


class _Head:
    """One head kind's share of a pass: views, built with the pass, of its
    pairs' top activations, head blocks and their gradients, row scratch,
    encoder delta (None without a hidden layer) and losses, and the flat
    workspaces that hold its logits and d loss / d logits, through which
    each step's head runs. Classification logits keep their rows outermost,
    as the workspaces do; regression logits keep each pair's rows together,
    the order its loss sums them in."""

    def __init__(self, cross_entropy: bool, top, w, b, gw, gb, logits_flat, grad_flat,
                 col, delta, losses):
        lead, c = top.shape[:-1], w.shape[-1]
        logits, grad = (_rows_outer(flat, lead, c) if cross_entropy
                        else flat.reshape(*lead, c) for flat in (logits_flat, grad_flat))
        rows = lead[-1]
        self._ce = cross_entropy
        self._scale = rows if cross_entropy else rows * c
        self._top, self._w, self._b = top, w, b
        self._top_t, self._w_t = top.swapaxes(-1, -2), w.swapaxes(-1, -2)
        self._gw, self._gb = gw, gb
        self._logits, self._grad, self._col = logits, grad, col
        self._logits_flat, self._grad_flat = logits_flat, grad_flat
        self._columns = (_columns(logits), _columns(grad))
        self._delta, self._losses = delta, losses

    def forward(self, targets: np.ndarray) -> None:
        """The losses and d loss / d logits on ``targets``: each label's flat
        index into the logits, or the regression values."""
        logits, grad, losses = self._logits, self._grad, self._losses
        np.matmul(self._top, self._w, out=logits)
        logits += self._b
        if self._ce:
            _log_softmax(logits, grad, self._col, self._columns)
            # the mean's negation, bit for bit: rounding is symmetric in sign
            np.add.reduce(self._logits_flat.take(targets), axis=-1, out=losses)
            losses /= -self._scale
            np.exp(logits, out=grad)
            self._grad_flat[targets] -= 1.0
        else:
            diff = logits
            diff -= targets
            np.square(diff, out=grad)
            np.add.reduce(grad, axis=(-2, -1), out=losses)
            losses /= self._scale
            np.multiply(diff, 2.0, out=grad)
        grad /= self._scale

    def backward(self) -> None:
        """The head's gradient blocks and, given a hidden layer, the top
        layer's delta, after `forward`."""
        np.matmul(self._top_t, self._grad, out=self._gw)
        np.add.reduce(self._grad, axis=-2, out=self._gb)
        if self._delta is not None:
            np.matmul(self._grad, self._w_t, out=self._delta)


def _rows_outer(ws: np.ndarray, lead: tuple[int, ...], width: int) -> np.ndarray:
    """A (*lead, width) view of the start of contiguous workspace ``ws``.
    For a stacked (P, n) lead the rows are stored outermost, pair p's row r
    at row r * P + p, so that a bias add or a sum over rows runs along long
    stretches of memory."""
    return ws.reshape(-1)[: math.prod(lead) * width].reshape(
        *lead[::-1], width).swapaxes(0, -2)


def _log_softmax(logits: np.ndarray, scratch: np.ndarray, col: np.ndarray,
                 columns=(None, None)) -> np.ndarray:
    """Log-softmax over the last axis, in place; ``scratch`` (same shape)
    holds the exponentials and ``col`` (keepdims) the row reductions.
    ``columns`` may hold the `_columns` of ``logits`` and ``scratch``."""
    _reduce_last(np.maximum, logits, col, columns[0])
    logits -= col
    np.exp(logits, out=scratch)
    _reduce_last(np.add, scratch, col, columns[1])
    np.log(col, out=col)
    logits -= col
    return logits


def _columns(x: np.ndarray) -> list[np.ndarray] | None:
    """``x``'s last-axis columns as (..., 1) views when it has fewer than 8,
    the ones `_reduce_last` folds, else None."""
    c = x.shape[-1]
    return [x[..., j:j + 1] for j in range(c)] if c < 8 else None


def _reduce_last(ufunc: np.ufunc, x: np.ndarray, out: np.ndarray,
                 columns: list[np.ndarray] | None = None) -> None:
    """``ufunc.reduce`` over the last axis of ``x`` into ``out`` (keepdims),
    bit for bit. Below 8 columns numpy folds each row left to right, from
    the ufunc's identity if it has one, so one elementwise call per column
    gives the same bits without a per-row inner loop; from 8 columns on it
    sums pairwise, so the reduce itself runs. ``columns`` may hold
    ``_columns(x)``, made beforehand."""
    columns = columns or _columns(x)
    if columns is None:
        ufunc.reduce(x, axis=-1, keepdims=True, out=out)
        return
    first, *rest = columns
    if ufunc.identity is None:
        np.copyto(out, first)
    else:
        ufunc(first, ufunc.identity, out=out)
    for column in rest:
        ufunc(out, column, out=out)


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
