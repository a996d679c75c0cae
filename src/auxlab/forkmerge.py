"""Fork/merge training: clone parameters into branches trained under
different task weightings, then recombine them by searching for the convex
combination that maximizes target validation performance.

The search never leaves the convex hull of the branch parameter vectors, and
the first best candidate in evaluation order wins. The grid and greedy
searches always evaluate the pure target-only combination, so their merges
never score below the target-only branch on validation. Candidates are
independent, so on a validation split of `_MIN_ROWS` rows or more
`across_cores` scores whole candidates on every core the process may use:
the calling thread takes a share and each other core runs one pool thread
with its own kernel. Results come back in evaluation order, so merges do
not depend on the core count.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from . import nn
from .nn import ModelSpec, PerfValue
from .optim import OptConfig, TaskWeighting, sgd_step_into
from .tasks import DataSplit, TaskFamily
from .vectors import (NonFiniteError, RngStream, check_domains, linear_combination,
                      linear_combination_into, within)

__all__ = [
    "MergeSchedule",
    "CandidateEval",
    "MergeRecord",
    "SearchOutcome",
    "BranchDivergedError",
    "check_branches",
    "make_omega_branches",
    "merge_coeffs_from_task_weights",
    "draw_batch",
    "train_branches",
    "search_lambda_grid",
    "search_lambda_binary",
    "greedy_search_lambda",
    "across_cores",
    "run_forkmerge",
]

DEFAULT_LAMBDA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


class BranchDivergedError(NonFiniteError):
    """Branch ``branch_id`` reached non-finite values at absolute step
    ``step``; ``round_index`` is its fork/merge round, or None outside one.
    A branch's id is its position in the list of weightings it came from:
    the list `train_branches` trained, or the fork `run_forkmerge` ran."""

    def __init__(self, branch_id: int, step: int, cause: Exception,
                 round_index: int | None = None):
        where = "" if round_index is None else f" (round {round_index})"
        super().__init__(f"branch {branch_id} diverged at step {step}{where}: {cause}")
        self.branch_id = branch_id
        self.step = step
        self.round_index = round_index


@dataclass(frozen=True)
class MergeSchedule:
    """Timing and search policy for the fork/merge loop."""

    total_steps: int = within(">= 1")
    merge_interval: int = within(">= 1")
    lambda_grid: tuple[float, ...] = within(">= 0", DEFAULT_LAMBDA_GRID)
    search_strategy: str = within(("grid", "binary", "greedy"), "grid")
    prune_to: int | None = within(">= 1", None)
    binary_iters: int = within(">= 1", 5)
    val_subsample: int | None = within(">= 1", None)

    def __post_init__(self):
        grid = tuple(float(g) for g in self.lambda_grid)
        object.__setattr__(self, "lambda_grid", grid)
        check_domains(self)
        if sorted(grid) != list(grid) or len(set(grid)) != len(grid):
            raise ValueError("lambda_grid: must be strictly increasing")
        if not grid or grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("lambda_grid: must start at 0 and end at 1")


@dataclass(frozen=True)
class CandidateEval:
    branch_id: int
    coeff: float
    perf: PerfValue
    chosen: bool


@dataclass(frozen=True)
class MergeRecord:
    """One fork/merge round. Its times are seconds of wall clock: ``train_s``
    for the `train_branches` call, ``search_s`` for the merge search and the
    target-only scoring, and ``wall_s`` for the whole round; the runner
    writes them to timings.csv."""

    round_index: int
    candidates: tuple[CandidateEval, ...]
    merge_coeffs: Mapping[int, float]
    target_only_perf: PerfValue
    chosen_perf: PerfValue
    surviving_branch_ids: tuple[int, ...]
    train_s: float
    search_s: float
    wall_s: float

    def __post_init__(self):
        coeffs = dict(self.merge_coeffs)
        if any(c < 0 for c in coeffs.values()):
            raise ValueError(f"negative merge coefficient: {coeffs}")
        if abs(sum(coeffs.values()) - 1.0) > 1e-9:
            raise ValueError(f"merge coefficients must sum to 1: {coeffs}")
        object.__setattr__(self, "merge_coeffs", coeffs)


def make_omega_branches(n_aux: int) -> list[TaskWeighting]:
    """Target-only branch plus one pairwise branch per auxiliary task."""
    if n_aux < 1:
        raise ValueError("need at least one auxiliary task")
    branches = [TaskWeighting({0: 1.0})]
    for k in range(1, n_aux + 1):
        branches.append(TaskWeighting({0: 1.0, k: 1.0}))
    return branches


def _is_target_only(weighting: TaskWeighting) -> bool:
    return weighting.active_tasks == (weighting.target_id,)


def merge_coeffs_from_task_weights(aux_weights: Sequence[float]) -> list[float]:
    """Map per-task weights to branch-combination coefficients.

    The direct weighted update with aux weights (λ_1..λ_K) equals the branch
    combination [1 - Σλ, λ_1, ..., λ_K] over [target-only, pair-1, ...,
    pair-K] branches, provided Σλ ≤ 1.
    """
    total = float(sum(aux_weights))
    if total > 1.0 + 1e-12:
        raise ValueError(f"aux weights sum to {total} > 1; combination leaves the simplex")
    if any(w < 0 for w in aux_weights):
        raise ValueError("aux weights must be nonnegative")
    return [1.0 - total, *[float(w) for w in aux_weights]]


def draw_batch(
    split: DataSplit, root: RngStream, task_id: int, steps: range, batch_size: int
) -> np.ndarray:
    """Row indices into ``split`` of the mini-batches keyed by (stream, task,
    absolute step), not by branch: a (len(steps), batch_size) array whose
    row i is what a fresh ``root.child("batch", task_id, steps[i])``
    generator's ``integers(0, len(split), size=batch_size)`` draws.

    Every branch therefore sees the same draw for the same task at the same
    step — the property that makes one-step merges exactly equal direct
    weighted updates, and makes a branch's results independent of the other
    branches it trains beside and of whether its run was resumed. The
    rows come from one `RngStream.child_integers` call, which re-keys a
    single numpy ``Philox`` bit generator to each step's stream and builds a
    generator only to redraw a row that Lemire's method would reject.
    """
    return root.child_integers(_BatchLabels(task_id, steps), len(split), batch_size)


@dataclass(frozen=True)
class _BatchLabels(Sequence):
    """The stream labels ("batch", task_id, step) of ``steps``, made one at a
    time: a list of them would make a draw's peak memory grow with its steps."""

    task_id: int
    steps: range

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int) -> tuple:
        return ("batch", self.task_id, self.steps[i])


_CHUNK = 64
"""Steps whose batches `train_branches` draws in one `draw_batch` call per
task: enough to spread a call's fixed cost, few enough that the held
batches stay small; at most `vectors._PAD`, so every call allocates the same."""


def train_branch(
    start: np.ndarray,
    branch: TaskWeighting,
    steps: range,
    total_steps: int,
    family: TaskFamily,
    model_spec: ModelSpec,
    opt: OptConfig,
    root: RngStream,
) -> np.ndarray:
    """`train_branches` of one branch. perfbench's tracer spans it by name;
    nothing calls it, so the ``opt.step_count`` the tracer would read from
    it (an attribute `OptConfig` lacks) is never read."""
    return train_branches(start, [branch], steps, total_steps, family, model_spec,
                          opt, root)[0]


def train_branches(
    start: np.ndarray,
    branches: Sequence[TaskWeighting],
    steps: range,
    total_steps: int,
    family: TaskFamily,
    model_spec: ModelSpec,
    opt: OptConfig,
    root: RngStream,
    weigh: Callable[[dict[int, np.ndarray]], Mapping[int, float]] | None = None,
) -> list[np.ndarray]:
    """Train every branch from `start` over the absolute `steps` of a
    `total_steps`-step schedule, in lockstep; returns the branches'
    parameters in branch order (`start` for each on an empty range).

    All branches start from the same parameters with zero momentum, with
    ``opt``'s batch size. Every used task's train split is checked once,
    before the first draw, and its batches are drawn `_CHUNK` steps at a
    time, one `draw_batch` call per task and chunk. Each step runs one
    stacked forward and backward over every (branch, task) pair with a
    nonzero weight, mixes each branch's gradients, and steps all branches
    at once, in place, with the arithmetic of `weighted_gradient` and
    `sgd_step`; each result is therefore bit-identical to training that
    branch alone. The first non-finite loss or parameter raises
    BranchDivergedError naming the earliest step and, within it, the first
    branch in order, by its position in ``branches``.

    A ``weigh`` hook replaces each branch's weights at every step with
    ``weigh({task id: gradient})``; a task weighted 0 drops out of that mix.
    """
    if steps.step != 1 or not 0 <= steps.start <= steps.stop <= total_steps:
        raise ValueError(f"{steps} is not a run of a {total_steps}-step schedule")
    if not steps:
        return [start for _ in branches]
    kernel = model_spec.kernel
    batch_size, momentum = opt.batch_size, opt.momentum
    params = np.tile(np.asarray(start, dtype=np.float64), (len(branches), 1))
    tasks = [w.active_tasks for w in branches]
    splits = {t: family.train(t) for active in tasks for t in active}
    stack = kernel.pair_pass(
        params, [(i, t) for i, active in enumerate(tasks) for t in active], splits,
        batch_size)
    momenta = np.zeros_like(params)
    # per branch: its (task, pair position) in task order, and its mix
    uses = [[(t, stack.index[i, t]) for t in active] for i, active in enumerate(tasks)]
    flat = params.reshape(-1)
    mixed, scratch = np.empty_like(params), np.empty_like(params)
    mixes = [(out, [w.weights[t] for t in active],
              [stack.grads[k] for _, k in use], scratch[0])
             for out, w, active, use in zip(mixed, branches, tasks, uses)]
    for step, rows in _batches(splits, root, steps, batch_size):
        losses = stack(rows)
        if weigh is None:
            for mix in mixes:
                linear_combination_into(*mix)
        else:
            for out, use in zip(mixed, uses):
                weights = weigh({t: stack.grads[k] for t, k in use})
                live = [(weights[t], stack.grads[k]) for t, k in use if weights[t] > 0]
                linear_combination_into(out, *zip(*live), scratch[0])
        sgd_step_into(params, momenta, mixed, momentum,
                      opt.learning_rate(step, total_steps), scratch)
        # a dot product is finite only if every entry is; one that overflows
        # from finite entries, which is no fault, sends the exact check
        # through finding nothing
        with np.errstate(over="ignore"):
            finite = isfinite(losses.dot(losses) + flat.dot(flat))
        if not finite:
            _raise_first_divergence(uses, losses, params, step)
    return list(params)


def _batches(splits: Mapping[int, DataSplit], root: RngStream, steps: range,
             batch_size: int):
    """Each of ``steps`` with its {task: row indices}, drawn `_CHUNK` steps
    at a time into one buffer per task."""
    drawn = {t: np.empty((_CHUNK, batch_size), dtype=np.int64) for t in sorted(splits)}
    for first in range(steps.start, steps.stop, _CHUNK):
        chunk = range(first, min(first + _CHUNK, steps.stop))
        for t, rows in drawn.items():
            rows[: len(chunk)] = draw_batch(splits[t], root, t, chunk, batch_size)
        for i, step in enumerate(chunk):
            yield step, {t: rows[i] for t, rows in drawn.items()}


def _raise_first_divergence(uses, losses, params, step: int) -> None:
    """Raise BranchDivergedError for the first branch, in order, with a
    non-finite loss or, after its step, non-finite parameters, if any."""
    for position, (use, branch_params) in enumerate(zip(uses, params)):
        try:
            for t, k in use:
                nn.check_loss(losses[k], t)
            if not np.isfinite(branch_params).all():
                raise NonFiniteError("parameters diverged to non-finite values")
        except NonFiniteError as exc:
            raise BranchDivergedError(position, step, exc) from exc


@dataclass(frozen=True)
class SearchOutcome:
    """Winning combination of one merge search, with its audit trail."""

    coeffs: Mapping[int, float]
    perf: PerfValue
    params: np.ndarray = field(repr=False)
    evaluations: tuple[CandidateEval, ...]


_WORKERS = len(os.sched_getaffinity(0)) - 1 if hasattr(os, "sched_getaffinity") else 0
"""Pool threads that score beside the calling thread in `across_cores`: one
per core the process may run on, less the caller's."""

_MIN_ROWS = 5000
"""Fewest rows per item for `across_cores` to use its pool. Below it the
threads spend longer passing the interpreter lock than they save: on one
2-core machine, with one model size (2->16->4 tanh), a 21-point grid search
took 1.3x as long with one pool thread as without on 3000 validation rows,
1.05x on 4000, 0.73x on 5000 and 0.53x on 20 000."""

_POOL = ThreadPoolExecutor(max_workers=max(_WORKERS, 1), thread_name_prefix="auxlab-score")
"""`across_cores`' threads; the executor starts each only when first needed."""

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def across_cores(score: Callable[[_Item], _Result], items: Sequence[_Item],
                 rows: int) -> list[_Result]:
    """``[score(item) for item in items]``, computed on every usable core
    when each call scores ``rows`` rows, at least `_MIN_ROWS`.

    The calling thread and up to `_WORKERS` pool threads each take the next
    unscored item until none is left; one usable core, or fewer rows, means
    no pool thread and a plain loop. Results come back in item order. If
    calls raise, the exception of the first such item in order is raised:
    the one the plain loop raises. ``score`` must be safe to run on any
    thread; `nn.evaluate` is, since each thread gets its own kernel.
    """
    helpers = min(_WORKERS, len(items) - 1) if rows >= _MIN_ROWS else 0
    if helpers < 1:
        return [score(item) for item in items]
    results: list = [None] * len(items)
    failures: dict[int, Exception] = {}
    todo, lock = iter(range(len(items))), threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = score(items[i])
            except Exception as exc:  # raised below, in item order
                failures[i] = exc

    shares = [_POOL.submit(work) for _ in range(helpers)]
    work()
    for share in shares:
        share.result()
    if failures:
        raise failures[min(failures)]
    return results


class _Scored(NamedTuple):
    """One merge candidate: the coefficient it is logged under, its target
    validation performance and its parameters."""

    coeff: float
    perf: PerfValue
    params: np.ndarray


def _score_all(combos: Sequence[tuple[Sequence[float], Sequence[np.ndarray]]],
               val: DataSplit, task_id: int, model_spec: ModelSpec
               ) -> list[tuple[PerfValue, np.ndarray]]:
    """Each (weights, vectors) merge candidate's performance on ``val`` and
    its parameters, ``vectors`` combined by ``weights``; scored across
    cores, returned in order.

    Every search logs these as `_Scored` in evaluation order and picks its
    winner with ``max`` on the performance, which returns the first of equal
    maxima: ties keep the candidate evaluated first.
    """
    def combine_and_evaluate(combo):
        params = linear_combination(*combo)
        return nn.evaluate(model_spec, params, val, task_id), params

    return across_cores(combine_and_evaluate, combos, len(val))


def _pair_scores(lams: Sequence[float], theta0: np.ndarray, theta1: np.ndarray,
                 val: DataSplit, task_id: int, model_spec: ModelSpec) -> list[_Scored]:
    """The (1-λ)·θ0 + λ·θ1 candidates of ``lams``, scored by `_score_all`."""
    scored = _score_all([([1.0 - lam, lam], [theta0, theta1]) for lam in lams],
                        val, task_id, model_spec)
    return [_Scored(float(lam), *s) for lam, s in zip(lams, scored)]


def _pair_outcome(scored: Sequence[_Scored], branch_ids: tuple[int, int]) -> SearchOutcome:
    """The first best of the (1-λ)·θ0 + λ·θ1 candidates, each logged under
    λ on the second branch."""
    best = max(scored, key=lambda e: e.perf.value)
    id0, id1 = branch_ids
    return SearchOutcome(
        coeffs={id0: 1.0 - best.coeff, id1: best.coeff},
        perf=best.perf,
        params=best.params,
        evaluations=tuple(CandidateEval(id1, e.coeff, e.perf, e.coeff == best.coeff)
                          for e in scored),
    )


def search_lambda_grid(
    theta0: np.ndarray,
    theta1: np.ndarray,
    grid: Sequence[float],
    val: DataSplit,
    task_id: int,
    model_spec: ModelSpec,
    branch_ids: tuple[int, int] = (0, 1),
) -> SearchOutcome:
    """Evaluate (1-λ)·θ0 + λ·θ1 at every grid point; ties prefer smaller λ."""
    if not grid:
        raise ValueError("empty lambda grid")
    return _pair_outcome(_pair_scores(grid, theta0, theta1, val, task_id, model_spec),
                         branch_ids)


def search_lambda_binary(
    theta0: np.ndarray,
    theta1: np.ndarray,
    iters: int,
    val: DataSplit,
    task_id: int,
    model_spec: ModelSpec,
    branch_ids: tuple[int, int] = (0, 1),
) -> SearchOutcome:
    """Interval halving on λ ∈ [0,1]: evaluate both half midpoints, keep the
    better half (ties keep the lower half), return the first best λ seen.

    Costs exactly 2·iters evaluations; unlike the grid, λ=0 itself is never
    evaluated, so this strategy carries no exact non-regression guarantee.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    lo, hi = 0.0, 1.0
    scored: list[_Scored] = []
    for _ in range(iters):
        quarter = (hi - lo) / 4.0
        left, right = _pair_scores((lo + quarter, hi - quarter), theta0, theta1, val,
                                   task_id, model_spec)
        scored += [left, right]
        if right.perf.value > left.perf.value:
            lo = (lo + hi) / 2.0
        else:
            hi = (lo + hi) / 2.0
    return _pair_outcome(scored, branch_ids)


def greedy_search_lambda(
    candidates: Sequence[tuple[int, np.ndarray]],
    grid_per_coord: Sequence[float],
    val: DataSplit,
    task_id: int,
    model_spec: ModelSpec,
) -> SearchOutcome:
    """Coordinate-wise greedy search over the branch simplex.

    Candidates are ranked by standalone validation performance (B
    evaluations; ties keep the given order), the top one starts with raw
    coefficient 1, and each further candidate b gets a coefficient
    grid-searched in [0, U] where U is the mean of the coefficients fixed so
    far; the running combination is L1-normalized before every evaluation.
    Total evaluations are at most (B-1)·|grid| + B. Setting a trial
    coefficient to 0 reproduces the previous stage's winner exactly, so the
    best seen never decreases; that trial is logged with the winner's score
    and parameters instead of being evaluated again. The standalone scores,
    and then each stage's trials, are scored across cores.
    """
    if not candidates:
        raise ValueError("no candidate branches to merge")
    perfs = across_cores(lambda params: nn.evaluate(model_spec, params, val, task_id),
                         [params for _, params in candidates], len(val))
    ranked = sorted(((branch_id, params, perf)
                     for (branch_id, params), perf in zip(candidates, perfs)),
                    key=lambda c: -c[2].value)
    evaluations = [CandidateEval(branch_id, 1.0, perf, rank == 0)
                   for rank, (branch_id, _, perf) in enumerate(ranked)]

    raw = [1.0]
    chosen = _Scored(1.0, ranked[0][2], ranked[0][1])
    for b in range(1, len(ranked)):
        upper = sum(raw) / len(raw)
        vectors = [p for _, p, _ in ranked[: b + 1]]
        trials = [g * upper for g in grid_per_coord]
        scored = iter(_score_all(
            [([c / (sum(raw) + v) for c in raw + [v]], vectors) for v in trials if v != 0.0],
            val, task_id, model_spec))
        stage = [_Scored(v, *(next(scored) if v != 0.0 else (chosen.perf, chosen.params)))
                 for v in trials]
        chosen = max(stage, key=lambda e: e.perf.value)
        evaluations += [CandidateEval(ranked[b][0], e.coeff, e.perf, e.coeff == chosen.coeff)
                        for e in stage]
        raw.append(chosen.coeff)

    total = sum(raw)
    return SearchOutcome(
        coeffs={ranked[i][0]: raw[i] / total for i in range(len(ranked))},
        perf=chosen.perf,
        params=chosen.params,
        evaluations=tuple(evaluations),
    )


def _subsampled_val(family: TaskFamily, schedule: MergeSchedule, root: RngStream,
                    round_index: int) -> DataSplit:
    val = family.val(family.target_id)
    k = schedule.val_subsample
    if k is None or k >= len(val):
        return val
    gen = root.child("valsub", round_index).generator()
    idx = gen.choice(len(val), size=k, replace=False)
    return DataSplit(val.inputs[idx], val.targets[idx], val.task_id)


def check_branches(branches: Sequence[TaskWeighting], schedule: MergeSchedule) -> None:
    """Raise ValueError unless exactly one branch is target-only and pruning
    after the first merge keeps fewer branches than there are."""
    n_target_only = sum(map(_is_target_only, branches))
    if n_target_only != 1:
        raise ValueError(f"need exactly one target-only branch, found {n_target_only}")
    if (schedule.prune_to or 0) >= len(branches):
        raise ValueError("prune_to must be < number of branches")


def run_forkmerge(
    family: TaskFamily,
    model_spec: ModelSpec,
    schedule: MergeSchedule,
    branches: Sequence[TaskWeighting],
    opt_cfg: OptConfig,
    seed: int,
) -> tuple[np.ndarray, tuple[MergeRecord, ...]]:
    """Alternate Δt-step branch training with validation-guided merging;
    returns the final merged parameters and the merge history.

    Branch i trains under ``branches[i]`` and keeps id i throughout.
    Branches always start each round from the shared merged parameters with
    zeroed momentum; the learning-rate schedule position is global. A round
    of two branches runs the configured search; a round of any other number
    runs the greedy coordinate search whatever the setting. When pruning is
    configured, after the first merge only the K' strongest branches (by
    merge coefficient) survive, and the target-only branch always survives.
    Only validation data is scored here; the caller scores the result.
    """
    check_branches(branches, schedule)
    target = next(i for i, w in enumerate(branches) if _is_target_only(w))

    root = RngStream(seed)
    params = nn.init_params(model_spec, root.child("init"))

    history: list[MergeRecord] = []
    ids = list(range(len(branches)))  # the surviving branches, in order
    total, interval = schedule.total_steps, schedule.merge_interval
    for round_index, first in enumerate(range(0, total, interval)):
        t_start = time.perf_counter()
        steps = range(first, min(first + interval, total))
        try:
            trained = dict(zip(ids, train_branches(
                params, [branches[i] for i in ids], steps, total, family, model_spec,
                opt_cfg, root)))
        except BranchDivergedError as exc:
            raise BranchDivergedError(
                ids[exc.branch_id], exc.step, exc.__cause__, round_index
            ) from exc.__cause__
        t_trained = time.perf_counter()

        val = _subsampled_val(family, schedule, root, round_index)
        if len(ids) == 2 and schedule.search_strategy != "greedy":
            other = next(i for i in ids if i != target)
            search, setting = ((search_lambda_binary, schedule.binary_iters)
                               if schedule.search_strategy == "binary"
                               else (search_lambda_grid, schedule.lambda_grid))
            outcome = search(trained[target], trained[other], setting, val,
                             family.target_id, model_spec, branch_ids=(target, other))
            target_only_key = (other, 0.0)
        else:
            outcome = greedy_search_lambda(list(trained.items()), schedule.lambda_grid,
                                           val, family.target_id, model_spec)
            target_only_key = (target, 1.0)
        target_only_perf = next((e.perf for e in outcome.evaluations
                                 if (e.branch_id, e.coeff) == target_only_key), None)
        if target_only_perf is None:
            # the binary search never evaluates λ=0; scored for the record only
            target_only_perf = nn.evaluate(model_spec, trained[target], val,
                                           family.target_id)
        t_searched = time.perf_counter()

        params = outcome.params
        coeffs = {i: outcome.coeffs.get(i, 0.0) for i in ids}

        surviving = ids
        if round_index == 0 and schedule.prune_to is not None:
            keep = schedule.prune_to
            by_coeff = sorted(ids, key=lambda i: -coeffs[i])  # ties keep id order
            surviving = [i for i in by_coeff[:keep] if coeffs[i] > 0.0]
            if target not in surviving:
                surviving = surviving[: keep - 1] + [target]
            surviving.sort()

        history.append(
            MergeRecord(
                round_index=round_index,
                candidates=outcome.evaluations,
                merge_coeffs=coeffs,
                target_only_perf=target_only_perf,
                chosen_perf=outcome.perf,
                surviving_branch_ids=tuple(surviving),
                train_s=t_trained - t_start,
                search_s=t_searched - t_trained,
                wall_s=time.perf_counter() - t_start,
            )
        )
        ids = surviving

    return params, tuple(history)
