"""Fork/merge training: clone parameters into branches trained under
different task weightings, then recombine them by searching for the convex
combination that maximizes target validation performance.

The search never leaves the convex hull of the branch parameter vectors, and
the first best candidate it evaluates wins. The grid and greedy searches
always evaluate the pure target-only combination, so their merges never
score below the target-only branch on validation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import ceil, isfinite
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import nn
from .nn import Batch, ModelSpec, PerfValue
from .optim import OptConfig, OptState, TaskWeighting, sgd_step_into
from .tasks import DataSplit, TaskFamily
from .vectors import NonFiniteError, RngStream, linear_combination, linear_combination_into

__all__ = [
    "BranchSpec",
    "MergeSchedule",
    "CandidateEval",
    "MergeRecord",
    "ForkMergeResult",
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
    "run_forkmerge",
    "write_merge_history",
]

DEFAULT_LAMBDA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


class BranchDivergedError(NonFiniteError):
    """Branch ``branch_id`` reached non-finite values at absolute step
    ``step``; ``round_index`` is its fork/merge round, or None outside one."""

    def __init__(self, branch_id: int, step: int, cause: Exception,
                 round_index: int | None = None):
        where = "" if round_index is None else f" (round {round_index})"
        super().__init__(f"branch {branch_id} diverged at step {step}{where}: {cause}")
        self.branch_id = branch_id
        self.step = step
        self.round_index = round_index


@dataclass(frozen=True)
class BranchSpec:
    weighting: TaskWeighting
    branch_id: int

    def is_target_only(self) -> bool:
        return self.weighting.active_tasks == (self.weighting.target_id,)


@dataclass(frozen=True)
class MergeSchedule:
    """Timing and search policy for the fork/merge loop."""

    total_steps: int
    interval: int
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    search_strategy: str = "grid"
    prune_after_first_merge: int | None = None
    binary_iters: int = 5
    val_subsample: int | None = None

    def __post_init__(self):
        if self.total_steps < 1 or self.interval < 1:
            raise ValueError("total_steps and interval must be positive")
        grid = tuple(float(g) for g in self.lambda_grid)
        if sorted(grid) != list(grid) or len(set(grid)) != len(grid):
            raise ValueError("lambda_grid must be strictly increasing")
        if not grid or grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("lambda_grid must start at 0 and end at 1")
        object.__setattr__(self, "lambda_grid", grid)
        if self.search_strategy not in ("grid", "binary", "greedy"):
            raise ValueError(f"unknown search strategy {self.search_strategy!r}")
        if self.prune_after_first_merge is not None and self.prune_after_first_merge < 1:
            raise ValueError("prune_after_first_merge must be >= 1")
        if self.binary_iters < 1:
            raise ValueError("binary_iters must be >= 1")
        if self.val_subsample is not None and self.val_subsample < 1:
            raise ValueError("val_subsample must be >= 1")

    @property
    def n_rounds(self) -> int:
        return ceil(self.total_steps / self.interval)


@dataclass(frozen=True)
class CandidateEval:
    branch_id: int
    coeff: float
    perf: PerfValue
    chosen: bool


@dataclass(frozen=True)
class MergeRecord:
    round_index: int
    candidates: tuple[CandidateEval, ...]
    merge_coeffs: Mapping[int, float]
    target_only_perf: PerfValue
    chosen_perf: PerfValue
    surviving_branch_ids: tuple[int, ...]
    psearch_evals: int
    wall_s: float

    def __post_init__(self):
        coeffs = dict(self.merge_coeffs)
        if any(c < 0 for c in coeffs.values()):
            raise ValueError(f"negative merge coefficient: {coeffs}")
        if abs(sum(coeffs.values()) - 1.0) > 1e-9:
            raise ValueError(f"merge coefficients must sum to 1: {coeffs}")
        object.__setattr__(self, "merge_coeffs", coeffs)


@dataclass(frozen=True)
class ForkMergeResult:
    final_params: np.ndarray = field(repr=False)
    merge_history: tuple[MergeRecord, ...]
    final_perf: PerfValue

    @property
    def total_psearch_evals(self) -> int:
        return sum(r.psearch_evals for r in self.merge_history)


def make_omega_branches(n_aux: int) -> list[BranchSpec]:
    """Target-only branch plus one pairwise branch per auxiliary task."""
    if n_aux < 1:
        raise ValueError("need at least one auxiliary task")
    branches = [BranchSpec(TaskWeighting({0: 1.0}), 0)]
    for k in range(1, n_aux + 1):
        branches.append(BranchSpec(TaskWeighting({0: 1.0, k: 1.0}), k))
    return branches


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
    split: DataSplit, root: RngStream, task_id: int, step: int, batch_size: int
) -> Batch:
    """Mini-batch keyed by (stream, task, absolute step), not by branch.

    Every branch therefore sees the same draw for the same task at the same
    step — the property that makes one-step merges exactly equal direct
    weighted updates, and makes results independent of worker count. The
    draw re-keys this thread's reused generator rather than building one;
    the indices are those of a fresh ``generator()`` on the same stream.
    """
    gen = root.child("batch", task_id, step).reused_generator()
    idx = gen.integers(0, len(split), size=batch_size)
    return Batch(split.inputs[idx], split.targets[idx], task_id)


def train_branch(
    start: np.ndarray,
    branch: BranchSpec,
    steps: int,
    family: TaskFamily,
    model_spec: ModelSpec,
    opt: OptState,
    root: RngStream,
    batch_size: int,
) -> np.ndarray:
    """`train_branches` of one branch; unused here, but perfbench's tracer
    spans it by name."""
    return train_branches(
        start, [branch], steps, family, model_spec, opt, root, batch_size
    )[0]


def train_branches(
    start: np.ndarray,
    branches: Sequence[BranchSpec],
    steps: int,
    family: TaskFamily,
    model_spec: ModelSpec,
    opt: OptState,
    root: RngStream,
    batch_size: int,
    weigh: Callable[[dict[int, np.ndarray]], Mapping[int, float]] | None = None,
) -> list[np.ndarray]:
    """Train every branch for `steps` weighted-SGD steps from `start`, in
    lockstep; returns the branches' parameters in branch order.

    All branches start from the same parameters and optimizer state. Each
    step draws every used task's batch once, runs one stacked forward and
    backward over every (branch, task) pair with a nonzero weight, mixes each
    branch's gradients, and steps all branches at once, in place, with the
    arithmetic of `weighted_gradient` and `sgd_step`; each result is
    therefore bit-identical to training that branch alone. The first
    non-finite loss or parameter raises BranchDivergedError naming the
    earliest step and, within it, the first branch in order.

    A ``weigh`` hook replaces each branch's weights at every step with
    ``weigh({task id: gradient})``; a task weighted 0 drops out of that mix.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    kernel = model_spec.kernel
    params = np.tile(np.asarray(start, dtype=np.float64), (len(branches), 1))
    tasks = [b.weighting.active_tasks for b in branches]
    stack = kernel.pair_pass(
        params, [(i, t) for i, active in enumerate(tasks) for t in active], batch_size)
    splits = {t: family.train(t) for active in tasks for t in active}
    momenta = np.tile(np.asarray(opt.momentum_buffer, dtype=np.float64), (len(branches), 1))
    # per branch: its (task, pair position) in task order, and its mix
    uses = [[(t, stack.index[i, t]) for t in active] for i, active in enumerate(tasks)]
    flat = params.reshape(-1)
    mixed, scratch = np.empty_like(params), np.empty_like(params)
    mixes = [(out, [b.weighting.weights[t] for t in active],
              [stack.grads[k] for _, k in use], scratch[0])
             for out, b, active, use in zip(mixed, branches, tasks, uses)]
    for step in range(opt.step_count, opt.step_count + steps):
        losses = stack({t: draw_batch(splits[t], root, t, step, batch_size)
                        for t in sorted(splits)})
        if weigh is None:
            for mix in mixes:
                linear_combination_into(*mix)
        else:
            for out, use in zip(mixed, uses):
                weights = weigh({t: stack.grads[k] for t, k in use})
                live = [(weights[t], stack.grads[k]) for t, k in use if weights[t] > 0]
                linear_combination_into(out, *zip(*live), scratch[0])
        sgd_step_into(params, momenta, mixed, opt.momentum_coeff, opt.learning_rate(step),
                      scratch)
        # a dot product is finite only if every entry is; one that overflows
        # from finite entries sends the exact check through finding nothing
        if not isfinite(losses.dot(losses) + flat.dot(flat)):
            _raise_first_divergence(branches, uses, losses, params, step)
    return list(params)


def _raise_first_divergence(branches, uses, losses, params, step: int) -> None:
    """Raise BranchDivergedError for the first branch, in order, with a
    non-finite loss or, after its step, non-finite parameters, if any."""
    for branch, use, branch_params in zip(branches, uses, params):
        try:
            for t, k in use:
                nn.check_loss(losses[k], t)
            if not np.isfinite(branch_params).all():
                raise NonFiniteError("parameters diverged to non-finite values")
        except NonFiniteError as exc:
            raise BranchDivergedError(branch.branch_id, step, exc) from exc


@dataclass(frozen=True)
class SearchOutcome:
    """Winning combination of one merge search, with its audit trail."""

    coeffs: Mapping[int, float]
    perf: PerfValue
    params: np.ndarray = field(repr=False)
    evaluations: tuple[CandidateEval, ...]

    @property
    def n_evals(self) -> int:
        """Validation evaluations the search made: one per candidate."""
        return len(self.evaluations)


class _Scored(NamedTuple):
    """One merge candidate: the coefficient it is logged under, its target
    validation performance and its parameters."""

    coeff: float
    perf: PerfValue
    params: np.ndarray


def _score(coeff: float, weights: Sequence[float], vectors: Sequence[np.ndarray],
           val: DataSplit, task_id: int, model_spec: ModelSpec) -> _Scored:
    """Combine ``vectors`` by ``weights`` and score the result on ``val``.

    Every search picks its winner from these with ``max`` on the
    performance, which returns the first of equal maxima: ties keep the
    candidate evaluated first.
    """
    params = linear_combination(weights, vectors)
    return _Scored(coeff, nn.evaluate(model_spec, params, val, task_id), params)


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
    return _pair_outcome(
        [_score(float(lam), [1.0 - lam, lam], [theta0, theta1], val, task_id, model_spec)
         for lam in grid],
        branch_ids,
    )


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
        left, right = [_score(lam, [1.0 - lam, lam], [theta0, theta1], val, task_id,
                              model_spec)
                       for lam in (lo + quarter, hi - quarter)]
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
    and parameters instead of being evaluated again.
    """
    if not candidates:
        raise ValueError("no candidate branches to merge")
    ranked = sorted(
        ((branch_id, params, nn.evaluate(model_spec, params, val, task_id))
         for branch_id, params in candidates),
        key=lambda c: -c[2].value,
    )
    evaluations = [CandidateEval(branch_id, 1.0, perf, rank == 0)
                   for rank, (branch_id, _, perf) in enumerate(ranked)]

    raw = [1.0]
    chosen = _Scored(1.0, ranked[0][2], ranked[0][1])
    for b in range(1, len(ranked)):
        upper = sum(raw) / len(raw)
        vectors = [p for _, p, _ in ranked[: b + 1]]
        stage = []
        for g in grid_per_coord:
            v = g * upper
            if v == 0.0:
                stage.append(_Scored(v, chosen.perf, chosen.params))
                continue
            total = sum(raw) + v
            stage.append(_score(v, [c / total for c in raw + [v]], vectors, val, task_id,
                                model_spec))
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


def check_branches(branches: Sequence[BranchSpec], schedule: MergeSchedule) -> None:
    """Raise ValueError unless the branch ids are unique, exactly one branch
    is target-only, and pruning after the first merge keeps fewer branches
    than there are."""
    if len({b.branch_id for b in branches}) != len(branches):
        raise ValueError("branch ids must be unique")
    n_target_only = sum(b.is_target_only() for b in branches)
    if n_target_only != 1:
        raise ValueError(f"need exactly one target-only branch, found {n_target_only}")
    if (schedule.prune_after_first_merge or 0) >= len(branches):
        raise ValueError("prune_after_first_merge must be < number of branches")


def run_forkmerge(
    family: TaskFamily,
    model_spec: ModelSpec,
    schedule: MergeSchedule,
    branch_specs: Sequence[BranchSpec],
    opt_cfg: OptConfig,
    seed: int,
) -> ForkMergeResult:
    """Alternate Δt-step branch training with validation-guided merging.

    Branches always start each round from the shared merged parameters with
    zeroed momentum; the learning-rate schedule position is global. Two
    branches route to the configured grid/binary search, any other number to
    the greedy coordinate search. When pruning is configured, after the first
    merge only the K' strongest branches (by merge coefficient) survive, and
    the target-only branch always survives.
    """
    branches = list(branch_specs)
    check_branches(branches, schedule)

    root = RngStream(seed)
    params = nn.init_params(model_spec, root.child("init"))
    n = len(params)

    history: list[MergeRecord] = []
    done = 0
    for round_index in range(schedule.n_rounds):
        t_start = time.perf_counter()
        steps = min(schedule.interval, schedule.total_steps - done)
        opt = opt_cfg.state_at(n, schedule.total_steps, step_count=done)

        try:
            trained = train_branches(
                params, branches, steps, family, model_spec, opt, root,
                opt_cfg.batch_size,
            )
        except BranchDivergedError as exc:
            raise BranchDivergedError(
                exc.branch_id, exc.step, exc.__cause__, round_index
            ) from exc.__cause__

        val = _subsampled_val(family, schedule, root, round_index)
        tgt_branch = next(b for b in branches if b.is_target_only())
        tgt_pos = branches.index(tgt_branch)
        if len(branches) == 2:
            other_pos = 1 - tgt_pos
            pair_ids = (tgt_branch.branch_id, branches[other_pos].branch_id)
            search, setting = ((search_lambda_binary, schedule.binary_iters)
                               if schedule.search_strategy == "binary"
                               else (search_lambda_grid, schedule.lambda_grid))
            outcome = search(trained[tgt_pos], trained[other_pos], setting, val,
                             family.target_id, model_spec, branch_ids=pair_ids)
            target_only_key = (pair_ids[1], 0.0)
        else:
            outcome = greedy_search_lambda(
                [(b.branch_id, p) for b, p in zip(branches, trained)],
                schedule.lambda_grid, val, family.target_id, model_spec,
            )
            target_only_key = (tgt_branch.branch_id, 1.0)
        target_only_perf = next((e.perf for e in outcome.evaluations
                                 if (e.branch_id, e.coeff) == target_only_key), None)
        if target_only_perf is None:
            # the binary search never evaluates λ=0; scored for the record only
            target_only_perf = nn.evaluate(model_spec, trained[tgt_pos], val,
                                           family.target_id)

        params = outcome.params
        done += steps

        surviving = branches
        if round_index == 0 and schedule.prune_after_first_merge is not None:
            keep = schedule.prune_after_first_merge
            by_coeff = sorted(
                branches,
                key=lambda b: (-outcome.coeffs.get(b.branch_id, 0.0),
                               branches.index(b)),
            )
            surviving = [b for b in by_coeff[:keep]
                         if outcome.coeffs.get(b.branch_id, 0.0) > 0.0]
            if tgt_branch not in surviving:
                surviving = surviving[: keep - 1] + [tgt_branch]
            surviving = [b for b in branches if b in surviving]  # stable order

        full_coeffs = {b.branch_id: outcome.coeffs.get(b.branch_id, 0.0)
                       for b in branches}
        history.append(
            MergeRecord(
                round_index=round_index,
                candidates=outcome.evaluations,
                merge_coeffs=full_coeffs,
                target_only_perf=target_only_perf,
                chosen_perf=outcome.perf,
                surviving_branch_ids=tuple(b.branch_id for b in surviving),
                psearch_evals=outcome.n_evals,
                wall_s=time.perf_counter() - t_start,
            )
        )
        branches = surviving

    final_perf = nn.evaluate(
        model_spec, params, family.test(family.target_id), family.target_id
    )
    return ForkMergeResult(params, tuple(history), final_perf)


def write_merge_history(history: Sequence[MergeRecord], csv_path, json_path) -> None:
    """One CSV row per evaluated candidate, plus a JSON coefficient trajectory."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["round,branch_id,candidate_lambda_or_coeff,val_perf,chosen"]
    for record in history:
        for cand in record.candidates:
            lines.append(
                f"{record.round_index},{cand.branch_id},{cand.coeff!r},"
                f"{cand.perf.value!r},{int(cand.chosen)}"
            )
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    payload = {
        "rounds": [
            {
                "round": r.round_index,
                "merge_coeffs": {str(k): v for k, v in r.merge_coeffs.items()},
                "target_only_perf": r.target_only_perf.value,
                "chosen_perf": r.chosen_perf.value,
                "surviving_branch_ids": list(r.surviving_branch_ids),
                "psearch_evals": r.psearch_evals,
                "wall_s": r.wall_s,
            }
            for r in history
        ]
    }
    Path(json_path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
