"""Reference training procedures: single-task, equal weighting, fixed-weight
grid search, per-step gradient-cosine weighting, and pretrain-then-finetune.

All of them are continuous trainers (no forking) run by the fork/merge
loop's lockstep `train_branches`, one branch per run, so degenerate settings
(single target-only branch, zero momentum) coincide bit-for-bit with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nn
from .forkmerge import BranchSpec, train_branches
from .metrics import shared_gradient_block, gcs
from .nn import ModelSpec, PerfValue, SharedHeadModel
from .optim import OptConfig, TaskWeighting
from .tasks import TaskFamily
from .vectors import RngStream, dot

__all__ = [
    "FixedLambdaResult",
    "GcsResult",
    "instantaneous_gcs_weights",
    "run_single_task",
    "run_stl",
    "run_ew",
    "run_fixed_lambda",
    "run_gcs_weighting",
    "run_post_train",
]


def _train(
    family: TaskFamily,
    model_spec: ModelSpec,
    weightings: Sequence[TaskWeighting],
    steps: int,
    opt_cfg: OptConfig,
    seed: int,
    total_steps: int,
    start_params: np.ndarray | None = None,
    start_step: int = 0,
    weigh=None,
) -> list[np.ndarray]:
    """One run per weighting from one start and batch stream, as lockstep
    branches of one `train_branches` call; parameters in weighting order."""
    root = RngStream(seed)
    if start_params is None:
        start_params = nn.init_params(model_spec, root.child("init")).params
    if steps == 0:
        return [start_params for _ in weightings]
    opt = opt_cfg.state_at(len(start_params), total_steps, step_count=start_step)
    branches = [BranchSpec(w, i) for i, w in enumerate(weightings)]
    return train_branches(start_params, branches, steps, family, model_spec, opt, root,
                          opt_cfg.batch_size, weigh)


def _equal_weighting(family: TaskFamily) -> TaskWeighting:
    return TaskWeighting({t: 1.0 for t in family.task_ids}, target_id=family.target_id)


def _test_perf(family: TaskFamily, model_spec: ModelSpec, params) -> PerfValue:
    model = SharedHeadModel(model_spec, params)
    return nn.evaluate(model, family.test(family.target_id), family.target_id)


def run_single_task(
    family: TaskFamily, model_spec: ModelSpec, task_ids: Sequence[int],
    total_steps: int, opt_cfg: OptConfig, seed: int,
) -> list[tuple[np.ndarray, PerfValue]]:
    """Train one head alone for the whole budget, for each of ``task_ids``;
    returns each model's parameters and its task's test performance."""
    weightings = [TaskWeighting({t: 1.0}, target_id=t) for t in task_ids]
    trained = _train(family, model_spec, weightings, total_steps, opt_cfg, seed,
                     total_steps)
    return [(params, nn.evaluate(SharedHeadModel(model_spec, params), family.test(t), t))
            for t, params in zip(task_ids, trained)]


def run_stl(
    family: TaskFamily, model_spec: ModelSpec, total_steps: int,
    opt_cfg: OptConfig, seed: int,
) -> tuple[np.ndarray, PerfValue]:
    """Train the target head alone for the whole budget."""
    return run_single_task(
        family, model_spec, [family.target_id], total_steps, opt_cfg, seed
    )[0]


def run_ew(
    family: TaskFamily, model_spec: ModelSpec, total_steps: int,
    opt_cfg: OptConfig, seed: int,
) -> tuple[np.ndarray, PerfValue]:
    """Joint training with every task weighted 1."""
    [params] = _train(family, model_spec, [_equal_weighting(family)], total_steps,
                      opt_cfg, seed, total_steps)
    return params, _test_perf(family, model_spec, params)


@dataclass(frozen=True)
class FixedLambdaResult:
    lam: float
    params: np.ndarray = field(repr=False)
    perf: PerfValue
    val_history: tuple[tuple[float, PerfValue], ...]


def run_fixed_lambda(
    family: TaskFamily, model_spec: ModelSpec, total_steps: int,
    lambda_grid: Sequence[float], opt_cfg: OptConfig, seed: int,
) -> FixedLambdaResult:
    """One full training run per grid value (every auxiliary task weighted
    by the same lam), all trained in lockstep; the winner is picked on
    validation, ties toward the smaller lam."""
    if not lambda_grid:
        raise ValueError("empty lambda grid")
    weightings = [
        TaskWeighting({t: (1.0 if t == family.target_id else float(lam))
                       for t in family.task_ids}, target_id=family.target_id)
        for lam in lambda_grid
    ]
    trained = _train(family, model_spec, weightings, total_steps, opt_cfg, seed,
                     total_steps)
    best = None
    history = []
    for lam, params in zip(lambda_grid, trained):
        val_perf = nn.evaluate(
            SharedHeadModel(model_spec, params), family.val(family.target_id),
            family.target_id,
        )
        history.append((float(lam), val_perf))
        if best is None or val_perf.value > best[1].value:
            best = (float(lam), val_perf, params)
    lam_star, _, params_star = best
    return FixedLambdaResult(
        lam_star, params_star, _test_perf(family, model_spec, params_star),
        tuple(history),
    )


@dataclass(frozen=True)
class GcsResult:
    params: np.ndarray = field(repr=False)
    perf: PerfValue
    lambda_history: tuple[dict[int, float], ...]


def instantaneous_gcs_weights(
    model: SharedHeadModel, per_task_grads: dict[int, np.ndarray], target_id: int,
) -> dict[int, float]:
    """Clamped cosine, on the shared block, between each auxiliary gradient
    and the target gradient.  An identical copy of the target gradient gets
    weight 1, an exactly opposed one gets 0, and a gradient with no shared
    support (or no signal at all) gets 0."""
    g_tgt = shared_gradient_block(model, per_task_grads[target_id])
    weights = {}
    for task_id, grad in per_task_grads.items():
        if task_id == target_id:
            continue
        g_aux = shared_gradient_block(model, grad)
        if dot(g_tgt, g_tgt) == 0.0 or dot(g_aux, g_aux) == 0.0:
            weights[task_id] = 0.0  # no usable signal this step
        else:
            weights[task_id] = max(0.0, gcs(g_tgt, g_aux))
    return weights


def run_gcs_weighting(
    family: TaskFamily, model_spec: ModelSpec, total_steps: int,
    opt_cfg: OptConfig, seed: int,
) -> GcsResult:
    """Every step weights each auxiliary task by the clamped cosine between
    its gradient and the target gradient (on the shared block), so aligned
    tasks push with up to equal weight and conflicting tasks are muted."""
    model = nn.init_params(model_spec, RngStream(seed).child("init"))
    lambda_history = []

    def weigh(grads: dict[int, np.ndarray]) -> dict[int, float]:
        weights = instantaneous_gcs_weights(model, grads, family.target_id)
        lambda_history.append(weights)
        return {**weights, family.target_id: 1.0}

    [params] = _train(family, model_spec, [_equal_weighting(family)], total_steps,
                      opt_cfg, seed, total_steps, start_params=model.params, weigh=weigh)
    return GcsResult(params, _test_perf(family, model_spec, params),
                     tuple(lambda_history))


def run_post_train(
    family: TaskFamily, model_spec: ModelSpec, pre_steps: int, finetune_steps: int,
    opt_cfg: OptConfig, seed: int,
) -> tuple[np.ndarray, PerfValue]:
    """Equal-weight pretraining followed by target-only fine-tuning of all
    parameters (nothing frozen). One cosine schedule spans both phases;
    momentum restarts at the phase boundary."""
    total = pre_steps + finetune_steps
    stl = TaskWeighting({family.target_id: 1.0}, target_id=family.target_id)
    [params] = _train(family, model_spec, [_equal_weighting(family)], pre_steps,
                      opt_cfg, seed, total)
    [params] = _train(family, model_spec, [stl], finetune_steps, opt_cfg, seed, total,
                      start_params=params, start_step=pre_steps)
    return params, _test_perf(family, model_spec, params)
