"""Reference training procedures: single-task, equal weighting, fixed-weight
grid search, per-step gradient-cosine weighting, and pretrain-then-finetune.

All of them are continuous trainers (no forking) run by the fork/merge
loop's lockstep `train_branches`, one branch per run, so degenerate settings
(single target-only branch, zero momentum) coincide bit-for-bit with it.
Each returns parameters and never reads a test split; only `fixed_lambda`
scores anything, its runs on target validation data, to pick one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import nn
from .forkmerge import across_cores, train_branches
from .metrics import shared_gradient_block, gcs
from .nn import ModelSpec
from .optim import OptConfig, TaskWeighting
from .tasks import TaskFamily
from .vectors import RngStream, dot

__all__ = [
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
    steps: range,
    opt_cfg: OptConfig,
    seed: int,
    total_steps: int,
    start_params: np.ndarray | None = None,
    weigh=None,
) -> list[np.ndarray]:
    """One run per weighting over ``steps`` of a ``total_steps``-step schedule,
    as lockstep branches of one `train_branches` call sharing one start and
    batch stream; parameters in weighting order."""
    root = RngStream(seed)
    if start_params is None:
        start_params = nn.init_params(model_spec, root.child("init"))
    return train_branches(start_params, weightings, steps, total_steps, family,
                          model_spec, opt_cfg, root, weigh)


def _equal_weighting(family: TaskFamily) -> TaskWeighting:
    return TaskWeighting({t: 1.0 for t in family.task_ids}, target_id=family.target_id)


def run_single_task(
    family: TaskFamily, model_spec: ModelSpec, task_ids: Sequence[int],
    total_steps: int, opt_cfg: OptConfig, seed: int,
) -> list[np.ndarray]:
    """Train one head alone for the whole budget, for each of ``task_ids``;
    returns each model's parameters, in ``task_ids`` order."""
    weightings = [TaskWeighting({t: 1.0}, target_id=t) for t in task_ids]
    return _train(family, model_spec, weightings, range(total_steps), opt_cfg, seed,
                  total_steps)


def run_stl(
    family: TaskFamily, model_spec: ModelSpec, total_steps: int,
    opt_cfg: OptConfig, seed: int,
) -> np.ndarray:
    """Train the target head alone for the whole budget."""
    return run_single_task(
        family, model_spec, [family.target_id], total_steps, opt_cfg, seed
    )[0]


def run_ew(
    family: TaskFamily, model_spec: ModelSpec, total_steps: int,
    opt_cfg: OptConfig, seed: int,
) -> np.ndarray:
    """Joint training with every task weighted 1."""
    return _train(family, model_spec, [_equal_weighting(family)], range(total_steps),
                  opt_cfg, seed, total_steps)[0]


def run_fixed_lambda(
    family: TaskFamily, model_spec: ModelSpec, total_steps: int,
    lambda_grid: Sequence[float], opt_cfg: OptConfig, seed: int,
) -> np.ndarray:
    """One full training run per grid value (every auxiliary task weighted
    by the same lam), all trained in lockstep; the runs are scored on target
    validation data across cores, and the parameters of the first best are
    returned, so ties go to the earlier grid value."""
    if not lambda_grid:
        raise ValueError("empty lambda grid")
    weightings = [
        TaskWeighting({t: (1.0 if t == family.target_id else float(lam))
                       for t in family.task_ids}, target_id=family.target_id)
        for lam in lambda_grid
    ]
    trained = _train(family, model_spec, weightings, range(total_steps), opt_cfg,
                     seed, total_steps)
    val, target = family.val(family.target_id), family.target_id
    perfs = across_cores(lambda params: nn.evaluate(model_spec, params, val, target),
                         trained, len(val))
    return max(zip(trained, perfs), key=lambda run: run[1].value)[0]


def instantaneous_gcs_weights(
    spec: ModelSpec, per_task_grads: dict[int, np.ndarray], target_id: int,
) -> dict[int, float]:
    """Clamped cosine, on the shared block, between each auxiliary gradient
    and the target gradient.  An identical copy of the target gradient gets
    weight 1, an exactly opposed one gets 0, and a gradient with no shared
    support (or no signal at all) gets 0."""
    g_tgt = shared_gradient_block(spec, per_task_grads[target_id])
    weights = {}
    for task_id, grad in per_task_grads.items():
        if task_id == target_id:
            continue
        g_aux = shared_gradient_block(spec, grad)
        if dot(g_tgt, g_tgt) == 0.0 or dot(g_aux, g_aux) == 0.0:
            weights[task_id] = 0.0  # no usable signal this step
        else:
            weights[task_id] = max(0.0, gcs(g_tgt, g_aux))
    return weights


def run_gcs_weighting(
    family: TaskFamily, model_spec: ModelSpec, total_steps: int,
    opt_cfg: OptConfig, seed: int,
) -> np.ndarray:
    """Every step weights each auxiliary task by the clamped cosine between
    its gradient and the target gradient (on the shared block), so aligned
    tasks push with up to equal weight and conflicting tasks are muted."""

    def weigh(grads: dict[int, np.ndarray]) -> dict[int, float]:
        return {**instantaneous_gcs_weights(model_spec, grads, family.target_id),
                family.target_id: 1.0}

    return _train(family, model_spec, [_equal_weighting(family)], range(total_steps),
                  opt_cfg, seed, total_steps, weigh=weigh)[0]


def run_post_train(
    family: TaskFamily, model_spec: ModelSpec, pre_steps: int, finetune_steps: int,
    opt_cfg: OptConfig, seed: int,
) -> np.ndarray:
    """Equal-weight pretraining followed by target-only fine-tuning of all
    parameters (nothing frozen). One cosine schedule spans both phases;
    momentum restarts at the phase boundary."""
    total = pre_steps + finetune_steps
    stl = TaskWeighting({family.target_id: 1.0}, target_id=family.target_id)
    [params] = _train(family, model_spec, [_equal_weighting(family)],
                      range(pre_steps), opt_cfg, seed, total)
    return _train(family, model_spec, [stl], range(pre_steps, total), opt_cfg, seed,
                  total, start_params=params)[0]
