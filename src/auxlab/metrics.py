"""Transfer diagnostics: gradient cosine similarity, the one-step gain versus
cosine sweep, confidence-based distribution shift, and the average relative
improvement used for cross-method summaries. Transfer gain itself is
a record's value minus its seed's single-task value, taken in the runner."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn
from .nn import ModelSpec, mean_max_confidence
from .optim import sgd_step
from .tasks import DataSplit, TaskFamily
from .vectors import RngStream, dot

__all__ = [
    "SweepRow",
    "gcs",
    "csd",
    "delta_m",
    "shared_gradient_block",
    "one_step_tg_gcs_sweep",
]


def gcs(g_i: np.ndarray, g_j: np.ndarray) -> float:
    """Cosine of the angle between two gradients; negative means conflict.
    NaN when either gradient is zero: its angle is undefined, and a
    saturated model's gradient can be exactly zero."""
    ni = np.sqrt(dot(g_i, g_i))
    nj = np.sqrt(dot(g_j, g_j))
    if ni == 0.0 or nj == 0.0:
        return math.nan
    return float(np.clip(dot(g_i, g_j) / (ni * nj), -1.0, 1.0))


def csd(spec: ModelSpec, params: np.ndarray, split: DataSplit, task_id: int) -> float:
    """Confidence drop of a trained classifier on a (possibly shifted) split.

    1 - mean max softmax probability; 0 on the model's own confident regime,
    approaching 1 - 1/C under heavy shift.
    """
    return 1.0 - mean_max_confidence(spec, params, split, task_id)


def delta_m(baseline: Sequence[float], method: Sequence[float]) -> float:
    """Mean relative change of `method` over `baseline`, as a fraction; every
    metric of this lab is larger-is-better. Multiply by 100 for the
    conventional percent form.
    """
    if len(baseline) != len(method) or len(baseline) == 0:
        raise ValueError("baseline and method must be non-empty and of equal lengths")
    if any(b == 0 for b in baseline):
        raise ValueError("zero baseline value makes relative change undefined")
    total = 0.0
    for b, m in zip(baseline, method):
        total += (m - b) / b
    return total / len(baseline)


@dataclass(frozen=True)
class SweepRow:
    point_id: int
    lam: float
    gcs: float
    tg: float


def shared_gradient_block(spec: ModelSpec, g: np.ndarray) -> np.ndarray:
    """Restrict a gradient to the encoder block the tasks actually share.

    Cosine comparisons are most informative there (head blocks never overlap
    across tasks, so they only dilute the angle). A pure-head model shares
    nothing, in which case the full vector is returned.
    """
    first_head = min(spec.heads)
    start = nn.head_slice(spec, first_head).start
    return g[:start] if start > 0 else g


# every tg-gcs probe takes one small fixed step, as ForkMerge's gain probe does
PROBE_LR = 0.01


def one_step_tg_gcs_sweep(
    spec: ModelSpec,
    params: np.ndarray,
    family: TaskFamily,
    lambdas: Sequence[float],
    n_points: int,
    rng: RngStream,
    batch_size: int = 64,
) -> list[SweepRow]:
    """Probe how one mixed-gradient step moves target validation performance.

    For each of ``n_points`` fresh batch draws: take the target gradient and
    the mean of every auxiliary task's gradient, record their cosine on the
    shared block, then for every weighting in ``lambdas`` apply the single
    step theta - PROBE_LR * (g_tgt + lam * g_aux) and report the validation
    change against the lam = 0 step. Rows are ordered by (point, lambda
    position); the lam = 0 rows are exactly zero by construction, and a point
    whose target or auxiliary gradient is zero on the shared block has a NaN
    cosine. One `RngStream.child_integers` call per task draws every point's
    batch rows; each (point, task) gradient is `nn.loss_and_gradient` on them.
    """
    if not family.aux_ids:
        raise ValueError("family has no auxiliary task to probe")
    splits = {t: family.train(t) for t in family.task_ids}
    val = family.val(family.target_id)
    drawn = {t: rng.child_integers([("point", p, t) for p in range(n_points)],
                                   len(split), min(batch_size, len(split)))
             for t, split in splits.items()}
    rows: list[SweepRow] = []
    for point in range(n_points):
        grads = {}
        for t, split in splits.items():
            at = drawn[t][point]
            batch = DataSplit(split.inputs[at], split.targets[at], t)
            grads[t] = nn.loss_and_gradient(spec, params, batch)[1]
        g_tgt = grads[family.target_id]
        g_aux = np.mean([grads[t] for t in family.aux_ids], axis=0)
        cos = gcs(shared_gradient_block(spec, g_tgt), shared_gradient_block(spec, g_aux))

        def perf_after(lam: float) -> float:
            stepped, _ = sgd_step(params, np.zeros_like(params), g_tgt + lam * g_aux,
                                  0.0, PROBE_LR)
            return nn.evaluate(spec, stepped, val, family.target_id).value

        base = perf_after(0.0)
        for lam in lambdas:
            tg = 0.0 if lam == 0.0 else perf_after(float(lam)) - base
            rows.append(SweepRow(point, float(lam), cos, tg))
    return rows
