"""Transfer diagnostics: gradient cosine similarity, the one-step gain versus
cosine sweep, confidence-based distribution shift, and the signed average
relative improvement used for cross-method summaries. Transfer gain itself is
a record's value minus its seed's single-task value, taken in the runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn
from .nn import ModelSpec, check_loss, mean_max_confidence
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
    """Cosine of the angle between two gradients; negative means conflict."""
    ni = np.sqrt(dot(g_i, g_i))
    nj = np.sqrt(dot(g_j, g_j))
    if ni == 0.0 or nj == 0.0:
        raise ValueError("gradient cosine undefined for a zero gradient")
    return float(np.clip(dot(g_i, g_j) / (ni * nj), -1.0, 1.0))


def csd(spec: ModelSpec, params: np.ndarray, split: DataSplit, task_id: int) -> float:
    """Confidence drop of a trained classifier on a (possibly shifted) split.

    1 - mean max softmax probability; 0 on the model's own confident regime,
    approaching 1 - 1/C under heavy shift.
    """
    return 1.0 - mean_max_confidence(spec, params, split, task_id)


def delta_m(
    baseline: Sequence[float], method: Sequence[float], signs: Sequence[int]
) -> float:
    """Signed mean relative change of `method` over `baseline`, as a fraction.

    signs[k] = 0 when larger is better for metric k, 1 when smaller is better.
    Multiply by 100 for the conventional percent form.
    """
    if not (len(baseline) == len(method) == len(signs)):
        raise ValueError("baseline, method, and signs must have equal lengths")
    if len(baseline) == 0:
        raise ValueError("need at least one metric")
    if any(s not in (0, 1) for s in signs):
        raise ValueError("signs must be 0 (higher better) or 1 (lower better)")
    if any(b == 0 for b in baseline):
        raise ValueError("zero baseline value makes relative change undefined")
    total = 0.0
    for b, m, z in zip(baseline, method, signs):
        total += (-1.0) ** z * (m - b) / b
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


def one_step_tg_gcs_sweep(
    spec: ModelSpec,
    params: np.ndarray,
    family: TaskFamily,
    lambdas: Sequence[float],
    n_points: int,
    rng: RngStream,
    lr: float = 0.01,
    batch_size: int = 64,
    aux_task: int | None = None,
) -> list[SweepRow]:
    """Probe how one mixed-gradient step moves target validation performance.

    For each of ``n_points`` fresh batch draws: take the target gradient and
    one auxiliary task's gradient (averaged over auxiliary tasks when
    ``aux_task`` is None and several exist), record their cosine on the
    shared block, then for every weighting in ``lambdas`` apply the single
    step theta - lr * (g_tgt + lam * g_aux) and report the validation change
    against the lam = 0 step. Rows are ordered by (point, lambda-position);
    the lam = 0 rows are exactly zero by construction. Every gradient comes
    from stacked passes over the train splits, built once per sweep, one per
    batch length, which stage every point's row indices up front, as one
    `RngStream.child_integers` call per task draws them, and then run one
    point at a time.
    """
    aux_ids = (aux_task,) if aux_task is not None else family.aux_ids
    if not aux_ids:
        raise ValueError("family has no auxiliary task to probe")
    if lr <= 0:
        raise ValueError("lr must be positive")
    tasks = tuple(dict.fromkeys((family.target_id, *aux_ids)))
    splits = {t: family.train(t) for t in tasks}
    lengths = {t: min(batch_size, len(split)) for t, split in splits.items()}
    # one stacked pass per batch length, built once; normally one holds every task
    stacked = np.ascontiguousarray(params)[None]
    passes = [spec.kernel.pair_pass(stacked, [(0, t) for t in tasks if lengths[t] == n],
                                    splits, n, n_points)
              for n in sorted(set(lengths.values()))]
    val = family.val(family.target_id)
    drawn = {t: rng.child_integers([("point", p, t) for p in range(n_points)],
                                   len(splits[t]), lengths[t]) for t in tasks}
    for pair_pass in passes:
        pair_pass.stage(drawn)
    rows: list[SweepRow] = []
    for point in range(n_points):
        grads = {}
        for pair_pass in passes:
            losses = pair_pass.run(point)
            for (_, t), k in pair_pass.index.items():
                check_loss(losses[k], t)
                # the next point's pass overwrites ``grads``
                grads[t] = pair_pass.grads[k].copy()
        g_tgt = grads[family.target_id]
        aux_grads = [grads[aid] for aid in aux_ids]
        g_aux = aux_grads[0] if len(aux_grads) == 1 else np.mean(aux_grads, axis=0)
        cos = gcs(shared_gradient_block(spec, g_tgt), shared_gradient_block(spec, g_aux))

        def perf_after(lam: float) -> float:
            stepped, _ = sgd_step(params, np.zeros_like(params), g_tgt + lam * g_aux, 0.0, lr)
            return nn.evaluate(spec, stepped, val, family.target_id).value

        base = perf_after(0.0)
        for lam in lambdas:
            tg = 0.0 if lam == 0.0 else perf_after(float(lam)) - base
            rows.append(SweepRow(point, float(lam), cos, tg))
    return rows
