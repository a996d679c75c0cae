"""Task-weighted gradient mixing and SGD with momentum / cosine annealing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .vectors import NonFiniteError, check_domains, linear_combination, within

__all__ = [
    "TaskWeighting",
    "OptConfig",
    "weighted_gradient",
    "sgd_step",
    "sgd_step_into",
]


@dataclass(frozen=True)
class OptConfig:
    """Optimizer settings, validated here only; total_steps comes at run time."""

    base_lr: float = within("> 0", 0.1)
    momentum: float = within("in [0, 1)", 0.9)
    lr_schedule: str = within(("constant", "cosine"), "cosine")
    batch_size: int = within(">= 1", 64)

    def __post_init__(self):
        check_domains(self)

    def learning_rate(self, step: int, total_steps: int) -> float:
        """η at absolute step ``step`` of a ``total_steps``-step schedule."""
        if total_steps < 1 or not 0 <= step <= total_steps:
            raise ValueError(f"step {step} is outside a {total_steps}-step schedule")
        if self.lr_schedule == "constant":
            return self.base_lr
        return self.base_lr * (1.0 + np.cos(np.pi * step / total_steps)) / 2.0


@dataclass(frozen=True)
class TaskWeighting:
    """Per-task mixing coefficients; the target task's weight is pinned to 1.

    Sums of auxiliary weights are unconstrained (equal weighting uses λ_k = 1
    for every task).
    """

    weights: Mapping[int, float]
    target_id: int = 0

    def __post_init__(self):
        w = {int(k): float(v) for k, v in self.weights.items()}
        if w.get(self.target_id) != 1.0:
            raise ValueError(f"target task {self.target_id} must carry weight 1, got {w}")
        if any(v < 0 for v in w.values()):
            raise ValueError(f"negative task weight in {w}")
        object.__setattr__(self, "weights", w)

    @property
    def active_tasks(self) -> tuple[int, ...]:
        """Task ids with nonzero weight, ascending."""
        return tuple(sorted(k for k, v in self.weights.items() if v > 0))


def weighted_gradient(
    per_task_grads: Mapping[int, np.ndarray], w: TaskWeighting
) -> np.ndarray:
    """Σ_k λ_k · g_k accumulated in ascending task_id order."""
    active = w.active_tasks
    missing = [k for k in active if k not in per_task_grads]
    if missing:
        raise KeyError(f"no gradient supplied for weighted task(s) {missing}")
    coeffs = [w.weights[k] for k in active]
    return linear_combination(coeffs, [per_task_grads[k] for k in active])


def sgd_step(
    params: np.ndarray, buffer: np.ndarray, grad: np.ndarray,
    momentum: float, lr: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One heavy-ball step: buffer ← μ·buffer + g; θ ← θ − η·buffer. Returns
    the new parameters and buffer; the arguments are left as they were."""
    if len(params) != len(grad) or len(grad) != len(buffer):
        raise ValueError(
            f"length mismatch: params {len(params)}, grad {len(grad)}, "
            f"buffer {len(buffer)}"
        )
    new_params = np.array(params, dtype=np.float64)
    new_buffer = np.array(buffer, dtype=np.float64)
    sgd_step_into(new_params, new_buffer, grad, momentum, lr, np.empty_like(new_buffer))
    if not np.all(np.isfinite(new_params)):
        raise NonFiniteError("parameters diverged to non-finite values during sgd_step")
    return new_params, new_buffer


def sgd_step_into(
    params: np.ndarray, buffer: np.ndarray, grad: np.ndarray,
    momentum: float, lr: float, scratch: np.ndarray,
) -> None:
    """``sgd_step``'s heavy-ball arithmetic, in place and unchecked:
    buffer ← μ·buffer + g; params ← params − η·buffer. ``scratch`` holds
    η·buffer."""
    np.multiply(buffer, momentum, out=buffer)
    buffer += grad
    params -= np.multiply(buffer, lr, out=scratch)
