"""Task-weighted gradient mixing and SGD with momentum / cosine annealing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .vectors import NonFiniteError, linear_combination

__all__ = [
    "TaskWeighting",
    "OptState",
    "OptConfig",
    "weighted_gradient",
    "sgd_step",
    "sgd_step_into",
]


@dataclass(frozen=True)
class OptConfig:
    """Optimizer settings, validated here only; total_steps comes at run time."""

    base_lr: float = 0.1
    momentum_coeff: float = 0.9
    schedule: str = "cosine"
    batch_size: int = 64

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise ValueError("momentum_coeff must lie in [0, 1)")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def state_at(self, total_steps: int, step_count: int = 0) -> "OptState":
        return OptState(self, total_steps, step_count)


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


@dataclass(frozen=True)
class OptState:
    """Where one training call starts: its settings, the schedule's length and
    the absolute step ``step_count``, which callers keep global across
    fork/merge rounds. Each call starts its momentum at zero."""

    config: OptConfig
    total_steps: int
    step_count: int

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.step_count < 0:
            raise ValueError("step_count must be nonnegative")

    def learning_rate(self, step: int | None = None) -> float:
        """η at absolute step ``step``, by default at ``step_count``."""
        base_lr = self.config.base_lr
        if self.config.schedule == "constant":
            return base_lr
        t = self.step_count if step is None else step
        return base_lr * (1.0 + np.cos(np.pi * t / self.total_steps)) / 2.0


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
    momentum_coeff: float, lr: float,
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
    sgd_step_into(new_params, new_buffer, grad, momentum_coeff, lr, np.empty_like(new_buffer))
    if not np.all(np.isfinite(new_params)):
        raise NonFiniteError("parameters diverged to non-finite values during sgd_step")
    return new_params, new_buffer


def sgd_step_into(
    params: np.ndarray, buffer: np.ndarray, grad: np.ndarray,
    momentum_coeff: float, lr: float, scratch: np.ndarray,
) -> None:
    """``sgd_step``'s heavy-ball arithmetic, in place and unchecked:
    buffer ← μ·buffer + g; params ← params − η·buffer. ``scratch`` holds
    η·buffer."""
    np.multiply(buffer, momentum_coeff, out=buffer)
    buffer += grad
    params -= np.multiply(buffer, lr, out=scratch)
