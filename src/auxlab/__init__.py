"""Auxiliary-task learning laboratory.

Small, deterministic lab for studying when auxiliary tasks help or hurt a
target task: synthetic benchmark families with a controllable relatedness
dial, a shared-encoder multi-head model trained with SGD, a fork/merge
training loop that searches mixing coefficients on validation data, the
usual single-task / equal-weight / fixed-weight baselines, and transfer
diagnostics (transfer gain, gradient cosine similarity, confidence-based
distribution shift).

The package exports the names of the README's Python API; everything else
is imported from its own module (``auxlab.nn``, ``auxlab.metrics``, ...).
"""

import os

# Set before anything here imports numpy: BLAS reads these when it loads.
# auxlab's products are thin (a 20 000-row evaluation multiplies 20 000 x 16
# by 16 x C); a second BLAS thread only burns a core on them. The merge
# searches use the other cores for whole candidates instead.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .baselines import run_stl
from .forkmerge import BranchSpec, MergeSchedule, run_forkmerge
from .nn import HeadSpec, ModelSpec
from .optim import OptConfig, TaskWeighting
from .tasks import TaskFamilyConfig, generate_family

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BranchSpec",
    "HeadSpec",
    "MergeSchedule",
    "ModelSpec",
    "OptConfig",
    "TaskFamilyConfig",
    "TaskWeighting",
    "generate_family",
    "run_forkmerge",
    "run_stl",
]
