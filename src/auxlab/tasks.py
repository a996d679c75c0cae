"""Synthetic multi-task benchmarks with a controllable relatedness dial.

The target task (id 0) is a Gaussian-mixture classification problem whose
class centers sit on a circle in the first two input dimensions. Each
auxiliary task k reuses that generator with two perturbations scaled by
(1 - r_k), where r_k in [0, 1] is its relatedness to the target:

* geometry: class centers are rotated one class slot and translated along a
  family-wide random direction, both proportionally to (1 - r_k), so the
  input distribution drifts smoothly away from the target's as r_k drops;
* labels: each sample's label is replaced by the next class (a fixed cyclic
  permutation) with probability (1 - r_k) / 2, so the conditional p(y|x)
  conflicts more and more.

At r_k = 1 the auxiliary generator is the target generator; at r_k = 0 the
centers are maximally displaced and half the labels are systematically wrong.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .vectors import RngStream, check_domains, within

__all__ = [
    "TaskFamilyConfig",
    "DataSplit",
    "TaskFamily",
    "FamilyGeometry",
    "CsvFormatError",
    "class_labels",
    "family_geometry",
    "generate_family",
    "sample_interpolated",
    "load_csv",
    "csv_text",
    "write_csv",
    "write_table",
    "load_family",
    "write_family",
]

SPLIT_NAMES = ("train", "val", "test")


class CsvFormatError(ValueError):
    """A data file that does not match the documented CSV layout."""


@dataclass(frozen=True)
class TaskFamilyConfig:
    """Recipe for one target task plus K auxiliary tasks.

    ``n_train`` may be a single count shared by every task or a per-task
    sequence, which is how small-target / large-auxiliary regimes are built.
    """

    n_tasks: int = within(">= 1")  # the target task and K auxiliary tasks
    relatedness: tuple[float, ...] = within("in [0, 1]")
    input_dim: int = within(">= 2", 2)  # the class circle needs a plane
    n_classes: int = within(">= 2", 4)
    n_train: int | tuple[int, ...] = within(">= 1", 2000)
    n_val: int = within(">= 1", 500)
    n_test: int = within(">= 1", 1000)
    noise_std: float = within(">= 0", 0.5)
    mean_scale: float = 2.0
    seed: int = 0

    def __post_init__(self):
        rel = tuple(float(r) for r in np.atleast_1d(self.relatedness))
        object.__setattr__(self, "relatedness", rel)
        if isinstance(self.n_train, (tuple, list)):
            object.__setattr__(self, "n_train", tuple(int(n) for n in self.n_train))
        check_domains(self)
        if len(rel) != self.n_tasks - 1:
            raise ValueError(f"relatedness: needs {self.n_tasks - 1} entries, one per"
                             f" auxiliary task, got {len(rel)}")
        if isinstance(self.n_train, tuple) and len(self.n_train) != self.n_tasks:
            raise ValueError(f"n_train: needs {self.n_tasks} counts, one per task,"
                             f" got {len(self.n_train)}")

    def train_count(self, task_id: int) -> int:
        if isinstance(self.n_train, tuple):
            return self.n_train[task_id]
        return int(self.n_train)


@dataclass(frozen=True)
class DataSplit:
    inputs: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    task_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        object.__setattr__(self, "targets", np.asarray(self.targets))
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a (n, d) matrix")
        if self.targets.shape[0] != self.inputs.shape[0]:
            raise ValueError("inputs and targets row counts differ")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def class_labels(targets, n_classes: int) -> np.ndarray:
    """``targets`` as int64 class labels; ValueError unless each one is an
    integer in [0, n_classes). Integer arrays are range-checked without a
    copy; only other dtypes pay for the integrality test."""
    labels = np.asarray(targets)
    if labels.dtype.kind not in "iu":
        values = labels.astype(np.float64)
        if (np.floor(values) != values).any():  # NaN is not integral either
            raise ValueError("class label is not an integer")
        # clipped so the cast is exact and a label out of range stays out
        labels = np.clip(values, -1, n_classes).astype(np.int64)
    labels = labels.astype(np.int64, copy=False)
    # one bound: negative labels wrap to huge unsigned values
    if labels.view(np.uint64).max(initial=0) >= n_classes:
        raise ValueError("class label out of range")
    return labels


@dataclass(frozen=True)
class TaskFamily:
    """Per-task train/val/test splits; the target is always task 0, a class
    constant. An auxiliary task may lack its val split, which no method reads."""

    splits: Mapping[int, Mapping[str, DataSplit]]
    n_classes: int
    input_dim: int
    target_id: ClassVar[int] = 0

    def __post_init__(self):
        for task_id, per_split in self.splits.items():
            for name in SPLIT_NAMES:
                if name not in per_split:
                    if name == "val" and task_id != self.target_id:
                        continue
                    raise ValueError(f"task {task_id} is missing its {name} split")
                split = per_split[name]
                if split.inputs.shape[1] != self.input_dim:
                    raise ValueError(f"task {task_id} {name}: wrong input_dim")
                try:
                    class_labels(split.targets, self.n_classes)
                except ValueError as exc:
                    raise ValueError(f"task {task_id} {name}: {exc}") from None
        if self.target_id not in self.splits:
            raise ValueError("target task missing from family")

    @property
    def task_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.splits))

    @property
    def aux_ids(self) -> tuple[int, ...]:
        return tuple(t for t in self.task_ids if t != self.target_id)

    def split(self, task_id: int, name: str) -> DataSplit:
        return self.splits[task_id][name]

    def train(self, task_id: int) -> DataSplit:
        return self.split(task_id, "train")

    def val(self, task_id: int) -> DataSplit:
        return self.split(task_id, "val")

    def test(self, task_id: int) -> DataSplit:
        return self.split(task_id, "test")


@dataclass(frozen=True)
class FamilyGeometry:
    """Class centers per task, exposed for diagnostics and tests."""

    target_means: np.ndarray
    aux_means: tuple[np.ndarray, ...]
    label_flip_probs: tuple[float, ...]


def _rotation_2d(angle: float, dim: int) -> np.ndarray:
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = c, -s, s, c
    return rot


def family_geometry(cfg: TaskFamilyConfig) -> FamilyGeometry:
    c = cfg.n_classes
    angles = 2.0 * np.pi * np.arange(c) / c
    target = np.zeros((c, cfg.input_dim))
    target[:, 0] = cfg.mean_scale * np.cos(angles)
    target[:, 1] = cfg.mean_scale * np.sin(angles)

    # Full-strength perturbation: rotate every center one class slot around
    # the circle and translate along a family-wide random unit direction.
    gen = RngStream(cfg.seed).child("family", "direction").generator()
    direction = gen.normal(size=cfg.input_dim)
    direction /= np.linalg.norm(direction)
    rotated = target @ _rotation_2d(2.0 * np.pi / c, cfg.input_dim).T
    full_delta = (rotated - target) + cfg.mean_scale * direction

    aux_means = []
    flip_probs = []
    for r in cfg.relatedness:
        aux_means.append(target + (1.0 - r) * full_delta)
        flip_probs.append((1.0 - r) / 2.0)
    return FamilyGeometry(target, tuple(aux_means), tuple(flip_probs))


def _sample_split(
    means: np.ndarray,
    flip_prob: float,
    n: int,
    noise_std: float,
    n_classes: int,
    stream: RngStream,
    task_id: int,
) -> DataSplit:
    gen = stream.generator()
    labels = gen.integers(0, n_classes, size=n)
    noise = gen.normal(size=(n, means.shape[1]))
    inputs = means[labels] + noise_std * noise
    if flip_prob > 0.0:
        flips = gen.random(n) < flip_prob
        labels = np.where(flips, (labels + 1) % n_classes, labels)
    return DataSplit(inputs, labels.astype(np.int64), task_id)


def generate_family(cfg: TaskFamilyConfig) -> TaskFamily:
    """Deterministic in cfg.seed; every (task, split) has its own substream."""
    geometry = family_geometry(cfg)
    root = RngStream(cfg.seed).child("family")
    splits: dict[int, dict[str, DataSplit]] = {}
    for task_id in range(cfg.n_tasks):
        if task_id == 0:
            means, flip = geometry.target_means, 0.0
        else:
            means = geometry.aux_means[task_id - 1]
            flip = geometry.label_flip_probs[task_id - 1]
        counts = {
            "train": cfg.train_count(task_id),
            "val": cfg.n_val,
            "test": cfg.n_test,
        }
        splits[task_id] = {
            name: _sample_split(
                means, flip, counts[name], cfg.noise_std, cfg.n_classes,
                root.child("data", task_id, name), task_id,
            )
            for name in SPLIT_NAMES
        }
    return TaskFamily(splits, cfg.n_classes, cfg.input_dim)


def sample_interpolated(
    tgt: DataSplit, aux: DataSplit, lam: float, n: int, rng: RngStream
) -> DataSplit:
    """Rows drawn from aux with probability lam / (1 + lam), else from tgt.

    Mirrors how a weighting lam mixes gradient mass between the two source
    distributions; lam may exceed 1 (mix probability approaches 1 from below).
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if tgt.inputs.shape[1] != aux.inputs.shape[1]:
        raise ValueError("tgt and aux input dims differ")
    gen = rng.generator()
    take_aux = gen.random(n) < lam / (1.0 + lam)
    tgt_rows = gen.integers(0, len(tgt), size=n)
    aux_rows = gen.integers(0, len(aux), size=n)
    inputs = np.where(take_aux[:, None], aux.inputs[aux_rows], tgt.inputs[tgt_rows])
    targets = np.where(take_aux, aux.targets[aux_rows], tgt.targets[tgt_rows])
    return DataSplit(inputs, targets, tgt.task_id)


def _expected_header(input_dim: int) -> list[str]:
    return [f"f{i}" for i in range(input_dim)] + ["label"]


def load_csv(path, input_dim: int, n_classes: int, task_id: int = 0) -> DataSplit:
    """Read one split from `f0,...,f{d-1},label` CSV, naming bad lines.

    The rows are parsed in one ``np.loadtxt`` pass. A file that pass cannot
    read, or whose labels leave [0, n_classes), is read again row by row,
    which accepts what Python's float() and int() accept and names the line
    at fault.
    """
    path = Path(path)
    data = _parse_rows(path, input_dim) if path.exists() else None
    if data is not None:
        labels = data["label"]
        if 0 <= labels.min() and labels.max() < n_classes:
            return DataSplit(np.ascontiguousarray(data["x"]), labels.copy(), task_id)
    return _read_rows(path, input_dim, n_classes, task_id)


def _parse_rows(path: Path, input_dim: int):
    """The rows below a well-formed header as a structured array, or None if
    the header differs or ``np.loadtxt`` cannot read the rows or finds none."""
    with path.open(newline="", encoding="utf-8") as fh:
        if next(csv.reader([fh.readline()]), None) != _expected_header(input_dim):
            return None
        dtype = [("x", np.float64, (input_dim,)), ("label", np.int64)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # "input contained no data"
                return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, UserWarning):
            return None


@contextmanager
def _open_rows(path: Path, input_dim: int):
    """A ``csv.reader`` over the rows of ``path`` below its header; raises if
    the file is missing or its header is not the documented one."""
    if not path.exists():
        raise FileNotFoundError(f"no such data file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        expected = _expected_header(input_dim)
        if header != expected:
            raise CsvFormatError(
                f"{path}: header {header!r} does not match expected {expected!r}"
            )
        yield reader


def _read_rows(path: Path, input_dim: int, n_classes: int, task_id: int) -> DataSplit:
    with _open_rows(path, input_dim) as reader:
        rows, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != input_dim + 1:
                raise CsvFormatError(
                    f"{path}: line {line_no}: expected {input_dim + 1} fields, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise CsvFormatError(f"{path}: line {line_no}: {exc}") from None
            try:
                label = int(row[-1])
            except ValueError:
                raise CsvFormatError(
                    f"{path}: line {line_no}: label {row[-1]!r} is not an integer"
                ) from None
            if not 0 <= label < n_classes:
                raise CsvFormatError(
                    f"{path}: line {line_no}: label {label} outside [0, {n_classes})"
                )
            labels.append(label)
    return DataSplit(np.asarray(rows, dtype=np.float64).reshape(len(rows), input_dim),
                     np.asarray(labels, dtype=np.int64), task_id)


def csv_text(header: Iterable[str] | None, columns: Iterable[Sequence]) -> str:
    """The table ``columns`` as CSV lines below a ``header`` line (none if
    None), by the one cell rule of every CSV auxlab writes: a float is
    ``repr(float(v))``, which reads back exactly, None is an empty cell, and
    anything else is left to ``csv``. Each column is converted once. Cells
    of numpy number columns never need quoting, so a table of those alone is
    written with one ``str.format`` per row; any other goes through
    ``csv.writer``."""
    columns = list(columns)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    if columns and all(isinstance(c, np.ndarray) and c.dtype.kind in "fiu" for c in columns):
        floats = [c.dtype.kind == "f" for c in columns]
        line = ",".join("{!r}" if f else "{}" for f in floats) + "\n"
        # as Python floats and ints: {!r} of one is repr(float(v))
        values = ((c.astype(np.float64) if f else c).tolist() for c, f in zip(columns, floats))
        buffer.writelines(map(line.format, *values))
    else:
        writer.writerows(zip(*(map(_cell, c) for c in columns)))
    return buffer.getvalue()


def _cell(v):
    return "" if v is None else repr(float(v)) if isinstance(v, (float, np.floating)) else v


def write_table(path, header: Iterable[str], columns: Iterable[Sequence]) -> None:
    """Write ``header`` and then the table ``columns`` to ``path`` by
    `csv_text`; the directory is made if missing. A caller holding rows
    passes ``zip(*rows)``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(csv_text(header, columns), encoding="utf-8", newline="")


def write_csv(split: DataSplit, path) -> None:
    """Inverse of load_csv: its floats read back exactly."""
    write_table(path, _expected_header(split.inputs.shape[1]),
                [*split.inputs.T, split.targets.astype(np.int64)])


def _split_path(directory: Path, task_id: int, name: str) -> Path:
    return directory / f"task{task_id}_{name}.csv"


def write_family(family: TaskFamily, directory) -> list[Path]:
    """Write every split of ``family`` into ``directory``, one file each. An
    auxiliary val split the family lacks (a family read back by
    `load_family` has none) is written header-only, which `load_family`
    accepts."""
    directory = Path(directory)
    missing = DataSplit(np.empty((0, family.input_dim)), np.empty(0, dtype=np.int64))
    written = []
    for task_id in family.task_ids:
        for name in SPLIT_NAMES:
            path = _split_path(directory, task_id, name)
            write_csv(family.splits[task_id].get(name, missing), path)
            written.append(path)
    return written


def load_family(directory, n_tasks: int, input_dim: int, n_classes: int) -> TaskFamily:
    """The family written by `write_family` into ``directory``, without the
    auxiliary tasks' val splits, which no method reads: each of those files
    is only checked to exist and start with the header. Every split it
    parses must have a row; `CsvFormatError` names the file of one that
    has none."""
    directory = Path(directory)
    splits: dict[int, dict[str, DataSplit]] = {}
    for task_id in range(n_tasks):
        splits[task_id] = {}
        for name in SPLIT_NAMES:
            path = _split_path(directory, task_id, name)
            if task_id == 0 or name != "val":
                split = splits[task_id][name] = load_csv(path, input_dim, n_classes, task_id)
                if not len(split):
                    raise CsvFormatError(f"{path}: no rows below the header")
            else:
                with _open_rows(path, input_dim):
                    pass
    return TaskFamily(splits, n_classes, input_dim)
