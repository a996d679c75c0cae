"""Experiment orchestration: flat text configs, multi-seed runs with
crash-safe record appends, aggregation across seeds, and the two analysis
sweeps (one-step gain vs. gradient cosine, confidence drop vs. mixing rate).

Accuracy is recorded in percent so that gains read directly as points.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import nn
from .baselines import (
    run_ew,
    run_fixed_lambda,
    run_gcs_weighting,
    run_post_train,
    run_single_task,
    run_stl,
)
from .forkmerge import (
    DEFAULT_LAMBDA_GRID,
    BranchSpec,
    MergeSchedule,
    make_omega_branches,
    run_forkmerge,
    train_branches,
    write_merge_history,
)
from .metrics import SweepRow, csd, delta_m, one_step_tg_gcs_sweep
from .nn import HeadSpec, ModelSpec, SharedHeadModel
from .optim import OptConfig, TaskWeighting
from .tasks import (
    TaskFamily,
    TaskFamilyConfig,
    generate_family,
    load_family,
    sample_interpolated,
)
from .vectors import NonFiniteError, RngStream

__all__ = [
    "METHODS",
    "OUTPUT_DIR_ENV",
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "aggregate",
    "config_to_text",
    "load_config",
    "parse_config_text",
    "read_records",
    "run_csd_lambda_sweep",
    "run_experiment",
    "run_tg_gcs_sweep",
    "write_summary",
    "write_sweep_rows",
]

METHODS = (
    "stl",
    "ew",
    "fixed_lambda",
    "gcs",
    "post_train",
    "forkmerge",
    "forkmerge_multi",
)
FORKMERGE_METHODS = ("forkmerge", "forkmerge_multi")

OUTPUT_DIR_ENV = "AUXLAB_OUTPUT_DIR"
RECORDS_FILENAME = "records.csv"
CONFIG_ECHO_FILENAME = "config_echo_{method}.cfg"
RECORD_COLUMNS = (
    "method", "seed", "task_id", "split", "metric", "value", "tg",
    "psearch_evals", "wall_s",
)


class ConfigError(ValueError):
    """A config line failed to parse, or a field failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, flat and fully defaulted except for
    the method and the seeds."""

    method: str
    seeds: tuple[int, ...]
    # task family (regenerated per seed as data_seed + seed unless data_dir
    # points at CSVs written by gen-data, which are then shared by all seeds)
    n_tasks: int = 2
    relatedness: tuple[float, ...] = (0.5,)
    input_dim: int = 2
    n_classes: int = 4
    n_train: int | tuple[int, ...] = 2000
    n_val: int = 500
    n_test: int = 1000
    noise_std: float = 0.5
    mean_scale: float = 2.0
    data_seed: int = 0
    data_dir: str = ""
    # model
    hidden_dims: tuple[int, ...] = (16,)
    activation: str = "tanh"
    # optimizer
    total_steps: int = 2000
    base_lr: float = 0.1
    momentum: float = 0.9
    lr_schedule: str = "cosine"
    batch_size: int = 64
    # fork/merge and grid-search settings
    merge_interval: int = 500
    lambda_grid: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    search_strategy: str = "grid"
    binary_iters: int = 5
    prune_to: int | None = None
    val_subsample: int | None = None
    branch_weights: tuple[tuple[float, ...], ...] = ()
    # post-train split (fine-tuning gets total_steps - pre_steps)
    pre_steps: int = 1000
    # bookkeeping
    compute_tg: bool = True
    output_dir: str = "results"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"method: {self.method!r} is not one of {', '.join(METHODS)}"
            )
        if not self.seeds:
            raise ConfigError("seeds: at least one seed is required")
        # the family, model, optimizer and schedule configs own their checks
        try:
            _family_config(self, self.data_seed)
            ModelSpec(self.input_dim, self.hidden_dims, self.activation,
                      {0: HeadSpec(self.n_classes)})
            opt_config_for(self)
            # fixed_lambda trains once per value of any grid; the merge
            # search's grid rules bind the fork/merge methods only
            _schedule_for(self, self.lambda_grid if self.method in FORKMERGE_METHODS
                          else DEFAULT_LAMBDA_GRID)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.pre_steps < 0:
            raise ConfigError("pre_steps: must be >= 0")
        if self.method == "post_train" and self.pre_steps > self.total_steps:
            raise ConfigError("pre_steps: must not exceed total_steps")
        for row in self.branch_weights:
            if len(row) != self.n_tasks:
                raise ConfigError(
                    f"branch_weights: each branch needs {self.n_tasks} weights,"
                    f" got {len(row)}"
                )


# -- flat key = value codec ------------------------------------------------

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(part.strip()) for part in text.split(","))


def _parse_counts(text: str) -> int | tuple[int, ...]:
    if "," in text:
        return _parse_int_tuple(text)
    return int(text.strip())


def _parse_opt_int(text: str) -> int | None:
    text = text.strip()
    if not text or text.lower() == "none":
        return None
    return int(text)


def _parse_branch_rows(text: str) -> tuple[tuple[float, ...], ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_float_tuple(part) for part in text.split(";"))


def _dump(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(str(x) for x in row) for row in value)
        return ",".join(str(x) for x in value)
    return str(value)


_PARSERS = {
    "method": str,
    "seeds": _parse_int_tuple,
    "n_tasks": int,
    "relatedness": _parse_float_tuple,
    "input_dim": int,
    "n_classes": int,
    "n_train": _parse_counts,
    "n_val": int,
    "n_test": int,
    "noise_std": float,
    "mean_scale": float,
    "data_seed": int,
    "data_dir": str,
    "hidden_dims": _parse_int_tuple,
    "activation": str,
    "total_steps": int,
    "base_lr": float,
    "momentum": float,
    "lr_schedule": str,
    "batch_size": int,
    "merge_interval": int,
    "lambda_grid": _parse_float_tuple,
    "search_strategy": str,
    "binary_iters": int,
    "prune_to": _parse_opt_int,
    "val_subsample": _parse_opt_int,
    "branch_weights": _parse_branch_rows,
    "pre_steps": int,
    "compute_tg": _parse_bool,
    "output_dir": str,
}

assert set(_PARSERS) == {f.name for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; # starts a comment; unknown keys are errors."""
    pairs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            pairs[key] = _PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    for required in ("method", "seeds"):
        if required not in pairs:
            raise ConfigError(f"{required}: required, no default")
    return ExperimentConfig(**pairs)


def config_to_text(config: ExperimentConfig) -> str:
    lines = [f"{f.name} = {_dump(getattr(config, f.name))}"
             for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


# -- experiment execution ----------------------------------------------------

@dataclass(frozen=True)
class ResultRecord:
    """One CSV row: a single evaluated quantity of a single run."""

    method: str
    seed: int
    task_id: int
    split: str
    metric: str
    value: float
    tg: float | None
    psearch_evals: int
    wall_s: float


def _family_config(config: ExperimentConfig, seed: int) -> TaskFamilyConfig:
    return TaskFamilyConfig(
        n_tasks=config.n_tasks,
        relatedness=config.relatedness,
        input_dim=config.input_dim,
        n_classes=config.n_classes,
        n_train=config.n_train,
        n_val=config.n_val,
        n_test=config.n_test,
        noise_std=config.noise_std,
        mean_scale=config.mean_scale,
        seed=seed,
    )


def family_for_seed(config: ExperimentConfig, seed: int) -> TaskFamily:
    if config.data_dir:
        return load_family(
            config.data_dir, config.n_tasks, config.input_dim, config.n_classes
        )
    return generate_family(_family_config(config, config.data_seed + seed))


def model_spec_for(config: ExperimentConfig, family: TaskFamily) -> ModelSpec:
    heads = {t: HeadSpec(family.n_classes) for t in family.task_ids}
    return ModelSpec(family.input_dim, config.hidden_dims, config.activation, heads)


def opt_config_for(config: ExperimentConfig) -> OptConfig:
    return OptConfig(
        base_lr=config.base_lr,
        momentum_coeff=config.momentum,
        schedule=config.lr_schedule,
        batch_size=config.batch_size,
    )


def _branches_for(config: ExperimentConfig, family: TaskFamily) -> list[BranchSpec]:
    if config.branch_weights:
        branches = []
        for branch_id, row in enumerate(config.branch_weights):
            weights = {t: float(w) for t, w in enumerate(row) if w != 0.0}
            weights.setdefault(family.target_id, 1.0)
            branches.append(
                BranchSpec(TaskWeighting(weights, target_id=family.target_id),
                           branch_id)
            )
        return branches
    if config.method == "forkmerge_multi":
        return make_omega_branches(config.n_tasks - 1)
    # plain two-branch setup: target alone vs. everything at weight 1
    all_tasks = TaskWeighting({t: 1.0 for t in family.task_ids},
                              target_id=family.target_id)
    return [
        BranchSpec(TaskWeighting({family.target_id: 1.0},
                                 target_id=family.target_id), 0),
        BranchSpec(all_tasks, 1),
    ]


def _schedule_for(config: ExperimentConfig,
                  lambda_grid: Sequence[float]) -> MergeSchedule:
    return MergeSchedule(
        total_steps=config.total_steps,
        interval=config.merge_interval,
        lambda_grid=lambda_grid,
        search_strategy=config.search_strategy,
        prune_after_first_merge=config.prune_to,
        binary_iters=config.binary_iters,
        val_subsample=config.val_subsample,
    )


def _scaled(perf: nn.PerfValue) -> float:
    # accuracies are reported in percent so gains read as points
    return 100.0 * perf.value if perf.metric == "accuracy" else perf.value


class _RecordWriter:
    """Appends records to CSV as they are produced, so a crash loses at most
    the run in flight. The file is first made to hold exactly ``kept``, in
    order: anything else it held (a torn tail, an unfinished job's rows) is
    dropped by an atomic rewrite before the first append."""

    def __init__(self, path: Path, kept: Sequence[ResultRecord]):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(
            [RECORD_COLUMNS, *map(_record_row, kept)])
        text = buffer.getvalue()
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            partial = path.with_name(path.name + ".partial")
            partial.write_text(text, encoding="utf-8")
            os.replace(partial, path)
        self._handle = open(path, "a", newline="", encoding="utf-8")
        self._writer = csv.writer(self._handle, lineterminator="\n")

    def append(self, record: ResultRecord):
        self._writer.writerow(_record_row(record))
        self._handle.flush()

    def close(self):
        self._handle.close()


def _record_row(record: ResultRecord) -> list:
    return [
        record.method,
        record.seed,
        record.task_id,
        record.split,
        record.metric,
        repr(record.value),
        "" if record.tg is None else repr(record.tg),
        record.psearch_evals,
        repr(record.wall_s),
    ]


def _finished_jobs(path: Path) -> list[list[ResultRecord]]:
    """The rows of every (method, seed) job that ``path`` holds in full, in
    file order. A job writes its rows together and ends with the target's
    val row, or, if it diverged, is one NaN row; rows that stop short of
    that belong to a job that did not finish and are left out. A file cut
    within its header holds no job."""
    if not path.exists() or ",".join(RECORD_COLUMNS).startswith(
            path.read_text(encoding="utf-8")):
        return []
    records = read_records(path)
    jobs: list[list[ResultRecord]] = []
    rows: list[ResultRecord] = []
    for record in records:
        if rows and (record.method, record.seed) != (rows[0].method, rows[0].seed):
            rows = []
        rows.append(record)
        if record.split == "val" or (len(rows) == 1 and math.isnan(record.value)):
            jobs.append(rows)
            rows = []
    dropped = len(records) - sum(map(len, jobs))
    if dropped:
        print(f"auxlab: {path}: dropping {dropped} row(s) of unfinished jobs",
              file=sys.stderr)
    return jobs


def _target_test_value(rows: Sequence[ResultRecord]) -> float | None:
    """A finished job's target test value; None for a diverged job."""
    if rows[-1].split != "val":
        return None
    target = rows[-1].task_id  # the val row is the target's
    return next(r.value for r in rows if r.task_id == target and r.split == "test")


def _run_method(
    config: ExperimentConfig,
    method: str,
    family: TaskFamily,
    spec: ModelSpec,
    seed: int,
    out_dir: Path,
) -> tuple[np.ndarray, int]:
    """Train one (method, seed) job; returns final params and the number of
    validation evaluations the method spent on weight search."""
    opt = opt_config_for(config)
    total = config.total_steps
    if method == "ew":
        params, _ = run_ew(family, spec, total, opt, seed)
        return params, 0
    if method == "fixed_lambda":
        res = run_fixed_lambda(family, spec, total, config.lambda_grid, opt, seed)
        return res.params, len(res.val_history)
    if method == "gcs":
        res = run_gcs_weighting(family, spec, total, opt, seed)
        return res.params, 0
    if method == "post_train":
        params, _ = run_post_train(
            family, spec, config.pre_steps, total - config.pre_steps, opt, seed
        )
        return params, 0
    # forkmerge / forkmerge_multi
    result = run_forkmerge(
        family, spec, _schedule_for(config, config.lambda_grid),
        _branches_for(config, family),
        opt, seed,
    )
    write_merge_history(
        result.merge_history,
        out_dir / f"merge_history_{method}_seed{seed}.csv",
        out_dir / f"merge_history_{method}_seed{seed}.json",
    )
    return result.final_params, result.total_psearch_evals


def _stl_row_specs(
    config: ExperimentConfig, family: TaskFamily, spec: ModelSpec, seed: int,
) -> list[tuple[int, str, str, float, float | None]]:
    """One single-task model per task, trained in lockstep, so per-task rows
    are true single-task references rather than read-outs of untrained heads."""
    tasks, target = family.task_ids, family.target_id
    trained = run_single_task(family, spec, tasks, config.total_steps,
                              opt_config_for(config), seed)
    rows = [(task_id, "test", perf.metric, _scaled(perf), None)
            for task_id, (_, perf) in zip(tasks, trained)]
    target_model = SharedHeadModel(spec, trained[tasks.index(target)][0])
    val_perf = nn.evaluate(target_model, family.val(target), target)
    return rows + [(target, "val", val_perf.metric, _scaled(val_perf), None)]


def _atl_row_specs(
    family: TaskFamily,
    spec: ModelSpec,
    params: np.ndarray,
    seed: int,
    stl_target: Mapping[int, float],
) -> list[tuple[int, str, str, float, float | None]]:
    model = SharedHeadModel(spec, params)
    target = family.target_id
    rows = []
    for task_id in family.task_ids:
        perf = nn.evaluate(model, family.test(task_id), task_id)
        value = _scaled(perf)
        tg = value - stl_target[seed] if (task_id == target
                                          and seed in stl_target) else None
        rows.append((task_id, "test", perf.metric, value, tg))
    val_perf = nn.evaluate(model, family.val(target), target)
    rows.append((target, "val", val_perf.metric, _scaled(val_perf), None))
    return rows


def run_experiment(
    config: ExperimentConfig,
    output_dir: str | os.PathLike | None = None,
) -> list[ResultRecord]:
    """Execute the configured method for every seed.

    The resolved output directory (argument, then the environment variable,
    then the config field) receives an echo of the effective config, named
    after the method so that every method run into one dir keeps its own, the
    incrementally appended records CSV, and per-seed merge histories for the
    fork/merge methods. A diverged seed is recorded as a NaN row and the run
    moves on to the next seed.

    A dir that already holds records is resumed: (method, seed) jobs whose
    rows are complete there are skipped, and a skipped single-task job still
    supplies its seed's target value for transfer gain. Only the records
    written by this call are returned.
    """
    out_dir = Path(
        output_dir or os.environ.get(OUTPUT_DIR_ENV) or config.output_dir
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = replace(config, output_dir=str(out_dir))
    (out_dir / CONFIG_ECHO_FILENAME.format(method=config.method)).write_text(
        config_to_text(echo), encoding="utf-8"
    )

    path = out_dir / RECORDS_FILENAME
    finished = _finished_jobs(path)
    done = {(rows[0].method, rows[0].seed): rows for rows in finished}
    writer = _RecordWriter(path, [r for rows in finished for r in rows])
    records: list[ResultRecord] = []
    stl_target: dict[int, float] = {}

    # a data_dir family serves every seed: it and its spec load once per run
    @functools.lru_cache(maxsize=1)
    def family_and_spec(seed: int | None) -> tuple[TaskFamily, ModelSpec]:
        family = family_for_seed(config, seed)
        return family, model_spec_for(config, family)

    def one_job(method: str, seed: int):
        family, spec = family_and_spec(None if config.data_dir else seed)
        start = time.perf_counter()
        try:
            if method == "stl":
                row_specs, psearch = _stl_row_specs(config, family, spec,
                                                    seed), 0
            else:
                params, psearch = _run_method(
                    config, method, family, spec, seed, out_dir
                )
                row_specs = _atl_row_specs(family, spec, params, seed,
                                           stl_target)
        except NonFiniteError:
            wall = time.perf_counter() - start
            rows = [ResultRecord(
                method, seed, family.target_id, "test", "accuracy",
                float("nan"), None, 0, wall,
            )]
        else:
            wall = time.perf_counter() - start
            rows = [
                ResultRecord(method, seed, task_id, split, metric, value, tg,
                             psearch, wall)
                for task_id, split, metric, value, tg in row_specs
            ]
        for row in rows:
            records.append(row)
            writer.append(row)
        return rows

    jobs = [(config.method, seed) for seed in config.seeds]
    if config.method != "stl" and config.compute_tg:
        jobs = [("stl", seed) for seed in config.seeds] + jobs
    try:
        for method, seed in jobs:
            rows = done.get((method, seed)) or one_job(method, seed)
            value = _target_test_value(rows) if method == "stl" else None
            if value is not None:
                stl_target[seed] = value
    finally:
        writer.close()
    return records


# -- aggregation -------------------------------------------------------------

def read_records(path) -> list[ResultRecord]:
    """Parse a records CSV. Rows are appended whole and newline-terminated,
    so a last row without its newline was cut off mid-write: it is skipped
    with a note on stderr. Any other malformed row raises."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        text = handle.read()
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != list(RECORD_COLUMNS):
        raise ValueError(
            f"{path}: unexpected records header {reader.fieldnames}"
        )
    rows = [(reader.line_num, row) for row in reader]
    if rows and not text.endswith("\n"):
        line, _ = rows.pop()
        print(f"auxlab: {path}: skipping incomplete last row (line {line})",
              file=sys.stderr)
    records = []
    for line, row in rows:
        try:
            records.append(ResultRecord(
                method=row["method"],
                seed=int(row["seed"]),
                task_id=int(row["task_id"]),
                split=row["split"],
                metric=row["metric"],
                value=float(row["value"]),
                tg=float(row["tg"]) if row["tg"] else None,
                psearch_evals=int(row["psearch_evals"]),
                wall_s=float(row["wall_s"]),
            ))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: line {line}: malformed record: {exc}") from exc
    return records


def aggregate(
    records: Iterable[ResultRecord],
    want_delta_m: bool = True,
    signs: Sequence[int] | None = None,
    target_id: int = 0,
) -> dict[str, dict]:
    """Per-method summary over seeds: mean/std of the target test value, gain
    statistics, per-task means, and the signed average relative improvement
    over the single-task rows (in percent). Record order never matters."""
    rows = [r for r in records if r.split == "test" and not math.isnan(r.value)]
    if not rows:
        raise ValueError("no finite test records to aggregate")
    methods = sorted({r.method for r in rows})
    if want_delta_m and "stl" not in methods:
        raise ValueError(
            "relative-improvement summary requested but no stl records present"
        )

    per_task_mean: dict[str, dict[int, float]] = {}
    summary: dict[str, dict] = {}
    for method in methods:
        mine = [r for r in rows if r.method == method]
        by_task: dict[int, list[float]] = {}
        for r in sorted(mine, key=lambda r: (r.task_id, r.seed)):
            by_task.setdefault(r.task_id, []).append(r.value)
        per_task_mean[method] = {
            t: statistics.fmean(vs) for t, vs in by_task.items()
        }
        target_vals = sorted(by_task.get(target_id, ()))
        gains = sorted(r.tg for r in mine
                       if r.task_id == target_id and r.tg is not None)
        summary[method] = {
            "n_seeds": len(target_vals),
            "target_mean": statistics.fmean(target_vals) if target_vals else None,
            "target_std": (statistics.stdev(target_vals)
                           if len(target_vals) > 1 else 0.0),
            "tg_mean": statistics.fmean(gains) if gains else None,
            "tg_median": statistics.median(gains) if gains else None,
            "per_task_mean": per_task_mean[method],
        }

    if want_delta_m:
        base = per_task_mean["stl"]
        tasks = sorted(base)
        z = tuple(signs) if signs is not None else tuple(0 for _ in tasks)
        for method in methods:
            mine = per_task_mean[method]
            if sorted(mine) != tasks:
                raise ValueError(
                    f"{method}: task set {sorted(mine)} does not match stl {tasks}"
                )
            frac = delta_m([base[t] for t in tasks], [mine[t] for t in tasks], z)
            summary[method]["delta_m_pct"] = 100.0 * frac
    return summary


def write_summary(summary: Mapping[str, dict], csv_path, json_path) -> None:
    columns = ("method", "n_seeds", "target_mean", "target_std", "tg_mean",
               "tg_median", "delta_m_pct")
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for method in sorted(summary):
            stats = summary[method]
            writer.writerow([method] + [
                "" if stats.get(c) is None else stats.get(c)
                for c in columns[1:]
            ])
    payload = {
        method: {
            **{k: v for k, v in stats.items() if k != "per_task_mean"},
            "per_task_mean": {str(t): v
                              for t, v in stats["per_task_mean"].items()},
        }
        for method, stats in summary.items()
    }
    Path(json_path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- analysis sweeps ---------------------------------------------------------

def run_tg_gcs_sweep(
    family: TaskFamily,
    model_spec: ModelSpec,
    warm_steps: int,
    lambdas: Sequence[float],
    n_points: int,
    opt_cfg: OptConfig,
    seed: int,
    probe_lr: float = 0.01,
) -> list[SweepRow]:
    """Warm a single-task model, then probe one-step gains and gradient
    cosines around it."""
    params, _ = run_stl(family, model_spec, warm_steps, opt_cfg, seed)
    model = SharedHeadModel(model_spec, params)
    return one_step_tg_gcs_sweep(
        model, family, lambdas, n_points, RngStream(seed).child("sweep"),
        lr=probe_lr, batch_size=opt_cfg.batch_size,
    )


def write_sweep_rows(rows: Sequence[tuple[int, SweepRow]], path) -> None:
    """Write (seed, sweep row) pairs, one CSV row each."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("seed", "point_id", "lambda", "gcs", "tg"))
        for seed, row in rows:
            writer.writerow(
                (seed, row.point_id, repr(row.lam), repr(row.gcs), repr(row.tg))
            )


def run_csd_lambda_sweep(
    relatedness: float,
    lambdas: Sequence[float],
    seeds: Sequence[int],
    train_steps: int,
    opt_cfg: OptConfig,
    n_classes: int = 4,
    input_dim: int = 2,
    n_train: int = 2000,
    n_val: int = 500,
    noise_std: float = 0.5,
    mean_scale: float = 2.0,
) -> list[tuple[int, float, float]]:
    """Train target-head models on data mixed with the auxiliary distribution
    at each rate and measure the confidence drop back on clean target data.

    Returns (seed, mixing rate, confidence discrepancy) rows.
    """
    results = []
    for seed in seeds:
        family = generate_family(TaskFamilyConfig(
            n_tasks=2, relatedness=(relatedness,), input_dim=input_dim,
            n_classes=n_classes, n_train=n_train, n_val=n_val, n_test=1,
            noise_std=noise_std, mean_scale=mean_scale, seed=seed,
        ))
        root = RngStream(seed)
        spec = ModelSpec(input_dim, (16,), "tanh", {0: HeadSpec(n_classes)})
        init = nn.init_params(spec, root.child("csd", "init"))
        for lam in lambdas:
            mixed = sample_interpolated(
                family.train(0), family.train(1), lam, len(family.train(0)),
                root.child("csd", "mix", str(lam)),
            )
            one_task = replace(family, splits={0: {**family.splits[0], "train": mixed}})
            [params] = train_branches(
                init.params, [BranchSpec(TaskWeighting({0: 1.0}), 0)], train_steps,
                one_task, spec, opt_cfg.state_at(len(init.params), train_steps),
                root.child("csd", "train", str(lam)), opt_cfg.batch_size,
            )
            value = csd(init.with_params(params), family.val(0), 0)
            results.append((seed, float(lam), value))
    return results


def write_csd_rows(rows: Sequence[tuple[int, float, float]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("seed", "lambda", "csd"))
        for seed, lam, value in rows:
            writer.writerow((seed, repr(lam), repr(value)))
