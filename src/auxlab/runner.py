"""Experiment orchestration: flat text configs, multi-seed runs with
crash-safe record appends, aggregation across seeds, and the two analysis
sweeps (one-step gain vs. gradient cosine, confidence drop vs. mixing rate).

Accuracy is recorded in percent so that gains read directly as points.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import statistics
import sys
import time
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence, get_type_hints

import numpy as np

try:
    import fcntl
except ImportError:  # no flock (Windows): runs into one dir are not serialized
    fcntl = None

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
    MergeRecord,
    MergeSchedule,
    check_branches,
    make_omega_branches,
    run_forkmerge,
    train_branches,
)
from .metrics import csd, delta_m, one_step_tg_gcs_sweep
from .nn import HeadSpec, ModelSpec
from .optim import OptConfig, TaskWeighting
from .tasks import (
    TaskFamily,
    TaskFamilyConfig,
    csv_text,
    generate_family,
    load_family,
    sample_interpolated,
    write_table,
)
from .vectors import NonFiniteError, RngStream, check_domains, within

__all__ = [
    "METHODS",
    "OUTPUT_DIR_ENV",
    "ConfigError",
    "ExperimentConfig",
    "RecordsError",
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
# the config keys, and CLI flags, that make up a task family
FAMILY_KEYS = tuple(f.name for f in fields(TaskFamilyConfig) if f.name != "seed")
# the config keys stl training reads, all that config_echo_stl.cfg must match
_STL_KEYS = (*FAMILY_KEYS, "data_seed", "data_dir", "hidden_dims", "activation",
             "total_steps", *(f.name for f in fields(OptConfig)))

OUTPUT_DIR_ENV = "AUXLAB_OUTPUT_DIR"
RECORDS_FILENAME = "records.csv"
TIMINGS_FILENAME = "timings.csv"
# seconds of wall clock per job and per fork/merge round; round is empty on a
# job's row
TIMING_COLUMNS = ("method", "seed", "round", "phase", "seconds")
CONFIG_ECHO_FILENAME = "config_echo_{method}.cfg"


class ConfigError(ValueError):
    """A config line failed to parse, a field failed validation, or the
    config cannot run against its data or output dir as they stand."""


class RecordsError(ValueError):
    """A records file auxlab cannot use as it stands: its header is not this
    version's, a row is malformed, or it holds a (method, seed) job twice."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, flat and fully defaulted except for
    the method and the seeds."""

    method: str = within(METHODS)
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
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    search_strategy: str = "grid"
    binary_iters: int = 5
    prune_to: int | None = None
    val_subsample: int | None = None
    branch_weights: tuple[tuple[float, ...], ...] = ()
    # post-train split (fine-tuning gets total_steps - pre_steps)
    pre_steps: int = within(">= 0", 1000)
    # bookkeeping
    compute_tg: bool = True
    output_dir: str = "results"

    def __post_init__(self):
        # text an echo line could not carry would read back as other text
        for key, value in vars(self).items():
            if isinstance(value, str) and (value != value.strip() or _COMMENT.search(value)
                                           or len(value.splitlines()) > 1):
                raise ConfigError(f"{key}: {value!r} cannot be echoed: it has a line break,"
                                  " leading or trailing whitespace, or # after whitespace")
        if not self.seeds:
            raise ConfigError("seeds: at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: a seed is repeated in {_dump(self.seeds)}")
        for row in self.branch_weights:
            if len(row) != self.n_tasks:
                raise ConfigError(
                    f"branch_weights: each branch needs {self.n_tasks} weights,"
                    f" got {len(row)}"
                )
        # its own domains first; the family, model, optimizer, schedule and branches own theirs
        try:
            check_domains(self)
            _settings_for(TaskFamilyConfig, self, seed=self.data_seed)
            model_spec_for(self)
            _settings_for(OptConfig, self)
            # fixed_lambda trains once per value of any grid of weights >= 0;
            # the merge search's grid rules bind the fork/merge methods only
            if self.method not in FORKMERGE_METHODS:
                _settings_for(MergeSchedule, self, lambda_grid=DEFAULT_LAMBDA_GRID)
            elif self.n_tasks < 2:
                raise ValueError(f"n_tasks: {self.method} needs an auxiliary task (>= 2)")
            else:
                schedule = _settings_for(MergeSchedule, self)
                try:
                    check_branches(_branches_for(self), schedule)
                except ValueError as exc:  # an explicit row is named by its key
                    key = "branch_weights: " if self.branch_weights else ""
                    raise ValueError(f"{key}{exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.method == "fixed_lambda" and min(self.lambda_grid, default=-1) < 0:
            raise ConfigError("lambda_grid: fixed_lambda needs one or more values >= 0")
        if self.method == "post_train" and self.pre_steps > self.total_steps:
            raise ConfigError("pre_steps: must not exceed total_steps")


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


# -- text codec: config values and record cells parse by their field's type --

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _tuple_of(parse, sep: str = ","):
    """A parser of ``sep``-separated ``parse`` values, blank text being ()."""
    def parse_tuple(text: str) -> tuple:
        return tuple(parse(part.strip()) for part in text.split(sep)) if text.strip() else ()
    return parse_tuple


def _optional(parse):
    """``parse``, with blank text or ``none`` read as None."""
    def parse_optional(text: str):
        return None if text.strip().lower() in ("", "none") else parse(text)
    return parse_optional


def _parse_counts(text: str) -> int | tuple[int, ...]:
    return _tuple_of(int)(text) if "," in text else int(text)


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


_TYPE_PARSERS = {
    str: str,
    int: int,
    float: float,
    bool: _parse_bool,
    tuple[int, ...]: _tuple_of(int),
    tuple[float, ...]: _tuple_of(float),
    tuple[tuple[float, ...], ...]: _tuple_of(_tuple_of(float), ";"),
    int | tuple[int, ...]: _parse_counts,
    int | None: _optional(int),
    float | None: _optional(float),
}
# each config key and record column parses by its field's type; a field of a
# type without a parser above fails at import
_PARSERS, _RECORD_PARSERS = (
    {key: _TYPE_PARSERS[hint] for key, hint in get_type_hints(cls).items()}
    for cls in (ExperimentConfig, ResultRecord))
RECORD_COLUMNS = tuple(_RECORD_PARSERS)
# a # at the start of a config line or after whitespace starts a comment
_COMMENT = re.compile(r"(?<!\S)#")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; a # at the start of a line or after
    whitespace starts a comment (one inside a value is kept); unknown keys
    are errors."""
    pairs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
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

def _settings_for(cls: type, config: ExperimentConfig, **given):
    """A ``cls`` (`TaskFamilyConfig`, `OptConfig` or `MergeSchedule`) whose
    fields take ``config``'s values of the same names, but for those ``given``."""
    return cls(**{f.name: getattr(config, f.name) for f in fields(cls)
                  if f.name not in given}, **given)


def family_for_seed(config: ExperimentConfig, seed: int) -> TaskFamily:
    """``seed``'s family, or the ``data_dir`` family, which serves every seed
    and raises ConfigError if the loader rejects it. No method reads an
    auxiliary task's val split, so that file is checked but not parsed."""
    if config.data_dir:
        try:
            return load_family(config.data_dir, config.n_tasks, config.input_dim,
                               config.n_classes)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"data_dir: {exc}") from exc
    return generate_family(_settings_for(TaskFamilyConfig, config,
                                         seed=config.data_seed + seed))


def model_spec_for(config: ExperimentConfig) -> ModelSpec:
    """One ``n_classes`` head per task of ``config``, as generated and loaded
    families have them, on a ``hidden_dims`` encoder."""
    heads = {t: HeadSpec(config.n_classes) for t in range(config.n_tasks)}
    return ModelSpec(config.input_dim, config.hidden_dims, config.activation, heads)


def output_dir_for(config: ExperimentConfig,
                   output_dir: str | os.PathLike | None = None) -> Path:
    """The directory a run writes into: ``output_dir`` if given, else the
    ``OUTPUT_DIR_ENV`` environment variable, else ``config.output_dir``."""
    return Path(output_dir or os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)


def _branches_for(config: ExperimentConfig) -> list[TaskWeighting]:
    """The fork/merge branches of ``config``; task 0 is the target."""
    if config.branch_weights:
        return [TaskWeighting(dict(enumerate(row))) for row in config.branch_weights]
    if config.method == "forkmerge_multi":
        return make_omega_branches(config.n_tasks - 1)
    # plain two-branch setup: target alone vs. everything at weight 1
    return [
        TaskWeighting({0: 1.0}),
        TaskWeighting({t: 1.0 for t in range(config.n_tasks)}),
    ]


def _finished_jobs(records: Sequence[ResultRecord],
                   path: Path) -> tuple[list[list[ResultRecord]], int]:
    """The rows of every (method, seed) job that ``records``, read from
    ``path``, hold in full, in order, and the count of rows left out. A job
    writes its rows together and ends with the target's val row, or, if it
    diverged, is one NaN row; rows that stop short of that belong to a job
    that did not finish and are left out. A job held in full twice, as two
    runs appending to one dir at once leave it, would count twice: that
    raises RecordsError naming it."""
    jobs: list[list[ResultRecord]] = []
    rows: list[ResultRecord] = []
    for record in records:
        if rows and (record.method, record.seed) != (rows[0].method, rows[0].seed):
            rows = []
        rows.append(record)
        if record.split == "val" or (len(rows) == 1 and math.isnan(record.value)):
            jobs.append(rows)
            rows = []
    keys = [(rows[0].method, rows[0].seed) for rows in jobs]
    twice = [f"{method} seed {seed}" for method, seed in dict.fromkeys(keys)
             if keys.count((method, seed)) > 1]
    if twice:
        raise RecordsError(f"{path}: holds job {', '.join(twice)} twice, as two runs"
                           " writing into one dir at once leave it; use a fresh output dir")
    return jobs, len(records) - sum(map(len, jobs))


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
) -> tuple[dict[int, np.ndarray], int, Sequence[MergeRecord]]:
    """Train one (method, seed) job; returns each task's final parameters,
    the number of validation evaluations the method spent on weight search,
    and the merge history of a fork/merge method, which is also written to
    ``out_dir``. ``stl`` trains one model per task, every other method one
    for all."""
    opt = _settings_for(OptConfig, config)
    total = config.total_steps
    tasks = family.task_ids
    if method == "stl":
        return dict(zip(tasks, run_single_task(family, spec, tasks, total, opt, seed))), 0, ()
    psearch, history = 0, ()
    if method == "ew":
        params = run_ew(family, spec, total, opt, seed)
    elif method == "fixed_lambda":
        params = run_fixed_lambda(family, spec, total, config.lambda_grid, opt, seed)
        psearch = len(config.lambda_grid)  # one validation evaluation per grid value
    elif method == "gcs":
        params = run_gcs_weighting(family, spec, total, opt, seed)
    elif method == "post_train":
        params = run_post_train(
            family, spec, config.pre_steps, total - config.pre_steps, opt, seed
        )
    else:  # forkmerge / forkmerge_multi
        params, history = run_forkmerge(
            family, spec, _settings_for(MergeSchedule, config), _branches_for(config),
            opt, seed,
        )
        _write_merge_history(history, out_dir / f"merge_history_{method}_seed{seed}.csv",
                             out_dir / f"merge_history_{method}_seed{seed}.json")
        psearch = sum(len(r.candidates) for r in history)
    return dict.fromkeys(tasks, params), psearch, history


def _write_merge_history(history: Sequence[MergeRecord], csv_path, json_path) -> None:
    """One CSV row per evaluated candidate, plus a JSON coefficient trajectory."""
    columns = ("round", "branch_id", "candidate_lambda_or_coeff", "val_perf", "chosen")
    write_table(csv_path, columns, zip(*[
        (record.round_index, cand.branch_id, cand.coeff, cand.perf.value, int(cand.chosen))
        for record in history for cand in record.candidates]))
    rounds = [{"round": r.round_index,
               "merge_coeffs": {str(k): v for k, v in r.merge_coeffs.items()},
               "target_only_perf": r.target_only_perf.value,
               "chosen_perf": r.chosen_perf.value,
               "surviving_branch_ids": list(r.surviving_branch_ids),
               "psearch_evals": len(r.candidates)} for r in history]
    Path(json_path).write_text(json.dumps({"rounds": rounds}, indent=2), encoding="utf-8")


def _job_records(
    config: ExperimentConfig,
    method: str,
    family: TaskFamily,
    spec: ModelSpec,
    seed: int,
    out_dir: Path,
    stl_value: float | None,
) -> tuple[list[ResultRecord], list[tuple]]:
    """Train and score one (method, seed) job: each task's test row, then the
    target's val row, accuracies in percent so that gains read as points; the
    target's test row carries its gain over ``stl_value``, the seed's stl
    score, if given. A job that diverges is one NaN row. Also returns the
    job's `TIMING_COLUMNS` rows: train, search and round seconds per
    fork/merge round, then the whole job's."""
    start = time.perf_counter()
    target = family.target_id
    try:
        params, psearch, history = _run_method(config, method, family, spec, seed, out_dir)
        scored = [(task_id, "test", nn.evaluate(spec, params[task_id],
                                                family.test(task_id), task_id))
                  for task_id in family.task_ids]
        scored.append((target, "val", nn.evaluate(spec, params[target],
                                                  family.val(target), target)))
    except NonFiniteError:  # a diverged job is one NaN row, with no gain
        psearch, history, scored = 0, (), [(target, "test", None)]
    wall = time.perf_counter() - start
    rows = []
    for task_id, split, perf in scored:
        if perf is None:
            metric, value, tg = "accuracy", math.nan, None
        else:
            metric = perf.metric
            value = 100.0 * perf.value if metric == "accuracy" else perf.value
            tg = (value - stl_value if (task_id, split) == (target, "test")
                  and stl_value is not None else None)
        rows.append(ResultRecord(method, seed, task_id, split, metric, value, tg, psearch))
    timings = [(method, seed, r.round_index, phase, seconds) for r in history
               for phase, seconds in (("train", r.train_s), ("search", r.search_s),
                                      ("round", r.wall_s))]
    return rows, timings + [(method, seed, None, "job", wall)]


def run_experiment(
    config: ExperimentConfig,
    output_dir: str | os.PathLike | None = None,
) -> list[ResultRecord]:
    """Execute the configured method for every seed.

    The output directory (see `output_dir_for`) receives an echo of the
    effective config, named after the method so that every method run into
    one dir keeps its own (and one of the stl references, if the run trains
    them), the incrementally appended records CSV, the timings CSV, and
    per-seed merge histories for the fork/merge methods. A diverged seed is
    recorded as a NaN row and the run moves on to the next seed.

    A dir that already holds records is resumed: (method, seed) jobs whose
    rows are complete there are skipped, and a skipped single-task job still
    supplies its seed's target value for transfer gain. Only the records
    written by this call are returned. A config that differs from the dir's
    echo of a method whose jobs it runs or skips (see `_echo_for`), a
    ``data_dir`` the loader rejects, or a dir another run holds (see
    `_sole_writer`) raises ConfigError before anything is written; the first
    two leave a missing dir uncreated.
    """
    out_dir = output_dir_for(config, output_dir)
    # raises ConfigError if an echo line cannot name the dir
    config = replace(config, output_dir=str(out_dir))
    # each seed's family is built once per run, however its jobs interleave
    # with other seeds'; a data_dir family serves every seed, and is loaded
    # before anything is written
    family_of = functools.lru_cache(maxsize=len(config.seeds))(
        functools.partial(family_for_seed, config))
    if config.data_dir:
        family_of(None)
    spec = model_spec_for(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _sole_writer(out_dir):
        path, timings_path = out_dir / RECORDS_FILENAME, out_dir / TIMINGS_FILENAME
        finished, dropped = (_finished_jobs(read_records(path), path) if path.exists()
                             else ([], 0))
        done = {(rows[0].method, rows[0].seed): rows for rows in finished}
        kept_timings = _kept_timings(timings_path, done)
        jobs = [(config.method, seed) for seed in config.seeds]
        if config.method != "stl" and config.compute_tg:
            jobs = [("stl", seed) for seed in config.seeds] + jobs
        # the method's own echo is checked first, then that of its stl references
        echoes = {method: _echo_for(config, method, out_dir,
                                    any(m == method for m, _ in done))
                  for method in dict.fromkeys(m for m, _ in reversed(jobs))}
        for method, echo in echoes.items():
            (out_dir / CONFIG_ECHO_FILENAME.format(method=method)).write_text(
                config_to_text(echo), encoding="utf-8")
        if dropped:
            print(f"auxlab: {path}: dropping {dropped} row(s) of unfinished jobs",
                  file=sys.stderr)
        # both files are made to hold exactly the finished jobs' rows, in order:
        # anything else (a torn tail, an unfinished job's rows) is dropped by an
        # atomic rewrite; then each job's rows are appended whole, its records
        # and then its timings, so a crash loses at most the job in flight
        _replace_text(path, csv_text(RECORD_COLUMNS,
                                     zip(*[astuple(r) for rows in finished for r in rows])))
        _replace_text(timings_path, kept_timings)
        records: list[ResultRecord] = []
        stl_target: dict[int, float | None] = {}
        with (open(path, "a", newline="", encoding="utf-8") as handle,
              open(timings_path, "a", newline="", encoding="utf-8") as timings):
            for method, seed in jobs:
                rows = done.get((method, seed))
                if rows is None:
                    rows, times = _job_records(config, method,
                                               family_of(None if config.data_dir else seed),
                                               spec, seed, out_dir, stl_target.get(seed))
                    handle.write(csv_text(None, zip(*map(astuple, rows))))
                    handle.flush()
                    timings.write(csv_text(None, zip(*times)))
                    timings.flush()
                    records += rows
                if method == "stl":  # None if the seed's stl job diverged
                    stl_target[seed] = _target_test_value(rows)
    return records


@contextlib.contextmanager
def _sole_writer(out_dir: Path):
    """Hold an exclusive flock on ``out_dir`` for the block, so runs into one
    dir take turns: one that finds it held raises ConfigError at once. The
    lock is on the directory's own descriptor, so no lock file joins the
    dir, and the kernel drops it when the process ends, so a crash leaves
    none behind. Without fcntl nothing is locked."""
    if fcntl is None:
        yield
        return
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"{out_dir}: output dir in use by another run;"
                              " wait for it to end or use another dir") from None
        yield
    finally:
        os.close(fd)


def _kept_timings(path: Path, done: Iterable[tuple[str, int]]) -> str:
    """The text of ``path``, a timings CSV, that a run keeps: the header and
    the whole rows of the (method, seed) jobs in ``done``. As in records, a
    last row without its newline was cut off mid-write and is dropped, and so
    are the rows of jobs that did not finish."""
    lines = path.read_text(encoding="utf-8").splitlines(True) if path.exists() else []
    jobs = tuple(f"{method},{seed}," for method, seed in done)
    return ",".join(TIMING_COLUMNS) + "\n" + "".join(
        line for line in lines[1:] if line.endswith("\n") and line.startswith(jobs))


def _replace_text(path: Path, text: str) -> None:
    """Make ``path`` hold ``text``, by an atomic rewrite if it differs."""
    if not path.exists() or path.read_text(encoding="utf-8") != text:
        partial = path.with_name(path.name + ".partial")
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, path)


def _echo_for(config: ExperimentConfig, method: str, out_dir: Path,
              has_rows: bool) -> ExperimentConfig:
    """The echo of ``method``'s rows that a run of ``config``, whose
    ``output_dir`` names ``out_dir``, writes there: ``config`` itself, or, for
    the stl references of another method, an stl config with ``config``'s
    ``_STL_KEYS``. An echo already there must match it in the keys that train
    those rows (``_STL_KEYS`` for stl, every key but ``seeds`` and
    ``output_dir`` otherwise; the dir may be spelled another way), and rows of
    ``method`` in the dir (``has_rows``) need an echo, or no echo would
    reproduce the dir's rows: ConfigError. The new echo then names the seeds
    of both."""
    echo = config if method == config.method else ExperimentConfig(
        method, config.seeds, output_dir=config.output_dir,
        **{key: getattr(config, key) for key in _STL_KEYS})
    path = out_dir / CONFIG_ECHO_FILENAME.format(method=method)
    if not path.exists():
        if has_rows:
            raise ConfigError(f"{path}: missing, but the dir holds {method} rows;"
                              " use a fresh output dir")
        return echo
    try:
        old = load_config(path)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    keys = _STL_KEYS if method == "stl" else [
        key for key in _PARSERS if key not in ("seeds", "output_dir")]
    differ = [key for key in keys if getattr(old, key) != getattr(echo, key)]
    if differ:
        raise ConfigError(
            f"{path}: the dir holds {method} rows of another config"
            f" (it differs in {', '.join(differ)}); use a fresh output dir"
        )
    return replace(echo, seeds=tuple(dict.fromkeys(old.seeds + echo.seeds)))


# -- aggregation -------------------------------------------------------------

def read_records(path) -> list[ResultRecord]:
    """Parse a records CSV. Rows are appended whole and newline-terminated,
    so a last row without its newline was cut off mid-write: it is skipped
    with a note on stderr. A file whose whole text is a prefix of the header
    was cut before any row, and holds none. A header of other columns, any
    other malformed row, or a job held twice (see `_finished_jobs`) raises
    RecordsError naming the file."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        text = handle.read()
    if ",".join(RECORD_COLUMNS).startswith(text):
        return []
    reader = csv.DictReader(io.StringIO(text), restval="")
    found = reader.fieldnames
    if found != list(RECORD_COLUMNS):
        differ = ([c for c in found if c not in RECORD_COLUMNS]
                  + [c for c in RECORD_COLUMNS if c not in found])
        raise RecordsError(
            f"{path}: unexpected records header: it differs from this auxlab"
            f" version's in {', '.join(differ) or 'column order'}; use a fresh output dir")
    rows = [(reader.line_num, row) for row in reader]
    if rows and not text.endswith("\n"):
        line, _ = rows.pop()
        print(f"auxlab: {path}: skipping incomplete last row (line {line})",
              file=sys.stderr)
    records = []
    for line, row in rows:
        try:
            if None in row:  # DictReader files cells past the header under None
                raise ValueError(f"{len(row[None])} cell(s) past the last column")
            records.append(ResultRecord(
                **{key: parse(row[key]) for key, parse in _RECORD_PARSERS.items()}))
        except ValueError as exc:
            raise RecordsError(f"{path}: line {line}: malformed record: {exc}") from exc
    _finished_jobs(records, path)  # raises if a job is held twice
    return records


def aggregate(records: Iterable[ResultRecord]) -> dict[str, dict]:
    """Per-method summary over seeds: mean/std of the target (task 0) test
    value, gain statistics, per-task means, and, when finite stl rows are
    present, the average relative improvement over them (``delta_m_pct``, in
    percent; every metric is larger-is-better). Record order never matters."""
    rows = [r for r in records if r.split == "test" and not math.isnan(r.value)]
    if not rows:
        raise ValueError("no finite test records to aggregate")
    methods = sorted({r.method for r in rows})

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
        target_vals = sorted(by_task.get(0, ()))
        gains = sorted(r.tg for r in mine if r.task_id == 0 and r.tg is not None)
        summary[method] = {
            "n_seeds": len(target_vals),
            "target_mean": statistics.fmean(target_vals) if target_vals else None,
            "target_std": (statistics.stdev(target_vals)
                           if len(target_vals) > 1 else 0.0),
            "tg_mean": statistics.fmean(gains) if gains else None,
            "tg_median": statistics.median(gains) if gains else None,
            "per_task_mean": per_task_mean[method],
        }

    if "stl" in methods:
        base = per_task_mean["stl"]
        tasks = sorted(base)
        for method in methods:
            mine = per_task_mean[method]
            if sorted(mine) != tasks:  # no like-for-like reference
                continue
            frac = delta_m([base[t] for t in tasks], [mine[t] for t in tasks],
                           [0] * len(tasks))
            summary[method]["delta_m_pct"] = 100.0 * frac
    return summary


def write_summary(summary: Mapping[str, dict], csv_path, json_path) -> None:
    columns = ("method", "n_seeds", "target_mean", "target_std", "tg_mean",
               "tg_median", "delta_m_pct")
    write_table(csv_path, columns, zip(*[[method, *map(summary[method].get, columns[1:])]
                                         for method in sorted(summary)]))
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
    config: ExperimentConfig,
    warm_steps: int,
    lambdas: Sequence[float],
    n_points: int,
) -> list[tuple[int, int, float, float, float]]:
    """For each seed of ``config``, warm a single-task model on the seed's
    family, then probe one-step gains and gradient cosines around it with
    steps of size 0.01. Returns (seed, point, lambda, cosine, gain) rows."""
    spec, opt = model_spec_for(config), _settings_for(OptConfig, config)
    rows = []
    for seed in config.seeds:
        family = family_for_seed(config, seed)
        params = run_stl(family, spec, warm_steps, opt, seed)
        rows += [(seed, row.point_id, row.lam, row.gcs, row.tg)
                 for row in one_step_tg_gcs_sweep(
                     spec, params, family, lambdas, n_points,
                     RngStream(seed).child("sweep"), lr=0.01,
                     batch_size=opt.batch_size)]
    return rows


def run_csd_lambda_sweep(
    config: ExperimentConfig,
    lambdas: Sequence[float],
    train_steps: int,
) -> list[tuple[int, float, float]]:
    """For each seed of ``config``, whose families have two tasks, train
    target-head models on target data mixed with the auxiliary distribution
    at each rate and measure the confidence drop back on clean target data.

    Returns (seed, mixing rate, confidence discrepancy) rows.
    """
    spec, opt = model_spec_for(config), _settings_for(OptConfig, config)
    results = []
    for seed in config.seeds:
        family = family_for_seed(config, seed)
        root = RngStream(seed)
        init = nn.init_params(spec, root.child("csd", "init"))
        for lam in lambdas:
            mixed = sample_interpolated(
                family.train(0), family.train(1), lam, len(family.train(0)),
                root.child("csd", "mix", str(lam)),
            )
            one_task = replace(family, splits={0: {**family.splits[0], "train": mixed}})
            [params] = train_branches(
                init, [TaskWeighting({0: 1.0})], range(train_steps),
                train_steps, one_task, spec, opt, root.child("csd", "train", str(lam)))
            value = csd(spec, params, family.val(0), 0)
            results.append((seed, float(lam), value))
    return results
