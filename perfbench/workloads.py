"""The benchmark's workloads: which family each writes with `auxlab gen-data`
and which `auxlab` commands one round of it runs.

A round is a fixed list of operations, each one `auxlab` command. Runs write
into the round's own fresh directory, because a second run into the same
output directory appends a second copy of every record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

N_CLASSES = 4  # gen-data's default; the checks need it for the CSD bound

FINE_GRID = tuple(round(0.05 * i, 2) for i in range(21))


@dataclass(frozen=True)
class Run:
    """`auxlab run` of `config`, writing into the sub-directory `out`."""

    out: str
    config: dict


@dataclass(frozen=True)
class Sweep:
    """`auxlab sweep <kind>` writing the CSV file `out`."""

    kind: str
    out: str
    seeds: tuple[int, ...]
    lambdas: tuple[float, ...]
    flags: tuple[str, ...]
    points: int = 0


@dataclass(frozen=True)
class Report:
    """`auxlab report` over the records of the run written into `records`."""

    records: str


@dataclass(frozen=True)
class Workload:
    name: str
    family: tuple[str, ...]  # gen-data flags besides --out and --seed
    ops: Callable[[int, str], list]  # (seed, data_dir) -> one round's operations


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _fork_multi5(seed: int, data_dir: str) -> list:
    return [Run("fm5", {
        "method": "forkmerge_multi",
        "seeds": seed,
        "n_tasks": 5,
        "relatedness": "0.9,0.6,0.3,0.0",
        "data_dir": data_dir,
        "search_strategy": "greedy",
        "compute_tg": "false",
    })]


def _merge_search(seed: int, data_dir: str) -> list:
    family = {"seeds": seed, "n_tasks": 4, "relatedness": "0.9,0.5,0.1",
              "data_dir": data_dir, "total_steps": 500, "compute_tg": "false"}
    return [
        Run("grid", {**family, "method": "forkmerge", "merge_interval": 25,
                     "search_strategy": "grid", "lambda_grid": _csv(FINE_GRID)}),
        Run("greedy", {**family, "method": "forkmerge_multi",
                       "merge_interval": 50, "search_strategy": "greedy"}),
    ]


def _baselines_study(seed: int, data_dir: str) -> list:
    family = {"seeds": _csv((seed, seed + 1, seed + 2)), "n_tasks": 3,
              "relatedness": "0.8,0.2", "data_dir": data_dir, "total_steps": 300}
    # `ew` with compute_tg writes the stl rows every other method is compared
    # with; the later methods append to the same records without re-running stl.
    return [
        Run("study", {**family, "method": "ew", "compute_tg": "true"}),
        Run("study", {**family, "method": "fixed_lambda", "lambda_grid": "0,0.5,1",
                      "compute_tg": "false"}),
        Run("study", {**family, "method": "gcs", "compute_tg": "false"}),
        Run("study", {**family, "method": "post_train", "pre_steps": 150,
                      "compute_tg": "false"}),
        Sweep("tg-gcs", "tg_gcs.csv", (seed,), (0.0, 0.25, 0.5, 0.75, 1.0),
              ("--n-tasks", "3", "--relatedness", "0.8,0.2", "--warm-steps", "200"),
              points=20),
        Sweep("csd-lambda", "csd.csv", (seed, seed + 1), (0.0, 0.25, 0.5, 0.75, 1.0),
              ("--relatedness", "0.5", "--train-steps", "200")),
        Report("study"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fork_multi5",
                 ("--n-tasks", "5", "--relatedness", "0.9,0.6,0.3,0.0"),
                 _fork_multi5),
        Workload("merge_search",
                 ("--n-tasks", "4", "--relatedness", "0.9,0.5,0.1",
                  "--n-val", "20000"),
                 _merge_search),
        Workload("baselines_study",
                 ("--n-tasks", "3", "--relatedness", "0.8,0.2"),
                 _baselines_study),
    )
}


def op_argv(op, round_dir) -> list[str]:
    """The `auxlab` arguments for one operation; writes a run's config file."""
    if isinstance(op, Run):
        cfg = round_dir / f"{op.out}_{op.config['method']}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in op.config.items()),
                       encoding="utf-8")
        return ["run", "--config", str(cfg), "--output-dir", str(round_dir / op.out)]
    if isinstance(op, Sweep):
        argv = ["sweep", op.kind, "--out", str(round_dir / op.out),
                "--seeds", _csv(op.seeds), "--lambdas", _csv(op.lambdas), *op.flags]
        return argv + (["--points", str(op.points)] if op.points else [])
    return ["report", "--records", str(round_dir / op.records)]
