"""Output checks made apart from the program.

Every check reads the files a round wrote and tests them against a property
the method must have or against a value the benchmark recomputes itself
(from `records.csv`, or with numpy from the family's CSV files). None of them
imports auxlab. Each failure is returned as a (check name, message) pair so
that the self-test can tell which check caught a corrupted file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import N_CLASSES, Report, Run, Sweep

# A nearest-centroid classifier is close to Bayes-optimal on these isotropic
# Gaussian mixtures, so a trained model's target test accuracy should land
# within this many points of it, above or below.
NC_MARGIN_POINTS = 3.0

# `auxlab run` defaults for the keys the checks read (README config table).
RUN_DEFAULTS = {
    "total_steps": 2000,
    "merge_interval": 500,
    "lambda_grid": "0.0,0.2,0.4,0.6,0.8,1.0",
    "search_strategy": "grid",
    "compute_tg": "true",
}

TARGET = 0


def _setting(config: dict, key: str):
    return config.get(key, RUN_DEFAULTS.get(key))


def _seeds(config: dict) -> list[int]:
    return [int(s) for s in str(config["seeds"]).split(",")]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def nearest_centroid_acc(data_dir: Path) -> float:
    """Target test accuracy in percent of class centroids fitted on the train CSV."""
    train = np.loadtxt(data_dir / f"task{TARGET}_train.csv", delimiter=",", skiprows=1)
    test = np.loadtxt(data_dir / f"task{TARGET}_test.csv", delimiter=",", skiprows=1)
    classes = np.unique(train[:, -1])
    centroids = np.stack([train[train[:, -1] == c, :-1].mean(axis=0) for c in classes])
    dist = ((test[:, None, :-1] - centroids[None]) ** 2).sum(axis=2)
    return 100.0 * float(np.mean(classes[dist.argmin(axis=1)] == test[:, -1]))


def _check_records(runs: list[Run], rows: list[dict], nc_acc: float) -> list:
    fails = []
    expected = set()
    for run in runs:
        cfg = run.config
        methods = [cfg["method"]]
        if cfg["method"] != "stl" and _setting(cfg, "compute_tg") == "true":
            methods.append("stl")
        for method in methods:
            for seed in _seeds(cfg):
                expected |= {(method, seed, t, "test") for t in range(cfg["n_tasks"])}
                expected.add((method, seed, TARGET, "val"))
    keys = [(r["method"], int(r["seed"]), int(r["task_id"]), r["split"]) for r in rows]
    if sorted(keys) != sorted(expected):
        fails.append(("records", f"{len(keys)} records with keys other than one per"
                      f" (method, seed, task, split) of {len(expected)} expected"))

    stl = {int(r["seed"]): float(r["value"]) for r in rows
           if r["method"] == "stl" and int(r["task_id"]) == TARGET and r["split"] == "test"}
    wants_tg = {run.config["method"] for run in runs
                if _setting(run.config, "compute_tg") == "true"} - {"stl"}
    for r in rows:
        is_target_test = int(r["task_id"]) == TARGET and r["split"] == "test"
        if r["tg"]:
            seed = int(r["seed"])
            if not is_target_test or seed not in stl:
                fails.append(("tg", f"tg on a row with no stl reference: {r}"))
            elif float(r["tg"]) != float(r["value"]) - stl[seed]:
                fails.append(("tg", f"{r['method']} seed {seed}: tg {r['tg']} !="
                              f" {r['value']} - stl {stl[seed]!r}"))
        elif is_target_test and r["method"] in wants_tg:
            fails.append(("tg", f"{r['method']} seed {r['seed']}: tg missing"))
        if is_target_test and not abs(float(r["value"]) - nc_acc) <= NC_MARGIN_POINTS:
            fails.append(("nc_margin", f"{r['method']} seed {r['seed']}: target test"
                          f" accuracy {r['value']} is more than {NC_MARGIN_POINTS}"
                          f" points from nearest-centroid {nc_acc:.2f}"))
    return fails


def _check_history(run: Run, out_dir: Path, rows: list[dict]) -> list:
    cfg = run.config
    method = cfg["method"]
    grid = str(_setting(cfg, "lambda_grid")).split(",")
    n_branches = cfg["n_tasks"] if method == "forkmerge_multi" else 2
    if n_branches > 2:
        per_round = (n_branches - 1) * len(grid) + n_branches  # greedy
    elif _setting(cfg, "search_strategy") == "grid":
        per_round = len(grid)
    else:
        raise ValueError(f"no expected search cost for {cfg}")
    n_rounds = math.ceil(int(_setting(cfg, "total_steps"))
                         / int(_setting(cfg, "merge_interval")))
    fails = []
    for seed in _seeds(cfg):
        stem = out_dir / f"merge_history_{method}_seed{seed}"
        tag = f"{method} seed {seed}"
        rounds = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))["rounds"]
        candidates = read_csv(stem.with_suffix(".csv"))
        if len(rounds) != n_rounds:
            fails.append(("rounds", f"{tag}: {len(rounds)} rounds, expected {n_rounds}"))
        for rnd in rounds:
            coeffs = [float(c) for c in rnd["merge_coeffs"].values()]
            if len(coeffs) != n_branches or min(coeffs) < 0 or abs(math.fsum(coeffs) - 1) > 1e-9:
                fails.append(("coeffs", f"{tag} round {rnd['round']}: coefficients {coeffs}"))
            if rnd["chosen_perf"] < rnd["target_only_perf"]:
                fails.append(("non_regression", f"{tag} round {rnd['round']}: chosen"
                              f" {rnd['chosen_perf']} < target-only {rnd['target_only_perf']}"))
            scores = [float(c["val_perf"]) for c in candidates
                      if int(c["round"]) == rnd["round"]]
            if not scores or rnd["chosen_perf"] != max(scores):
                fails.append(("non_regression", f"{tag} round {rnd['round']}: chosen"
                              f" {rnd['chosen_perf']} is not the best candidate score"))
            if rnd["psearch_evals"] != per_round or len(scores) != per_round:
                fails.append(("search_evals", f"{tag} round {rnd['round']}:"
                              f" {rnd['psearch_evals']} evaluations, {len(scores)}"
                              f" candidates, expected {per_round}"))
        spent = {int(r["psearch_evals"]) for r in rows
                 if r["method"] == method and int(r["seed"]) == seed}
        if spent != {sum(r["psearch_evals"] for r in rounds)}:
            fails.append(("search_evals", f"{tag}: records say {spent} evaluations"))
    return fails


def _check_sweep(sweep: Sweep, round_dir: Path) -> list:
    rows = read_csv(round_dir / sweep.out)
    fails = []
    if sweep.kind == "tg-gcs":
        expected = sweep.points * len(sweep.lambdas)
        for r in rows:
            if float(r["lambda"]) == 0.0 and float(r["tg"]) != 0.0:
                fails.append(("sweep", f"tg-gcs point {r['point_id']}: tg {r['tg']} at lambda 0"))
            if not -1.0 <= float(r["gcs"]) <= 1.0:
                fails.append(("sweep", f"tg-gcs point {r['point_id']}: gcs {r['gcs']}"))
    else:
        expected = len(sweep.seeds) * len(sweep.lambdas)
        top = 1.0 - 1.0 / N_CLASSES
        for r in rows:
            if not 0.0 <= float(r["csd"]) <= top:
                fails.append(("sweep", f"csd seed {r['seed']} lambda {r['lambda']}:"
                              f" {r['csd']} outside [0, {top}]"))
    if len(rows) != expected:
        fails.append(("sweep", f"{sweep.kind}: {len(rows)} rows, expected {expected}"))
    return fails


def _check_summary(records_dir: Path) -> list:
    targets: dict[str, list[float]] = {}
    for r in read_csv(records_dir / "records.csv"):
        value = float(r["value"])
        if int(r["task_id"]) == TARGET and r["split"] == "test" and not math.isnan(value):
            targets.setdefault(r["method"], []).append(value)
    summary = {r["method"]: r for r in read_csv(records_dir / "summary.csv")}
    if sorted(summary) != sorted(targets):
        return [("summary", f"methods {sorted(summary)} != {sorted(targets)}")]
    fails = []
    for method, values in targets.items():
        mean = math.fsum(values) / len(values)
        got = summary[method]
        if int(got["n_seeds"]) != len(values) or abs(float(got["target_mean"]) - mean) > 1e-9:
            fails.append(("summary", f"{method}: n_seeds {got['n_seeds']} target_mean"
                          f" {got['target_mean']}, recomputed {len(values)} and {mean!r}"))
    return fails


def check_round(ops: list, round_dir: Path, data_dir: Path, nc_acc: float) -> list:
    """Every check that applies to one round's outputs; [] when all pass."""
    fails = []
    by_dir: dict[str, list[Run]] = {}
    for op in ops:
        if isinstance(op, Run):
            by_dir.setdefault(op.out, []).append(op)
    try:
        for out, runs in by_dir.items():
            rows = read_csv(round_dir / out / "records.csv")
            fails += _check_records(runs, rows, nc_acc)
            for run in runs:
                if run.config["method"].startswith("forkmerge"):
                    fails += _check_history(run, round_dir / out, rows)
        for op in ops:
            if isinstance(op, Sweep):
                fails += _check_sweep(op, round_dir)
            elif isinstance(op, Report):
                fails += _check_summary(round_dir / op.records)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        fails.append(("readable", f"{type(exc).__name__}: {exc}"))
    return fails


def target_accuracies(ops: list, round_dir: Path) -> list[float]:
    """Target-task test accuracy of every (method, seed) job, in percent."""
    values = []
    for out in dict.fromkeys(op.out for op in ops if isinstance(op, Run)):
        values += [float(r["value"]) for r in read_csv(round_dir / out / "records.csv")
                   if int(r["task_id"]) == TARGET and r["split"] == "test"]
    return values


def fingerprint(ops: list, round_dir: Path) -> str:
    """Digest of everything a round computed, leaving out its wall times."""
    digest = hashlib.sha256()
    for out in sorted({op.out for op in ops if isinstance(op, Run)}):
        for r in read_csv(round_dir / out / "records.csv"):
            digest.update(repr(sorted((k, v) for k, v in r.items() if k != "wall_s")).encode())
    for op in ops:
        if isinstance(op, Sweep):
            digest.update((round_dir / op.out).read_bytes())
    return digest.hexdigest()
