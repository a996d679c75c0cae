"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a tiny round of real auxlab commands (a few seconds), requires every
check to pass on its outputs, then corrupts one output file at a time in a
copy of the round and requires the check that guards that property to fail.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

from checks import check_round, fingerprint, nearest_centroid_acc
from run import ROOT, SRC, Launcher, set_up
from workloads import Report, Run, Sweep, op_argv

FAMILY = ["--seed", "0", "--n-tasks", "3", "--relatedness", "0.8,0.2",
          "--n-train", "300", "--n-val", "200", "--n-test", "400"]


def tiny_ops(data_dir: str) -> list:
    family = {"n_tasks": 3, "relatedness": "0.8,0.2", "data_dir": data_dir,
              "total_steps": 200, "compute_tg": "false"}
    return [
        Run("grid", {**family, "method": "forkmerge", "seeds": 0, "merge_interval": 50,
                     "lambda_grid": "0,0.5,1"}),
        Run("greedy", {**family, "method": "forkmerge_multi", "seeds": 0,
                       "merge_interval": 80, "search_strategy": "greedy"}),
        Run("study", {**family, "method": "ew", "seeds": "0,1", "compute_tg": "true"}),
        Run("study", {**family, "method": "gcs", "seeds": "0,1"}),
        Sweep("tg-gcs", "tg_gcs.csv", (0,), (0.0, 0.5, 1.0), ("--warm-steps", "20"), points=3),
        Sweep("csd-lambda", "csd.csv", (0,), (0.0, 1.0), ("--train-steps", "20")),
        Report("study"),
    ]


def edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload["rounds"])
    path.write_text(json.dumps(payload), encoding="utf-8")


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def first(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def _bump_coeff(rounds):
    rounds[0]["merge_coeffs"]["0"] += 0.5


def _regress(rounds):
    rounds[0]["chosen_perf"] = rounds[0]["target_only_perf"] - 0.01


def _extra_eval(rounds):
    rounds[0]["psearch_evals"] += 1


def _shift_tg(rows):
    row = next(r for r in rows if r["tg"])
    row["tg"] = repr(float(row["tg"]) + 1.0)


def _drop_target(rows):
    first(rows, method="gcs", task_id="0", split="test")["value"] = "50.0"


def _more_seeds(rows):
    first(rows, method="ew")["n_seeds"] = "3"


def _zero_lambda_gain(rows):
    first(rows, **{"lambda": "0.0"})["tg"] = "0.001"


def _gcs_out_of_range(rows):
    rows[-1]["gcs"] = "1.5"


def _csd_out_of_range(rows):
    rows[-1]["csd"] = "0.9"


# (check that must fail, file in the round, how to corrupt it)
CORRUPTIONS = [
    ("coeffs", "grid/merge_history_forkmerge_seed0.json", lambda p: edit_json(p, _bump_coeff)),
    ("non_regression", "grid/merge_history_forkmerge_seed0.json", lambda p: edit_json(p, _regress)),
    ("search_evals", "greedy/merge_history_forkmerge_multi_seed0.json",
     lambda p: edit_json(p, _extra_eval)),
    ("rounds", "grid/merge_history_forkmerge_seed0.json", lambda p: edit_json(p, list.pop)),
    ("records", "study/records.csv", lambda p: edit_csv(p, lambda rows: rows.append(rows[-1]))),
    ("tg", "study/records.csv", lambda p: edit_csv(p, _shift_tg)),
    ("nc_margin", "study/records.csv", lambda p: edit_csv(p, _drop_target)),
    ("summary", "study/summary.csv", lambda p: edit_csv(p, _more_seeds)),
    ("sweep", "tg_gcs.csv", lambda p: edit_csv(p, _zero_lambda_gain)),
    ("sweep", "tg_gcs.csv", lambda p: edit_csv(p, _gcs_out_of_range)),
    ("sweep", "csd.csv", lambda p: edit_csv(p, _csd_out_of_range)),
    ("readable", "csd.csv", Path.unlink),
]


def main() -> int:
    if not (SRC / "auxlab" / "cli.py").is_file():
        sys.exit(f"no auxlab sources at {SRC}")
    work = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher(work)
    data_dir, _ = set_up(launcher, FAMILY, 1)
    nc_acc = nearest_centroid_acc(data_dir)
    ops = tiny_ops(str(data_dir))
    clean = work / "clean"
    clean.mkdir()
    for op in ops:
        if launcher.auxlab(op_argv(op, clean)).code != 0:
            sys.exit(f"auxlab failed; see {launcher.log}")
    failures = check_round(ops, clean, data_dir, nc_acc)
    if failures:
        sys.exit(f"checks fail on clean outputs: {failures}")
    print(f"clean round: every check passes (nearest-centroid {nc_acc:.1f}%)")

    missed = 0
    for i, (check, name, corrupt) in enumerate(CORRUPTIONS):
        copy = work / f"corrupt{i}"
        shutil.copytree(clean, copy)
        corrupt(copy / name)
        caught = {c for c, _ in check_round(ops, copy, data_dir, nc_acc)}
        ok = check in caught
        missed += not ok
        print(f"{'caught' if ok else 'MISSED'}: [{check}] after corrupting {name}"
              f" (failing checks: {sorted(caught)})")
    shifted_tg = work / f"corrupt{[c for c, _, _ in CORRUPTIONS].index('tg')}"
    if fingerprint(ops, clean) == fingerprint(ops, shifted_tg):
        missed += 1
        print("MISSED: [repeat] a changed record leaves the round fingerprint unchanged")
    else:
        print("caught: [repeat] a changed record changes the round fingerprint")
    print("self-test", "failed" if missed else "passed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
