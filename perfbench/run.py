"""Benchmark auxlab end to end, through its command line, on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the auxlab package is taken from `src/`, as
`python3 -m auxlab.cli` with PYTHONPATH=src. Set-up writes the workload's
family with `auxlab gen-data` several times (each write is timed, and all
must produce the same files). The run then repeats whole rounds of the
workload's commands, each round in a fresh directory, starting rounds until
S seconds have passed (so the last round may end after S), checks every
round's outputs, and reports medians over rounds.

With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs one
untraced round, then one round with the span tracer installed in every auxlab
process, and prints the per-layer metrics from the traced round; the
difference between the two rounds' wall times is `trace.overhead_s`.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics named in BENCHMARK.json with their units. One
operation is one auxlab command. Work files go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_round, fingerprint, nearest_centroid_acc, target_accuracies
from tracer import summarize
from workloads import WORKLOADS, op_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7


@dataclass(frozen=True)
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def measured_env() -> tuple[dict, dict]:
    """Environment of every measured process, and the settings it fixes.

    BLAS threading stays at OpenBLAS's default, one thread per CPU the
    process may run on, but is set explicitly so that the caller's
    environment cannot change it. auxlab's own `--threads` is left at its
    default, which resolves to os.cpu_count().
    """
    blas = str(len(os.sched_getaffinity(0)))
    fixed = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": blas,
             "OMP_NUM_THREADS": blas, "MKL_NUM_THREADS": blas}
    env = {k: v for k, v in os.environ.items() if k != "AUXLAB_OUTPUT_DIR"}
    env.update(fixed)
    return env, fixed


class Launcher:
    """Starts auxlab commands one at a time and keeps the operation counts."""

    def __init__(self, work: Path):
        self.env, self.settings = measured_env()
        self.work = work
        self.log = work / "auxlab.log"
        self.attempted = 0
        self.failed = 0

    def auxlab(self, argv: list[str], spans: Path | None = None) -> Proc:
        if spans is None:
            cmd = [sys.executable, "-m", "auxlab.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "launch.py"), str(spans), *argv]
        self.attempted += 1
        with open(self.log, "a", encoding="utf-8") as log:
            log.write("$ auxlab " + " ".join(argv) + "\n")
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            print(f"auxlab {argv[0]} exited {proc.returncode}; see {self.log}", file=sys.stderr)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode)


@dataclass(frozen=True)
class Round:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failures: list
    fingerprint: str
    target_accs: list


def run_round(launcher: Launcher, ops: list, round_dir: Path, data_dir: Path,
              nc_acc: float, traced: bool) -> Round:
    round_dir.mkdir(parents=True)
    procs = [launcher.auxlab(op_argv(op, round_dir),
                             spans=round_dir / f"spans{i}.json" if traced else None)
             for i, op in enumerate(ops)]
    failures = check_round(ops, round_dir, data_dir, nc_acc)
    try:
        digest, accs = fingerprint(ops, round_dir), target_accuracies(ops, round_dir)
    except (OSError, KeyError, ValueError):
        digest, accs = "", []
    return Round(sum(p.wall_s for p in procs), sum(p.cpu_s for p in procs),
                 max(p.rss_mb for p in procs), failures, digest, accs)


def set_up(launcher: Launcher, family_argv: list[str], reps: int) -> tuple[Path, list[Proc]]:
    """Write the family `reps` times; every copy must match the first."""
    procs = []
    for i in range(reps):
        procs.append(launcher.auxlab(["gen-data", "--out", str(launcher.work / f"data{i}"),
                                      *family_argv]))
        if procs[-1].code != 0:
            sys.exit("set-up failed: auxlab gen-data did not complete")
    first = launcher.work / "data0"
    for i in range(1, reps):
        copy = launcher.work / f"data{i}"
        names = sorted(p.name for p in first.iterdir())
        _, mismatch, errors = filecmp.cmpfiles(first, copy, names, shallow=False)
        if mismatch or errors or sorted(p.name for p in copy.iterdir()) != names:
            sys.exit(f"set-up failed: gen-data wrote different files for the same seed: {mismatch}")
        shutil.rmtree(copy)
    return first, procs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "auxlab" / "cli.py").is_file():
        sys.exit(f"no auxlab sources at {SRC}: run from a checkout of the repository")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher(work)
    (work / "settings.json").write_text(json.dumps({
        **launcher.settings, "cpu_count": os.cpu_count(), "python": sys.version,
        "numpy": np.__version__, "auxlab_threads": "default (os.cpu_count())",
    }, indent=2), encoding="utf-8")
    print(f"{workload.name} seed {args.seed}: measured processes run with "
          + " ".join(f"{k}={v}" for k, v in launcher.settings.items() if k != "PYTHONPATH"),
          file=sys.stderr)

    family = ["--seed", str(args.seed), *workload.family]
    data_dir, setup = set_up(launcher, family, 1 if args.trace else SETUP_REPS)
    nc_acc = nearest_centroid_acc(data_dir)
    ops = workload.ops(args.seed, str(data_dir))

    start = time.perf_counter()
    rounds = [run_round(launcher, ops, work / "round0", data_dir, nc_acc, traced=False)]
    if args.trace:
        traced_gen = work / "gen_spans.json"
        launcher.auxlab(["gen-data", "--out", str(work / "data_traced"), *family],
                        spans=traced_gen)
        rounds.append(run_round(launcher, ops, work / "round1", data_dir, nc_acc, traced=True))
        metrics = summarize([traced_gen, *sorted((work / "round1").glob("spans*.json"))])
        metrics["trace.overhead_s"] = rounds[1].wall_s - rounds[0].wall_s
    else:
        while time.perf_counter() - start < args.seconds:
            rounds.append(run_round(launcher, ops, work / f"round{len(rounds)}", data_dir,
                                    nc_acc, traced=False))
        accs = rounds[0].target_accs
        metrics = {
            "run_s": statistics.median(r.wall_s for r in rounds),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "setup_s": statistics.median(p.wall_s for p in setup),
            "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
            "target_acc": sum(accs) / len(accs) if accs else 0.0,  # unreadable: not correct
        }

    failures = [f for r in rounds for f in r.failures]
    if len({r.fingerprint for r in rounds}) != 1:
        failures.append(("repeat", "rounds of the same seed computed different outputs"))
    for name, message in failures:
        print(f"CHECK FAILED [{name}] {message}", file=sys.stderr)
    for i, r in enumerate(rounds):
        print(f"round {i}: {r.wall_s:.3f} s wall, {r.cpu_s:.3f} s cpu, {r.rss_mb:.1f} MB,"
              f" {len(r.failures)} check failures")
    if set(metrics) != set(wanted):
        sys.exit(f"metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": not failures and launcher.failed == 0,
        "attempted": launcher.attempted,
        "failed": launcher.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
