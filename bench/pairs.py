"""Alternated paired runs of the benchmark on a base revision of this
repository and on its working tree.

    python3 bench/pairs.py --base REV --workload W --pairs N --seed K

Both sides are exported into a temporary directory, each as a fresh tree:
the base revision with `git archive`, and the change as the working tree
(its tracked files and its untracked files that git does not ignore). The
tool refuses to compare two trees whose `perfbench/` or `BENCHMARK.json`
differ, since then the two sides would not run the same benchmark.

Pair i, counted from 0, runs `perfbench/run.py --workload W --seed K+i
--seconds S --trace 0` once in each tree, where S is `BENCHMARK.json`'s
`run_seconds`, so both sides run as long as the benchmark does. The base
runs first in pairs 0, 2, 4, ... and second in the others. A run that is not correct, or that has a
failed operation, stops the comparison. Every run's end-to-end metrics are
printed as it finishes; at the end, per metric, both medians, the base's
interquartile range (IQR), the number of pairs the change won and the
`verdict`. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def wins(base: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better, "lower" or "higher"; a tie
    counts for neither side."""
    return sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))


def iqr(values: list[float]) -> float:
    """The distance between the quartiles of ``values``, interpolated as
    numpy's percentiles are by default."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The outcome of paired samples ``base[i]``, ``change[i]`` of one metric
    for which ``better`` is "lower" or "higher" and ``bound`` is the share of
    the base median by which the change's median may be worse.

    - "gain": at least ten pairs, the change wins at least 9 in 10 of them,
      and its median is better than the base's by more than the base IQR;
    - "worse": the change's median is worse by more than the bound;
    - "unresolved": the base IQR is wider than the bound, and not every
      change run is better than every base run;
    - "within bound": otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median, change_median = statistics.median(base), statistics.median(change)
    ahead = sign * (base_median - change_median)  # negative: the change is worse
    spread, allowed = iqr(base), bound * abs(base_median)
    if len(base) >= 10 and 10 * wins(base, change, better) >= 9 * len(base) \
            and ahead > spread:
        return "gain"
    if -ahead > allowed:
        return "worse"
    if spread > allowed and not all(sign * (b - c) > 0 for b in base for c in change):
        return "unresolved"
    return "within bound"


def export(base: str, dest: Path) -> None:
    """Write revision ``base`` of the repository into ``dest / "base"`` and
    its working tree into ``dest / "change"``."""
    (dest / "base").mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", base], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest / "base")], input=archive, check=True)
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
        stdout=subprocess.PIPE, check=True).stdout
    for name in filter(None, listed.split(b"\0")):
        source = ROOT / os.fsdecode(name)
        if source.is_file():  # not a tracked file deleted from the working tree
            target = dest / "change" / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def bench_files(tree: Path) -> dict[str, bytes]:
    """The contents of ``tree``'s `BENCHMARK.json` and of every file under
    its `perfbench/`, by path relative to the tree."""
    paths = [tree / "BENCHMARK.json", *(tree / "perfbench").rglob("*")]
    return {p.relative_to(tree).as_posix(): p.read_bytes() for p in paths
            if p.is_file() and "__pycache__" not in p.parts}


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metrics of one `perfbench/run.py` run in ``tree``; exits
    unless the run is correct with no failed operation."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    shutil.rmtree(tree / ".perfbench_out", ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{tree.name} seed {seed}: perfbench/run.py exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree.name} seed {seed}: correct={result['correct']},"
                 f" {result['failed']} of {result['attempted']} operations failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for a base IQR")

    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {"base": Path(scratch) / "base", "change": Path(scratch) / "change"}
        export(args.base, Path(scratch))
        base_files, change_files = (bench_files(tree) for tree in trees.values())
        if base_files != change_files:
            differ = sorted(name for name in base_files.keys() | change_files.keys()
                            if base_files.get(name) != change_files.get(name))
            sys.exit("the two sides run different benchmarks: " + ", ".join(differ))
        spec = json.loads(base_files["BENCHMARK.json"])
        seconds = spec["run_seconds"]
        samples: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                samples[side].append(run(trees[side], args.workload, seed, seconds))
                print(f"pair {i} seed {seed} {side:6s} " + " ".join(
                    f"{name}={value:.6g}" for name, value in samples[side][-1].items()),
                    flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, {seconds:g} s per run,"
          f" seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':12s} {'unit':5s} {'base median':>12s} {'change median':>14s}"
          f" {'base IQR':>10s} {'change won':>11s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [values[name] for values in samples["base"]]
        change = [values[name] for values in samples["change"]]
        won = f"{wins(base, change, metric['better'])} of {len(base)}"
        print(f"{name:12s} {metric['unit']:5s} {statistics.median(base):12.6g}"
              f" {statistics.median(change):14.6g} {iqr(base):10.4g} {won:>11s}  "
              + verdict(base, change, metric["better"], metric["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
