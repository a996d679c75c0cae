"""Command-line front end.

Subcommands: ``gen-data`` writes a task family to CSV files, ``run`` executes
a config file, ``sweep`` runs the two analysis sweeps, ``report`` aggregates
a results directory. Exit codes: 0 on success, 1 for usage problems (bad
flags, missing or invalid config, nothing to report), 2 for runtime failures.
All diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .nn import HeadSpec, ModelSpec
from .optim import OptConfig
from .runner import (
    ConfigError,
    aggregate,
    load_config,
    read_records,
    run_csd_lambda_sweep,
    run_experiment,
    run_tg_gcs_sweep,
    write_csd_rows,
    write_summary,
    write_sweep_rows,
    RECORDS_FILENAME,
)
from .tasks import TaskFamilyConfig, generate_family, write_family

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or bad inputs the user can fix; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own failures to exit code 1
        raise UsageError(message)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in text.split(",") if p.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p.strip()) for p in text.split(",") if p.strip())


def _parse_counts(text: str):
    return _parse_int_list(text) if "," in text else int(text)


def _add_family_flags(parser: argparse.ArgumentParser, n_train_default="2000"):
    parser.add_argument("--n-tasks", type=int, default=2)
    parser.add_argument("--relatedness", default="0.5",
                        help="comma list, one value per auxiliary task")
    parser.add_argument("--input-dim", type=int, default=2)
    parser.add_argument("--n-classes", type=int, default=4)
    parser.add_argument("--n-train", default=n_train_default,
                        help="shared count, or comma list per task")
    parser.add_argument("--n-val", type=int, default=500)
    parser.add_argument("--n-test", type=int, default=1000)
    parser.add_argument("--noise-std", type=float, default=0.5)
    parser.add_argument("--mean-scale", type=float, default=2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="auxlab",
                     description="auxiliary-task learning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a task family to CSV files")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0)
    _add_family_flags(gen)

    run = sub.add_parser("run", help="execute a config file")
    run.add_argument("--config", required=True, help="path to a key=value file")
    run.add_argument("--output-dir", default=None,
                     help="overrides the config and the environment variable")
    run.add_argument("--threads", type=int, default=0,
                     help="accepted for compatibility and ignored: branches "
                          "train in lockstep on one thread")

    sweep = sub.add_parser("sweep", help="run an analysis sweep")
    sweep.add_argument("kind", choices=("tg-gcs", "csd-lambda"))
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seeds", default="0", help="comma list")
    sweep.add_argument("--lambdas", default="0,0.25,0.5,0.75,1.0")
    sweep.add_argument("--points", type=int, default=50,
                       help="tg-gcs: batch draws per weighting")
    sweep.add_argument("--warm-steps", type=int, default=300,
                       help="tg-gcs: single-task steps before probing")
    sweep.add_argument("--train-steps", type=int, default=300,
                       help="csd-lambda: steps per mixed training run")
    sweep.add_argument("--hidden", default="16", help="comma list of layer widths")
    sweep.add_argument("--lr", type=float, default=0.1)
    sweep.add_argument("--batch-size", type=int, default=64)
    _add_family_flags(sweep)

    rep = sub.add_parser("report", help="aggregate a results directory")
    rep.add_argument("--records", required=True,
                     help="directory containing records.csv")
    rep.add_argument("--out", default=None,
                     help="where to write summaries (default: records dir)")
    return parser


def _family_config(args, seed: int) -> TaskFamilyConfig:
    return TaskFamilyConfig(
        n_tasks=args.n_tasks,
        relatedness=_parse_float_list(args.relatedness),
        input_dim=args.input_dim,
        n_classes=args.n_classes,
        n_train=_parse_counts(args.n_train),
        n_val=args.n_val,
        n_test=args.n_test,
        noise_std=args.noise_std,
        mean_scale=args.mean_scale,
        seed=seed,
    )


def _cmd_gen_data(args) -> int:
    try:
        family = generate_family(_family_config(args, args.seed))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = write_family(family, out)
    print(f"wrote {len(paths)} files to {out}")
    return 0


def _cmd_run(args) -> int:
    path = Path(args.config)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        config = load_config(path)
    except ConfigError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    records = run_experiment(config, output_dir=args.output_dir)
    out_dir = (args.output_dir or os.environ.get("AUXLAB_OUTPUT_DIR")
               or config.output_dir)
    print(f"wrote {len(records)} records to {Path(out_dir) / RECORDS_FILENAME}")
    return 0


def _cmd_sweep(args) -> int:
    seeds = _parse_int_list(args.seeds)
    lambdas = _parse_float_list(args.lambdas)
    if not seeds or not lambdas:
        raise UsageError("--seeds and --lambdas must be non-empty")
    opt = OptConfig(base_lr=args.lr, batch_size=args.batch_size)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "tg-gcs":
        hidden = _parse_int_list(args.hidden)
        rows = []
        for seed in seeds:
            try:
                family = generate_family(_family_config(args, seed))
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            heads = {t: HeadSpec(family.n_classes) for t in family.task_ids}
            spec = ModelSpec(family.input_dim, hidden, "tanh", heads)
            rows += [(seed, row) for row in run_tg_gcs_sweep(
                family, spec, args.warm_steps, lambdas, args.points, opt, seed
            )]
        write_sweep_rows(rows, out)
    else:
        relatedness = _parse_float_list(args.relatedness)
        if len(relatedness) != 1:
            raise UsageError("csd-lambda expects exactly one relatedness value")
        n_train = _parse_counts(args.n_train)
        if not isinstance(n_train, int):
            raise UsageError("csd-lambda expects a single n-train count")
        rows = run_csd_lambda_sweep(
            relatedness[0], lambdas, seeds, args.train_steps, opt,
            n_classes=args.n_classes, input_dim=args.input_dim,
            n_train=n_train, n_val=args.n_val, noise_std=args.noise_std,
            mean_scale=args.mean_scale,
        )
        write_csd_rows(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_report(args) -> int:
    records_dir = Path(args.records)
    records_path = records_dir / RECORDS_FILENAME
    if not records_path.is_file():
        raise UsageError(f"no {RECORDS_FILENAME} in {records_dir}")
    records = read_records(records_path)
    if not records:
        raise UsageError(f"{records_path} contains no records")
    methods = {r.method for r in records}
    summary = aggregate(records, want_delta_m="stl" in methods)
    out = Path(args.out) if args.out else records_dir
    out.mkdir(parents=True, exist_ok=True)
    write_summary(summary, out / "summary.csv", out / "summary.json")

    trajectory_rows = []
    for history_path in sorted(records_dir.glob("merge_history_*.json")):
        payload = json.loads(history_path.read_text(encoding="utf-8"))
        for round_payload in payload["rounds"]:
            for branch_id, coeff in sorted(
                round_payload["merge_coeffs"].items(), key=lambda kv: int(kv[0])
            ):
                trajectory_rows.append((
                    history_path.stem, round_payload["round"], branch_id, coeff
                ))
    if trajectory_rows:
        with open(out / "lambda_trajectories.csv", "w", newline="",
                  encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("source", "round", "branch_id", "merge_coeff"))
            writer.writerows(trajectory_rows)
    print(f"wrote summary for {len(summary)} methods to {out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"auxlab: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"auxlab: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report, don't traceback
        print(f"auxlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
