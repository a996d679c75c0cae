"""Command-line front end.

Subcommands: ``gen-data`` writes a task family to CSV files, ``run`` executes
a config file, ``sweep`` runs the two analysis sweeps, ``report`` aggregates
a results directory. Exit codes: 0 on success, 1 for usage problems (bad
flags, missing or invalid config, a records file auxlab cannot use, an output
path of the wrong kind or held by another run, nothing to report), 2 for
runtime failures. All diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .runner import (
    FAMILY_KEYS,
    FORKMERGE_METHODS,
    MERGE_HISTORY_STEM,
    _PARSERS,
    ConfigError,
    ExperimentConfig,
    RecordsError,
    aggregate,
    family_for_seed,
    load_config,
    output_dir_for,
    read_records,
    run_csd_lambda_sweep,
    run_experiment,
    run_tg_gcs_sweep,
    write_summary,
    RECORDS_FILENAME,
)
from .tasks import write_family, write_table

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or bad inputs the user can fix; maps to exit code 1, as
    a ConfigError does."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own failures to exit code 1
        raise UsageError(message)


# config keys whose flags are not named after them
_FLAG_NAMES = {"hidden_dims": "--hidden", "base_lr": "--lr"}


def _flag_parser(key: str):
    """``key``'s config parser; argparse reports a value it rejects under the
    flag's name."""
    def parse(text: str):
        try:
            return _PARSERS[key](text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from exc

    return parse


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    """One flag per config key, with the key's parser; a flag not given
    leaves its key to the config's default."""
    for key in keys:
        flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        parser.add_argument(flag, dest=key, type=_flag_parser(key),
                            default=argparse.SUPPRESS, help=f"as config key {key}")


def _flag_config(args, **keys) -> ExperimentConfig:
    """The stl config of the config-key flags in ``args`` and ``keys``;
    every other key takes its default."""
    flags = {key: value for key, value in vars(args).items() if key in _PARSERS}
    return ExperimentConfig("stl", **flags, **keys)


def _check_output(path, name: str, *, directory: bool) -> Path:
    """``path``; UsageError naming ``name`` if it is of the wrong kind, a file
    for a ``directory`` or a directory for a file, or lies under a file."""
    path = Path(path)
    there = next(p for p in (path, *path.parents) if p.exists())
    if there.is_dir() != (directory or there != path):
        raise UsageError(f"{name}: {there} is {'' if there.is_dir() else 'not '}a directory")
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="auxlab",
                     description="auxiliary-task learning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a task family to CSV files")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0)
    _add_config_flags(gen, FAMILY_KEYS)

    run = sub.add_parser("run", help="execute a config file")
    run.add_argument("--config", required=True, help="path to a key=value file")
    run.add_argument("--output-dir", default=None,
                     help="overrides the config and the environment variable")

    sweep = sub.add_parser("sweep", help="run an analysis sweep")
    sweep.add_argument("kind", choices=("tg-gcs", "csd-lambda"))
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seeds", type=_flag_parser("seeds"), default="0",
                       help="comma list")
    sweep.add_argument("--lambdas", type=_flag_parser("lambda_grid"),
                       default="0,0.25,0.5,0.75,1.0")
    sweep.add_argument("--points", type=int, default=50,
                       help="tg-gcs: batch draws per weighting")
    sweep.add_argument("--warm-steps", type=int, default=300,
                       help="tg-gcs: single-task steps before probing")
    sweep.add_argument("--train-steps", type=int, default=300,
                       help="csd-lambda: steps per mixed training run")
    _add_config_flags(sweep, ("hidden_dims", "base_lr", "batch_size", *FAMILY_KEYS))

    rep = sub.add_parser("report", help="aggregate a results directory")
    rep.add_argument("--records", required=True,
                     help="directory containing records.csv")
    rep.add_argument("--out", default=None,
                     help="where to write summaries (default: records dir)")
    return parser


def _cmd_gen_data(args) -> int:
    out = _check_output(args.out, "--out", directory=True)
    family = family_for_seed(_flag_config(args, seeds=(args.seed,)), args.seed)
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
    out_dir = output_dir_for(config, args.output_dir)
    _check_output(out_dir, "--output-dir" if args.output_dir else "output_dir", directory=True)
    records = run_experiment(config, output_dir=args.output_dir)
    print(f"wrote {len(records)} records to {out_dir / RECORDS_FILENAME}")
    return 0


def _cmd_sweep(args) -> int:
    _check_output(args.out, "--out", directory=False)
    config = _flag_config(args, lambda_grid=args.lambdas)
    lambdas = config.lambda_grid
    # tg-gcs probes auxiliary tasks; csd-lambda mixes the target with exactly
    # one, at rates >= 0, over one training set size
    if not lambdas:
        raise UsageError("--lambdas must be non-empty")
    if args.points < 1 or args.warm_steps < 0 or args.train_steps < 1:
        raise UsageError("--points and --train-steps must be >= 1, --warm-steps >= 0")
    if config.n_tasks < 2:
        raise UsageError("the sweeps expect --n-tasks >= 2")
    if args.kind == "csd-lambda":
        if config.n_tasks != 2 or min(lambdas) < 0 or not isinstance(config.n_train, int):
            raise UsageError("csd-lambda expects --n-tasks 2, --lambdas >= 0"
                             " and a single --n-train count")
        columns = ("seed", "lambda", "csd")
        rows = run_csd_lambda_sweep(config, lambdas, args.train_steps)
    else:
        columns = ("seed", "point_id", "lambda", "gcs", "tg")
        rows = run_tg_gcs_sweep(config, args.warm_steps, lambdas, args.points)
    write_table(args.out, columns, zip(*rows))
    print(f"wrote {len(rows)} rows to {Path(args.out)}")
    return 0


def _cmd_report(args) -> int:
    records_dir = Path(args.records)
    records_path = records_dir / RECORDS_FILENAME
    if not records_path.is_file():
        raise UsageError(f"no {RECORDS_FILENAME} in {records_dir}")
    out = _check_output(args.out or records_dir, "--out", directory=True)
    records = read_records(records_path)
    summary = aggregate(records)
    if not summary:
        raise UsageError(f"{records_path} holds no finite test records")
    out.mkdir(parents=True, exist_ok=True)
    write_summary(summary, out / "summary.csv", out / "summary.json")

    # a finished fork/merge job that did not diverge has written its history
    stems = sorted(MERGE_HISTORY_STEM.format(method=r.method, seed=r.seed)
                   for r in records if r.split == "val" and r.method in FORKMERGE_METHODS)
    trajectory_rows = []
    for stem in stems:
        payload = json.loads((records_dir / f"{stem}.json").read_text(encoding="utf-8"))
        for round_payload in payload["rounds"]:
            for branch_id, coeff in sorted(
                round_payload["merge_coeffs"].items(), key=lambda kv: int(kv[0])
            ):
                trajectory_rows.append((stem, round_payload["round"], branch_id, coeff))
    trajectories = out / "lambda_trajectories.csv"
    if trajectory_rows:
        write_table(trajectories, ("source", "round", "branch_id", "merge_coeff"),
                    zip(*trajectory_rows))
    else:  # an earlier report's, which these records do not back
        trajectories.unlink(missing_ok=True)
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
    except (UsageError, ConfigError, RecordsError) as exc:
        print(f"auxlab: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report, don't traceback
        print(f"auxlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
