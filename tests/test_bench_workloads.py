"""The benchmark's workloads write auxlab configs and command lines as
strings; these checks parse every one of them, so a schema or validation
change that would make a benchmark command fail shows here first, without
running the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

from auxlab.cli import build_parser
from auxlab.runner import parse_config_text

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)  # standard library only
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_command_of_a_round_parses(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    parser = build_parser()
    data_dir = tmp_path / "data"
    gen_data = ["gen-data", "--out", str(data_dir), "--seed", "101", *workload.family]
    assert parser.parse_args(gen_data).command == "gen-data"
    ops = workload.ops(101, str(data_dir))
    assert ops
    for op in ops:
        argv = workloads.op_argv(op, tmp_path)
        assert parser.parse_args(argv).command == argv[0]
        if isinstance(op, workloads.Run):
            config_path = Path(argv[argv.index("--config") + 1])
            config = parse_config_text(config_path.read_text(encoding="utf-8"))
            assert config.method == op.config["method"]
