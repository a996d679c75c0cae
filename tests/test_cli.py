import csv
import dataclasses
import importlib.metadata as md
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from auxlab.cli import main
from auxlab.runner import (
    OUTPUT_DIR_ENV,
    ConfigError,
    ExperimentConfig,
    aggregate,
    parse_config_text,
    read_records,
    run_experiment,
)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*argv):
    return main(list(argv))


CFG_SMALL = """
method = ew
seeds = 0
n_train = 200
n_val = 80
n_test = 80
total_steps = 20
hidden_dims = 8
batch_size = 32
"""


class TestExitCodes:
    def test_missing_config_names_path(self, capsys, tmp_path):
        code = run_cli("run", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1
        assert "nope.cfg" in capsys.readouterr().err

    def test_invalid_config_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("method = ew\nseeds = 1\nturbo = yes\n")
        assert run_cli("run", "--config", str(bad)) == 1
        assert "turbo" in capsys.readouterr().err

    def test_removed_threads_flag_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CFG_SMALL)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out),
                       "--threads", "2") == 1
        assert "--threads" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["ew", "forkmerge"])
    def test_diverged_seeds_become_nan_rows(self, tmp_path, method):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(CFG_SMALL.replace("method = ew", f"method = {method}")
                       .replace("seeds = 0", "seeds = 0,1")
                       + "base_lr = 1e300\nactivation = relu\n"
                       "lr_schedule = constant\ncompute_tg = false\n"
                       "merge_interval = 10\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        with open(out / "records.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["method"], r["seed"], r["value"]) for r in rows] == [
            (method, "0", "nan"), (method, "1", "nan"),
        ]

    @pytest.mark.filterwarnings("error")
    def test_fixed_lambda_grid_has_no_upper_bound(self, tmp_path):
        # λ = 1e300 trains finite; the divergence check's dot product
        # overflows on it, which is no fault and warns nothing
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(CFG_SMALL.replace("method = ew", "method = fixed_lambda")
                       + "lambda_grid = 0,1e300\ncompute_tg = false\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        values = [r.value for r in read_records(out / "records.csv")]
        assert len(values) == 3 and all(map(math.isfinite, values))

    @pytest.mark.parametrize("key, value, method", [
        pytest.param(key, value, method,
                     id=f"{key}-{value}" + ("" if method == "forkmerge" else f"-{method}"))
        for key, value, method in [
            *((key, value, "forkmerge") for key, value in (
                ("relatedness", "1.5"),
                ("lambda_grid", "0.5,1"),
                ("val_subsample", "0"),
                ("momentum", "1.0"),
                ("hidden_dims", "0"),
                ("seeds", "0,1,0"),
                ("prune_to", "0"),
                ("merge_interval", "0"),
                ("lr_schedule", "step"),
                ("search_strategy", "anneal"),
                ("total_steps", "0"),
                ("binary_iters", "0"),
                ("base_lr", "0"),
                ("batch_size", "0"),
            )),
            # a comparison with a non-finite value cannot be the check
            *((key, text.format(bad), method) for bad in ("nan", "inf", "-inf")
              for key, text, method in (
                  ("base_lr", "{}", "forkmerge"),
                  ("momentum", "{}", "forkmerge"),
                  ("noise_std", "{}", "forkmerge"),
                  ("mean_scale", "{}", "forkmerge"),
                  ("relatedness", "{}", "forkmerge"),
                  ("lambda_grid", "0,{},1", "forkmerge"),
                  ("lambda_grid", "0,{}", "fixed_lambda"),
                  ("branch_weights", "1,0;1,{}", "forkmerge"),
                  ("branch_weights", "1,{}", "gcs"),
              )),
        ]
    ])
    def test_invalid_value_exits_1_before_any_work(self, capsys, tmp_path,
                                                   key, value, method):
        lines = [line for line in CFG_SMALL.strip().splitlines()
                 if not line.startswith(("method", key))]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join([f"method = {method}", f"{key} = {value}", *lines]))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert key in err
        # a non-finite value is named as such, ahead of any other rule it breaks
        assert ("not finite" in err) == any(bad in value for bad in ("nan", "inf"))
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("method, lines, key", [
        ("forkmerge", "prune_to = 2", "prune_to"),
        ("forkmerge", "branch_weights = 0.5,1;1,1", "branch_weights"),
        ("forkmerge", "branch_weights = 1,1;1,0.5", "branch_weights"),
        ("forkmerge_multi", "n_tasks = 1\nrelatedness =", "n_tasks"),
        ("forkmerge", "n_tasks = 1\nrelatedness =", "n_tasks"),
        ("fixed_lambda", "lambda_grid = 0,-0.5,1", "lambda_grid"),
        ("fixed_lambda", "lambda_grid =", "lambda_grid"),
        ("forkmerge", "branch_weights = 0,1;1,0", "branch_weights"),
    ], ids=["prune_all", "target_weight_half", "no_target_only", "multi_no_aux",
            "pair_no_aux", "fixed_negative_grid", "fixed_empty_grid",
            "target_weight_zero"])
    def test_invalid_branches_exit_1_before_any_work(self, capsys, tmp_path,
                                                     method, lines, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CFG_SMALL.replace("method = ew", f"method = {method}")
                       + lines + "\nmerge_interval = 10\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("auxlab:") and key in err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("case", ["missing_dir", "too_few_tasks", "input_dim",
                                      "missing_aux_val", "aux_val_header",
                                      "header_only_train"])
    def test_rejected_data_dir_exits_1_and_writes_nothing(self, capsys, tmp_path, case):
        data_dir = tmp_path / "fam"
        if case != "missing_dir":
            input_dim = "3" if case == "input_dim" else "2"
            assert run_cli("gen-data", "--out", str(data_dir), "--n-train", "50",
                           "--n-val", "20", "--n-test", "20",
                           "--input-dim", input_dim) == 0
        # no method reads an auxiliary val split, but its file is checked
        if case == "missing_aux_val":
            (data_dir / "task1_val.csv").unlink()
        if case == "aux_val_header":
            (data_dir / "task1_val.csv").write_text("f0,f1,f2,label\n0,0,0,1\n")
        if case == "header_only_train":
            (data_dir / "task1_train.csv").write_text("f0,f1,label\n")
        lines = "n_tasks = 3\nrelatedness = 0.5,0.5\n" if case == "too_few_tasks" else ""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CFG_SMALL + lines + f"data_dir = {data_dir}\n")
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("auxlab:") and "data_dir" in err
        missing = {"missing_dir": "task0_train.csv", "too_few_tasks": "task2_train.csv",
                   "input_dim": "task0_train.csv", "missing_aux_val": "task1_val.csv",
                   "aux_val_header": "task1_val.csv",
                   "header_only_train": "task1_train.csv"}[case]
        assert missing in err
        assert not out.exists()

    def test_differing_echo_exits_1_and_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "out"
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text(CFG_SMALL.replace("total_steps = 20", "total_steps = 10"))
        second.write_text(CFG_SMALL)
        assert run_cli("run", "--config", str(first), "--output-dir", str(out)) == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("run", "--config", str(second), "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "config_echo_ew.cfg" in err and "total_steps" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("name", ["out #3", "out\t#3", "out "])
    def test_output_dir_its_echo_cannot_carry_exits_1(self, capsys, tmp_path,
                                                      monkeypatch, via, name):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CFG_SMALL)
        argv = ["run", "--config", str(cfg)]
        if via == "flag":
            argv += ["--output-dir", str(tmp_path / name)]
        else:
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / name))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("auxlab: output_dir: ")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("argv, key, config", [
        (("sweep", "tg-gcs", "--seeds", "0,0"), "seeds", {"seeds": (0, 0)}),
        (("gen-data", "--relatedness", "2"), "relatedness",
         {"seeds": (0,), "relatedness": (2.0,)}),
        (("sweep", "csd-lambda", "--lambdas", "0,nan"), "lambda_grid",
         {"seeds": (0,), "lambda_grid": (0.0, math.nan)}),
    ], ids=["sweep_seeds", "gen_data_relatedness", "sweep_lambdas_nan"])
    def test_config_errors_carry_the_key_name(self, capsys, tmp_path, argv, key, config):
        with pytest.raises(ConfigError, match=f"^{key}") as expected:
            ExperimentConfig("stl", **config)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"auxlab: {expected.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param(command, flag, value, id=f"{flag}-command{i}")
        for flag, value in (("--n-train", "x"), ("--relatedness", "x"),
                            ("--seeds", "abc"), ("--lambdas", "0,x"))
        for i, command in enumerate((("gen-data",), ("sweep", "tg-gcs"),
                                     ("sweep", "csd-lambda")))
        if command[0] == "sweep" or flag in ("--n-train", "--relatedness")
    ])
    def test_bad_flag_value_names_flag_and_value(self, capsys, tmp_path, command,
                                                 flag, value):
        out = tmp_path / "out"
        assert run_cli(*command, "--out", str(out), flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"auxlab: argument {flag}: ")
        assert repr(value) in err and "_parse" not in err
        assert not out.exists()

    def test_report_skips_torn_last_row(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(CFG_SMALL.replace("seeds = 0", "seeds = 0,1")
                       + "compute_tg = false\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        records = out / "records.csv"
        complete = read_records(records)
        records.write_bytes(records.read_bytes()[:-20])
        capsys.readouterr()
        assert run_cli("report", "--records", str(out)) == 0
        assert "incomplete last row" in capsys.readouterr().err
        assert read_records(records) == complete[:-1]
        assert (out / "summary.csv").is_file()

    @pytest.mark.parametrize("keep", [-20, 10], ids=["torn_row", "torn_header"])
    def test_rerun_after_torn_row_counts_every_seed_once(self, capsys, tmp_path, keep):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(CFG_SMALL.replace("seeds = 0", "seeds = 0,1"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        records = out / "records.csv"
        complete = read_records(records)
        records.write_bytes(records.read_bytes()[:keep])
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        assert read_records(records) == complete
        capsys.readouterr()
        assert run_cli("report", "--records", str(out)) == 0
        with open(out / "summary.csv", newline="") as handle:
            summary = {r["method"]: r for r in csv.DictReader(handle)}
        assert {m: summary[m]["n_seeds"] for m in summary} == {"ew": "2", "stl": "2"}

    def test_report_rejects_malformed_inner_row(self, capsys, tmp_path):
        header = "method,seed,task_id,split,metric,value,tg,psearch_evals\n"
        good = "ew,0,0,test,accuracy,80.0,,0\n"
        (tmp_path / "records.csv").write_text(header + "ew,1,0,test,acc\n" + good)
        assert run_cli("report", "--records", str(tmp_path)) == 1
        assert "line 2" in capsys.readouterr().err

    def test_report_with_diverged_stl_rows_leaves_delta_m_empty(self, tmp_path):
        (tmp_path / "records.csv").write_text(
            "method,seed,task_id,split,metric,value,tg,psearch_evals\n"
            "stl,0,0,test,accuracy,nan,,0\n"
            "ew,0,0,test,accuracy,80.0,,0\n"
            "ew,0,1,test,accuracy,70.0,,0\n"
            "ew,0,0,val,accuracy,75.0,,0\n"
        )
        assert run_cli("report", "--records", str(tmp_path)) == 0
        with open(tmp_path / "summary.csv", newline="") as handle:
            summary = list(csv.DictReader(handle))
        assert [(r["method"], r["target_mean"], r["delta_m_pct"]) for r in summary] == [
            ("ew", "80.0", "")]

    def test_report_leaves_delta_m_empty_for_another_task_set(self, tmp_path):
        # two valid runs into one dir: ew over 2 tasks with its stl references,
        # then gcs over 3 tasks without; gcs has no like-for-like stl score
        out = tmp_path / "out"
        for name, text in (("ew", CFG_SMALL),
                           ("gcs", CFG_SMALL.replace("method = ew", "method = gcs")
                            + "n_tasks = 3\nrelatedness = 0.5,0.5\ncompute_tg = false\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        assert run_cli("report", "--records", str(out)) == 0
        with open(out / "summary.csv", newline="") as handle:
            delta_m = {r["method"]: r["delta_m_pct"] for r in csv.DictReader(handle)}
        assert delta_m["gcs"] == "" and float(delta_m["stl"]) == 0.0
        # ew keeps the figure it has without gcs's rows
        without_gcs = [r for r in read_records(out / "records.csv") if r.method != "gcs"]
        assert float(delta_m["ew"]) == aggregate(without_gcs)["ew"]["delta_m_pct"]

    def test_report_without_finite_test_rows_exits_1(self, capsys, tmp_path):
        (tmp_path / "records.csv").write_text(
            "method,seed,task_id,split,metric,value,tg,psearch_evals\n"
            "stl,0,0,test,accuracy,nan,,0\n"
            "ew,0,0,test,accuracy,nan,,0\n"
        )
        assert run_cli("report", "--records", str(tmp_path)) == 1
        assert "finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.csv"]

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("run", "--confg", "x") == 1
        assert capsys.readouterr().err.startswith("auxlab:")

    def test_report_on_empty_dir(self, capsys, tmp_path):
        assert run_cli("report", "--records", str(tmp_path)) == 1
        assert "records.csv" in capsys.readouterr().err

    def test_run_prints_the_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        from auxlab.runner import OUTPUT_DIR_ENV

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CFG_SMALL + "compute_tg = false\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env"))
        assert run_cli("run", "--config", str(cfg)) == 0
        written = tmp_path / "env" / "records.csv"
        assert capsys.readouterr().out == f"wrote 3 records to {written}\n"
        assert written.is_file()

    @pytest.mark.parametrize("keep", [0, 1, 17, -1], ids=["empty", "one_char",
                                                        "mid_column", "no_newline"])
    def test_report_on_a_header_cut_short(self, capsys, tmp_path, keep):
        header = "method,seed,task_id,split,metric,value,tg,psearch_evals\n"
        (tmp_path / "records.csv").write_text(header[:keep])
        assert run_cli("report", "--records", str(tmp_path)) == 1
        assert "holds no finite test records" in capsys.readouterr().err

    def test_report_on_headers_only(self, tmp_path):
        (tmp_path / "records.csv").write_text(
            "method,seed,task_id,split,metric,value,tg,psearch_evals\n"
        )
        assert run_cli("report", "--records", str(tmp_path)) == 1

    def test_runtime_failure_is_exit_two(self, capsys, tmp_path):
        (tmp_path / "records.csv").write_text(
            "method,seed,task_id,split,metric,value,tg,psearch_evals\n"
            "ew,0,0,test,accuracy,80.0,,0\n"
        )
        (tmp_path / "merge_history_forkmerge_seed0.json").write_text("{not json")
        code = run_cli("report", "--records", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("auxlab:")


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def _no_training(monkeypatch):
    """Make any (method, seed) job the runner starts fail the test."""
    import auxlab.runner as runner_mod

    def run_method(*args):
        raise AssertionError("a job was trained")

    monkeypatch.setattr(runner_mod, "_run_method", run_method)


# records.csv as auxlab wrote it while each row carried its job's wall time,
# and one with a renamed column
OTHER_FORMATS = {
    "wall_time_column": ("method,seed,task_id,split,metric,value,tg,psearch_evals,wall_s\n"
                         "ew,0,0,test,accuracy,80.0,,0,0.1\n"
                         "ew,0,1,test,accuracy,70.0,,0,0.1\n"
                         "ew,0,0,val,accuracy,75.0,,0,0.1\n", ["wall_s"]),
    "renamed_column": ("method,seed,task_id,split,metric,value,gain,psearch_evals\n"
                       "ew,0,0,test,accuracy,80.0,,0\n", ["gain", "tg"]),
}


class TestRecordsAuxlabCannotUse:
    """A records.csv of another format, or one holding a (method, seed) job
    twice, makes `run` and `report` exit 1 naming the cause, before any
    training or write."""

    @pytest.mark.parametrize("case", sorted(OTHER_FORMATS))
    @pytest.mark.parametrize("command", ["run", "report"])
    def test_other_format_exits_1_naming_the_columns(self, capsys, tmp_path, monkeypatch,
                                                     command, case):
        text, columns = OTHER_FORMATS[case]
        out = tmp_path / "out"
        out.mkdir()
        (out / "records.csv").write_text(text)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(CFG_SMALL + "compute_tg = false\n")
        _no_training(monkeypatch)
        before = _dir_bytes(out)
        argv = (("run", "--config", str(cfg), "--output-dir", str(out))
                if command == "run" else ("report", "--records", str(out)))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("auxlab:") and "records.csv" in err
        assert all(column in err for column in columns)
        assert _dir_bytes(out) == before

    def _dir_with_a_duplicated_stl_job(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(CFG_SMALL.replace("seeds = 0", "seeds = 0,1"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        records = out / "records.csv"
        lines = records.read_text().splitlines(keepends=True)
        # a second whole copy of the stl seed-0 job, as two runs appending
        # into one dir at once leave it
        records.write_text("".join(lines + [line for line in lines
                                             if line.startswith("stl,0,")]))
        return cfg, out

    def test_report_exits_1_naming_a_duplicated_job(self, capsys, tmp_path):
        _, out = self._dir_with_a_duplicated_stl_job(tmp_path)
        before = _dir_bytes(out)
        capsys.readouterr()
        assert run_cli("report", "--records", str(out)) == 1
        assert "stl seed 0" in capsys.readouterr().err
        assert _dir_bytes(out) == before

    def test_run_exits_1_on_a_malformed_inner_row_before_training(self, capsys, tmp_path,
                                                                   monkeypatch):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(CFG_SMALL)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        records = out / "records.csv"
        header, first, *rest = records.read_text().splitlines(keepends=True)
        row = first.split(",")
        row[2] = "zero"  # task_id
        records.write_text("".join([header, first, ",".join(row), *rest]))
        cfg.write_text(CFG_SMALL.replace("seeds = 0", "seeds = 0,1"))
        before = _dir_bytes(out)
        _no_training(monkeypatch)
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("auxlab:") and "records.csv: line 3: malformed record" in err
        assert _dir_bytes(out) == before

    def test_run_exits_1_naming_a_duplicated_job_before_training(self, capsys, tmp_path,
                                                                 monkeypatch):
        cfg, out = self._dir_with_a_duplicated_stl_job(tmp_path)
        cfg.write_text(CFG_SMALL.replace("seeds = 0", "seeds = 0,1,2"))
        before = _dir_bytes(out)
        _no_training(monkeypatch)
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 1
        assert "stl seed 0" in capsys.readouterr().err
        assert _dir_bytes(out) == before


class TestOneWriterPerDir:
    """`auxlab run` holds an exclusive lock on its output dir for the whole
    run: a second run into the dir exits 1 before it writes anything."""

    @pytest.fixture
    def hold(self):
        """Lock a dir as a run does; returns the fd, whose close releases it."""
        fcntl = pytest.importorskip("fcntl")

        def hold(path):
            fd = os.open(path, os.O_RDONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                raise
            return fd

        return hold

    @pytest.mark.parametrize("state", ["empty", "with_records"])
    def test_run_exits_1_while_another_holds_the_dir(self, capsys, tmp_path, monkeypatch,
                                                      hold, state):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(CFG_SMALL)
        out = tmp_path / "out"
        out.mkdir()
        if state == "with_records":
            assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
            cfg.write_text(CFG_SMALL.replace("seeds = 0", "seeds = 0,1"))
        before = _dir_bytes(out)
        _no_training(monkeypatch)
        capsys.readouterr()
        fd = hold(out)
        try:
            assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 1
        finally:
            os.close(fd)
        assert "output dir in use by another run" in capsys.readouterr().err
        assert _dir_bytes(out) == before

    def test_records_are_read_under_the_lock(self, tmp_path, monkeypatch, hold):
        import auxlab.runner as runner_mod

        cfg = tmp_path / "small.cfg"
        cfg.write_text(CFG_SMALL)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        real, reads = runner_mod.read_records, []

        def read_records(path):
            with pytest.raises(BlockingIOError):
                hold(Path(path).parent)
            reads.append(path)
            return real(path)

        monkeypatch.setattr(runner_mod, "read_records", read_records)
        cfg.write_text(CFG_SMALL.replace("seeds = 0", "seeds = 0,1"))
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        assert len(reads) == 1
        # the lock ends with the run
        os.close(hold(out))


class TestPipeline:
    def test_gen_data_then_run_then_report(self, tmp_path, capsys):
        data_dir = tmp_path / "fam"
        assert run_cli(
            "gen-data", "--out", str(data_dir), "--n-train", "200",
            "--n-val", "80", "--n-test", "80", "--seed", "3",
        ) == 0
        assert sorted(p.name for p in data_dir.iterdir()) == [
            f"task{t}_{split}.csv"
            for t in (0, 1) for split in ("test", "train", "val")
        ]

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CFG_SMALL + f"data_dir = {data_dir}\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        assert (out / "records.csv").is_file()
        assert (out / "config_echo_ew.cfg").is_file()

        assert run_cli("report", "--records", str(out)) == 0
        with open(out / "summary.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {r["method"] for r in rows} == {"stl", "ew"}

    def test_report_emits_merge_trajectories(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "method = forkmerge\nseeds = 0\nn_train = 200\nn_val = 80\n"
            "n_test = 80\ntotal_steps = 40\nmerge_interval = 20\n"
            "hidden_dims = 8\nbatch_size = 32\ncompute_tg = false\n"
        )
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg),
                       "--output-dir", str(out)) == 0
        assert run_cli("report", "--records", str(out)) == 0
        with open(out / "lambda_trajectories.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {r["round"] for r in rows} == {"0", "1"}
        assert {r["branch_id"] for r in rows} == {"0", "1"}

    def test_gen_data_and_report_start_no_thread(self, tmp_path, monkeypatch):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        import auxlab.forkmerge as fm

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CFG_SMALL.replace("method = ew", "method = forkmerge")
                       + "merge_interval = 10\ncompute_tg = false\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 0
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        # a pool that has started no thread yet: a merge search would start one
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="auxlab-score")
        monkeypatch.setattr(fm, "_POOL", pool)
        monkeypatch.setattr(fm, "_WORKERS", 1)
        monkeypatch.setattr(fm, "_MIN_ROWS", 0)
        try:
            assert run_cli("gen-data", "--out", str(tmp_path / "fam"), "--n-train", "50",
                           "--n-val", "20", "--n-test", "20") == 0
            assert run_cli("report", "--records", str(out)) == 0
            assert started == []
            # the check sees the thread a fork/merge run starts
            assert run_cli("run", "--config", str(cfg),
                           "--output-dir", str(tmp_path / "again")) == 0
            assert started == ["auxlab-score_0"]
        finally:
            pool.shutdown()


class TestSweeps:
    def test_tg_gcs_zero_rows_are_exactly_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "tg-gcs", "--out", str(out), "--relatedness", "0.4",
            "--lambdas", "0,0.5,1", "--points", "5", "--warm-steps", "30",
            "--n-train", "200", "--n-val", "80", "--n-test", "80",
            "--hidden", "8",
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 15
        assert list(rows[0]) == ["seed", "point_id", "lambda", "gcs", "tg"]
        for row in rows:
            if float(row["lambda"]) == 0.0:
                assert row["tg"] == "0.0"

    def test_tg_gcs_runs_every_seed(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "tg-gcs", "--out", str(out), "--seeds", "0,1,2",
            "--points", "3", "--warm-steps", "20", "--n-train", "200",
            "--n-val", "80", "--n-test", "80", "--hidden", "8",
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 45
        assert [r["seed"] for r in rows] == ["0"] * 15 + ["1"] * 15 + ["2"] * 15
        by_seed = {s: [(r["point_id"], r["lambda"], r["gcs"]) for r in rows
                       if r["seed"] == s] for s in "01"}
        assert by_seed["0"] != by_seed["1"]

    def test_csd_lambda_columns(self, tmp_path):
        out = tmp_path / "csd.csv"
        code = run_cli(
            "sweep", "csd-lambda", "--out", str(out), "--relatedness", "0.0",
            "--seeds", "0,1", "--lambdas", "0,1", "--train-steps", "60",
            "--n-train", "300", "--n-val", "100",
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert set(rows[0]) == {"seed", "lambda", "csd"}
        for row in rows:
            assert 0.0 <= float(row["csd"]) <= 1.0

    def test_csd_lambda_follows_hidden(self, tmp_path):
        texts = []
        for hidden in ("4", "32"):
            out = tmp_path / f"csd{hidden}.csv"
            assert run_cli(
                "sweep", "csd-lambda", "--out", str(out), "--lambdas", "0,1",
                "--train-steps", "30", "--n-train", "200", "--n-val", "80",
                "--n-test", "10", "--hidden", hidden,
            ) == 0
            texts.append(out.read_text())
        assert texts[0] != texts[1]

    def test_sweep_rejects_empty_lambdas(self, capsys, tmp_path):
        code = run_cli("sweep", "tg-gcs", "--out", str(tmp_path / "x.csv"),
                       "--lambdas", "")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("tg-gcs", "--seeds", "abc"),
        ("tg-gcs", "--seeds", "0,"),
        ("tg-gcs", "--lambdas", "0,x"),
        ("tg-gcs", "--hidden", "0"),
        ("tg-gcs", "--lr", "-1"),
        ("tg-gcs", "--batch-size", "0"),
        ("tg-gcs", "--warm-steps", "-1"),
        ("tg-gcs", "--points", "0"),
        ("tg-gcs", "--n-train", "-5"),
        ("csd-lambda", "--train-steps", "0"),
        ("csd-lambda", "--n-train", "x"),
        ("csd-lambda", "--n-train", "100,200"),
        ("csd-lambda", "--relatedness", "x"),
        ("csd-lambda", "--relatedness", "0.2,0.5"),
        ("csd-lambda", "--n-tasks", "3"),
        ("tg-gcs", "--n-tasks", "1", "--relatedness", ""),
        ("csd-lambda", "--lambdas", "0,-1"),
        ("tg-gcs", "--seeds", "0,0"),
        ("csd-lambda", "--seeds", "1,2,1"),
    ])
    def test_bad_flag_exits_1_before_any_work(self, capsys, tmp_path, argv):
        kind, *flags = argv
        out = tmp_path / "x.csv"
        assert run_cli("sweep", kind, "--out", str(out), *flags) == 1
        assert capsys.readouterr().err.startswith("auxlab:")
        assert not out.exists()


def _declared_console_script():
    """The ``auxlab`` target declared in this checkout's ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]["auxlab"]


def _auxlab_installed():
    try:
        md.distribution("auxlab")
    except md.PackageNotFoundError:
        return False
    return True


def test_console_entry_point_is_wired():
    value = _declared_console_script()
    assert value == "auxlab.cli:main"
    entry = md.EntryPoint(name="auxlab", value=value, group="console_scripts")
    assert entry.load() is main


@pytest.mark.skipif(not _auxlab_installed(),
                    reason="no installed auxlab distribution")
def test_installed_entry_point_matches_pyproject():
    entries = md.entry_points(group="console_scripts")
    ours = [e for e in entries if e.name == "auxlab"]
    assert ours and ours[0].value == _declared_console_script()


def test_package_exports_the_readme_python_api():
    text = PYPROJECT.with_name("README.md").read_text(encoding="utf-8")
    start = text.index("from auxlab import (")
    namespace = {}
    exec(text[start: text.index(")", start) + 1], namespace)
    import auxlab

    imported = set(namespace) - {"__builtins__"}
    assert len(imported) == 9
    assert set(auxlab.__all__) == imported | {"__version__"}


def test_readme_python_api_block_runs():
    text = PYPROJECT.with_name("README.md").read_text(encoding="utf-8")
    block = text.split("## Python API\n")[1].split("```python\n")[1].split("```")[0]
    src = str(PYPROJECT.with_name("src"))
    out = subprocess.run([sys.executable, "-c", block], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    [line] = out.stdout.splitlines()
    assert line.startswith("TG = ")


def test_import_pins_blas_to_one_thread():
    import auxlab

    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(auxlab.__file__).resolve().parents[1])
    env = {**os.environ, **dict.fromkeys(blas, "2"), "PYTHONPATH": src}
    code = f"import os, auxlab; print([os.environ[v] for v in {blas!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "['1', '1', '1']"


def test_records_do_not_depend_on_the_blas_thread_count(tmp_path):
    # numpy is imported before auxlab, so BLAS keeps the two threads it
    # loads with and the package's pin to one thread cannot apply
    text = ("method = forkmerge_multi\nseeds = 0\nn_tasks = 3\nrelatedness = 0.8,0.2\n"
            "n_train = 300\nn_val = 4000\nn_test = 4000\ntotal_steps = 90\n"
            "merge_interval = 30\nbatch_size = 32\ncompute_tg = false\n")
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **dict.fromkeys(blas, "2"), "PYTHONPATH": src}
    code = ("import numpy\n"
            "from auxlab.runner import parse_config_text, run_experiment\n"
            f"run_experiment(parse_config_text({text!r}), {str(tmp_path / 'two')!r})\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    run_experiment(parse_config_text(text), tmp_path / "one")

    records = read_records(tmp_path / "two" / "records.csv")
    assert records == read_records(tmp_path / "one" / "records.csv") != []
