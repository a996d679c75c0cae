import csv
import importlib.metadata as md
import os
import subprocess
import sys
from pathlib import Path

import pytest

from auxlab.cli import main
from auxlab.runner import read_records

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

    @pytest.mark.parametrize("key, value", [
        ("relatedness", "1.5"),
        ("lambda_grid", "0.5,1"),
        ("val_subsample", "0"),
        ("momentum", "1.0"),
        ("hidden_dims", "0"),
    ])
    def test_invalid_value_exits_1_before_any_work(self, capsys, tmp_path,
                                                   key, value):
        lines = [line for line in CFG_SMALL.strip().splitlines()
                 if not line.startswith(("method", key))]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(["method = forkmerge", f"{key} = {value}", *lines]))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 1
        assert key in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("method, lines", [
        ("forkmerge", "prune_to = 2"),
        ("forkmerge", "branch_weights = 0.5,1;1,1"),
        ("forkmerge", "branch_weights = 1,1;1,0.5"),
        ("forkmerge_multi", "n_tasks = 1\nrelatedness ="),
        ("forkmerge", "n_tasks = 1\nrelatedness ="),
    ], ids=["prune_all", "target_weight_half", "no_target_only", "multi_no_aux",
            "pair_no_aux"])
    def test_invalid_branches_exit_1_before_any_work(self, capsys, tmp_path,
                                                     method, lines):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CFG_SMALL.replace("method = ew", f"method = {method}")
                       + lines + "\nmerge_interval = 10\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith("auxlab:")
        assert not (out / "records.csv").exists()

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
        again = read_records(records)
        strip = lambda r: (r.method, r.seed, r.task_id, r.split, r.value, r.tg)  # noqa: E731
        assert [strip(r) for r in again] == [strip(r) for r in complete]
        capsys.readouterr()
        assert run_cli("report", "--records", str(out)) == 0
        with open(out / "summary.csv", newline="") as handle:
            summary = {r["method"]: r for r in csv.DictReader(handle)}
        assert {m: summary[m]["n_seeds"] for m in summary} == {"ew": "2", "stl": "2"}

    def test_report_rejects_malformed_inner_row(self, capsys, tmp_path):
        header = "method,seed,task_id,split,metric,value,tg,psearch_evals,wall_s\n"
        good = "ew,0,0,test,accuracy,80.0,,0,0.1\n"
        (tmp_path / "records.csv").write_text(header + "ew,1,0,test,acc\n" + good)
        assert run_cli("report", "--records", str(tmp_path)) == 2
        assert "line 2" in capsys.readouterr().err

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

    def test_report_on_headers_only(self, tmp_path):
        (tmp_path / "records.csv").write_text(
            "method,seed,task_id,split,metric,value,tg,psearch_evals,wall_s\n"
        )
        assert run_cli("report", "--records", str(tmp_path)) == 1

    def test_runtime_failure_is_exit_two(self, capsys, tmp_path):
        (tmp_path / "records.csv").write_text("who,what\n1,2\n")
        code = run_cli("report", "--records", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("auxlab:")


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
        assert run_cli("run", "--config", str(cfg),
                       "--output-dir", str(out), "--threads", "1") == 0
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
    assert len(imported) == 10
    assert set(auxlab.__all__) == imported | {"__version__"}


def test_import_pins_blas_to_one_thread():
    import auxlab

    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(auxlab.__file__).resolve().parents[1])
    env = {**os.environ, **dict.fromkeys(blas, "2"), "PYTHONPATH": src}
    code = f"import os, auxlab; print([os.environ[v] for v in {blas!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "['1', '1', '1']"
