import csv
import dataclasses
import itertools
import math
import shutil
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auxlab.forkmerge import MergeSchedule
from auxlab.nn import HeadSpec, ModelSpec
from auxlab.optim import OptConfig
from auxlab.runner import (
    RECORD_COLUMNS,
    TIMING_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    aggregate,
    config_to_text,
    parse_config_text,
    read_records,
    run_experiment,
)
from auxlab.tasks import TaskFamilyConfig

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_TEXT = """
# a small, fast setup shared by most tests below
method = ew
seeds = 0,1,2
n_train = 300
n_val = 100
n_test = 100
total_steps = 30
hidden_dims = 8
batch_size = 32
"""


class TestConfigParsing:
    def test_defaults_fill_everything_else(self):
        cfg = parse_config_text("method = stl\nseeds = 5")
        assert cfg.method == "stl"
        assert cfg.seeds == (5,)
        assert cfg.n_tasks == 2
        assert cfg.lambda_grid == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert cfg.compute_tg is True

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("method = stl\nseeds = 1\nmomentum_rate = 0.9")

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("method = stl\nseeds = 1\nseeds = 2")

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config_text("method = stl")
        with pytest.raises(ConfigError, match="method"):
            parse_config_text("seeds = 1")

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 3.*total_steps"):
            parse_config_text("method = stl\nseeds = 1\ntotal_steps = soon")

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config_text("method = adam\nseeds = 1")

    def test_relatedness_arity_checked(self):
        with pytest.raises(ConfigError, match="relatedness"):
            parse_config_text(
                "method = stl\nseeds = 1\nn_tasks = 3\nrelatedness = 0.5"
            )

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text(BASE_TEXT)
        assert cfg.method == "ew"
        assert cfg.seeds == (0, 1, 2)

    def test_hash_starts_a_comment_only_after_whitespace(self):
        cfg = parse_config_text("method = stl #x\nseeds = 1\t# y\n"
                                "output_dir = a#b # c#d\n#data_dir = gone")
        assert (cfg.method, cfg.seeds, cfg.output_dir, cfg.data_dir) == (
            "stl", (1,), "a#b", "")

    def test_echo_round_trip(self):
        cfg = parse_config_text(BASE_TEXT)
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_echo_round_trip_with_exotic_fields(self):
        cfg = parse_config_text(
            "method = forkmerge\nseeds = 1\nbranch_weights = 1,0;1,1;1,0.5\n"
            "prune_to = 2\nn_train = 200,2000\nhidden_dims = \n"
            "val_subsample = 50\ndata_dir = data/#3\noutput_dir = runs/#3"
        )
        again = parse_config_text(config_to_text(cfg))
        assert again == cfg
        assert (again.data_dir, again.output_dir) == ("data/#3", "runs/#3")
        assert again.branch_weights == ((1.0, 0.0), (1.0, 1.0), (1.0, 0.5))
        assert again.hidden_dims == ()
        assert again.n_train == (200, 2000)

    @pytest.mark.parametrize("key", ["output_dir", "data_dir"])
    @pytest.mark.parametrize("value", ["runs #3", "runs\t#3", "#3", " runs", "runs ",
                                       "a\nb", "a\r\nb", "a\u2028b"])
    def test_text_an_echo_cannot_carry_is_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig("ew", (0,), **{key: value})

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(["output_dir", "data_dir"]), value=st.text())
    @example(key="output_dir", value="a #b")
    def test_echo_carries_any_text_it_accepts(self, key, value):
        try:
            cfg = ExperimentConfig("ew", (0,), **{key: value})
        except ConfigError:
            return
        assert parse_config_text(config_to_text(cfg)) == cfg


def small_config(**overrides):
    cfg = parse_config_text(BASE_TEXT)
    return dataclasses.replace(cfg, **overrides)


class TestRunExperiment:
    def test_three_seeds_three_runs(self, tmp_path):
        records = run_experiment(small_config(), output_dir=tmp_path)
        ew = [r for r in records if r.method == "ew"]
        assert {r.seed for r in ew} == {0, 1, 2}
        # per seed: one test row per task plus the target validation row
        assert len(ew) == 3 * 3

    def test_stl_auto_ran_for_tg(self, tmp_path):
        records = run_experiment(small_config(), output_dir=tmp_path)
        stl = [r for r in records if r.method == "stl"]
        assert {r.seed for r in stl} == {0, 1, 2}
        for r in records:
            if r.method == "ew" and r.task_id == 0 and r.split == "test":
                assert r.tg is not None
            else:
                assert r.tg is None

    @pytest.mark.parametrize("method", ["stl", "ew", "fixed_lambda", "gcs", "post_train",
                                        "forkmerge", "forkmerge_multi"])
    def test_each_job_scores_each_split_once(self, tmp_path, monkeypatch, method):
        """A job scores each task's test split once and the target's val split
        once, for its rows, plus what its own weight search scores on val."""
        import auxlab.nn as nn_mod
        import auxlab.runner as runner_mod

        names, calls, job = {}, {}, []

        def family_for_seed(*args):
            family = real_family(*args)
            names.update({id(split): (name, t) for t, per in family.splits.items()
                          for name, split in per.items()})
            return family

        def run_method(config, method, family, spec, seed, out_dir):
            job[:] = [(method, seed)]
            return real_run_method(config, method, family, spec, seed, out_dir)

        def evaluate(spec, params, split, task_id):
            key = names.get(id(split), ("other", task_id))
            counts = calls.setdefault(job[0], {})
            counts[key] = counts.get(key, 0) + 1
            return real_evaluate(spec, params, split, task_id)

        real_family, real_run_method, real_evaluate = (
            runner_mod.family_for_seed, runner_mod._run_method, nn_mod.evaluate)
        monkeypatch.setattr(runner_mod, "family_for_seed", family_for_seed)
        monkeypatch.setattr(runner_mod, "_run_method", run_method)
        monkeypatch.setattr(nn_mod, "evaluate", evaluate)
        cfg = small_config(method=method, seeds=(0, 1), n_tasks=3, relatedness=(0.5, 0.2),
                           total_steps=20, merge_interval=10, pre_steps=10)
        records = run_experiment(cfg, output_dir=tmp_path)
        jobs = list(dict.fromkeys((r.method, r.seed) for r in records))
        assert jobs == list(calls) and len(jobs) == (2 if method == "stl" else 4)
        for method_, seed in jobs:
            [psearch] = {r.psearch_evals for r in records if (r.method, r.seed) == (method_, seed)}
            if method_ == "forkmerge_multi":
                # each greedy stage logs its zero trial unevaluated (TestSearchCounts)
                psearch -= (3 - 1) * 2
            assert calls[method_, seed] == {("test", 0): 1, ("test", 1): 1, ("test", 2): 1,
                                            ("val", 0): 1 + psearch}

    def test_compute_tg_off_skips_stl(self, tmp_path):
        records = run_experiment(
            small_config(compute_tg=False), output_dir=tmp_path
        )
        assert {r.method for r in records} == {"ew"}
        assert all(r.tg is None for r in records)

    def test_two_runs_write_identical_files(self, tmp_path):
        """Records and merge histories are bytes: two runs of one config
        write the same, with nothing masked; the timings go to timings.csv."""
        cfg = small_config(method="forkmerge", seeds=(0, 1), merge_interval=10)
        a = run_experiment(cfg, output_dir=tmp_path / "a")
        b = run_experiment(cfg, output_dir=tmp_path / "b")
        assert a == b != []
        names = sorted(p.name for p in (tmp_path / "a").glob("merge_history_*"))
        assert len(names) == 4
        for name in ["records.csv", *names]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_records_csv_round_trip(self, tmp_path):
        records = run_experiment(small_config(), output_dir=tmp_path)
        loaded = read_records(tmp_path / "records.csv")
        assert loaded == records

    def test_config_echo_reproduces(self, tmp_path):
        from auxlab.runner import load_config

        run_experiment(small_config(seeds=(4,)), output_dir=tmp_path / "first")
        echoed = load_config(tmp_path / "first" / "config_echo_ew.cfg")
        again = run_experiment(echoed, output_dir=tmp_path / "second")
        assert read_records(tmp_path / "first" / "records.csv") == again

    def test_forkmerge_writes_round_history(self, tmp_path):
        cfg = small_config(
            method="forkmerge", seeds=(0,), total_steps=2000, merge_interval=500,
            compute_tg=False, n_train=200, n_val=80, n_test=80,
        )
        run_experiment(cfg, output_dir=tmp_path)
        history = (tmp_path / "merge_history_forkmerge_seed0.csv").read_text()
        rows = history.strip().splitlines()
        rounds = {int(line.split(",")[0]) for line in rows[1:]}
        assert rounds == {0, 1, 2, 3}

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        import auxlab.runner as runner_mod

        monkeypatch.setenv(runner_mod.OUTPUT_DIR_ENV, str(tmp_path / "env"))
        run_experiment(small_config(seeds=(0,), compute_tg=False))
        assert (tmp_path / "env" / "records.csv").is_file()

    def test_explicit_dir_beats_env_var(self, tmp_path, monkeypatch):
        import auxlab.runner as runner_mod

        monkeypatch.setenv(runner_mod.OUTPUT_DIR_ENV, str(tmp_path / "env"))
        run_experiment(small_config(seeds=(0,), compute_tg=False),
                       output_dir=tmp_path / "explicit")
        assert (tmp_path / "explicit" / "records.csv").is_file()
        assert not (tmp_path / "env").exists()

    def test_data_dir_family_loaded_once_per_run(self, tmp_path, monkeypatch):
        import auxlab.runner as runner_mod
        from auxlab.tasks import generate_family, write_family

        cfg = small_config(data_dir=str(tmp_path / "fam"))
        family = generate_family(runner_mod._settings_for(TaskFamilyConfig, cfg, seed=0))
        write_family(family, cfg.data_dir)
        loads = []

        def load_family(*args):
            loads.append(args)
            return real(*args)

        real = runner_mod.load_family
        monkeypatch.setattr(runner_mod, "load_family", load_family)
        records = run_experiment(cfg, output_dir=tmp_path / "out")
        assert {(r.method, r.seed) for r in records} == {
            (m, s) for m in ("stl", "ew") for s in (0, 1, 2)}
        assert len(loads) == 1

    def test_data_dir_run_does_not_parse_aux_val_splits(self, tmp_path):
        import auxlab.runner as runner_mod
        from auxlab.tasks import generate_family, write_family

        cfg = small_config(data_dir=str(tmp_path / "fam"))
        family = generate_family(runner_mod._settings_for(TaskFamilyConfig, cfg, seed=0))
        write_family(family, cfg.data_dir)
        intact = run_experiment(cfg, output_dir=tmp_path / "intact")
        # a header over rows no parser accepts: no method reads these splits
        for t in (1, 2):
            (tmp_path / "fam" / f"task{t}_val.csv").write_text("f0,f1,label\nnot,a,row\n")
        again = run_experiment(cfg, output_dir=tmp_path / "again")
        assert again == intact != []

    def test_each_seed_family_generated_once_per_run(self, tmp_path, monkeypatch):
        import auxlab.runner as runner_mod

        generated = []

        def generate_family(cfg):
            generated.append(cfg.seed)
            return real(cfg)

        real = runner_mod.generate_family
        monkeypatch.setattr(runner_mod, "generate_family", generate_family)
        records = run_experiment(small_config(), output_dir=tmp_path)
        assert generated == [0, 1, 2]
        # the stl jobs of every seed still run before the ew jobs
        assert list(dict.fromkeys((r.method, r.seed) for r in records)) == [
            (m, s) for m in ("stl", "ew") for s in (0, 1, 2)]

    def test_divergence_recorded_and_run_continues(self, tmp_path, monkeypatch):
        import auxlab.runner as runner_mod
        from auxlab.vectors import NonFiniteError

        real = runner_mod.run_ew

        def failing_on_seed_zero(family, spec, total, opt, seed):
            if seed == 0:
                raise NonFiniteError("blew up")
            return real(family, spec, total, opt, seed)

        monkeypatch.setattr(runner_mod, "run_ew", failing_on_seed_zero)
        cfg = small_config(seeds=(0, 1), compute_tg=False)
        records = run_experiment(cfg, output_dir=tmp_path)
        dead = [r for r in records if r.seed == 0]
        alive = [r for r in records if r.seed == 1]
        assert len(dead) == 1 and math.isnan(dead[0].value)
        assert len(alive) == 3 and all(not math.isnan(r.value) for r in alive)
        # the NaN row survives the CSV round trip too
        loaded = read_records(tmp_path / "records.csv")
        assert math.isnan(loaded[0].value)


class TestRerunIntoSameDir:
    """A run into a dir that already holds records resumes: complete
    (method, seed) jobs are skipped, so no row is ever counted twice."""

    def test_rerun_adds_no_rows(self, tmp_path):
        cfg = small_config(seeds=(0,))
        first = run_experiment(cfg, output_dir=tmp_path)
        assert {r.method for r in first} == {"stl", "ew"}
        written = (tmp_path / "records.csv").read_bytes()
        assert run_experiment(cfg, output_dir=tmp_path) == []
        assert (tmp_path / "records.csv").read_bytes() == written
        summary = aggregate(read_records(tmp_path / "records.csv"))
        assert summary["ew"]["n_seeds"] == summary["stl"]["n_seeds"] == 1

    def test_only_missing_seeds_run(self, tmp_path, monkeypatch):
        import auxlab.runner as runner_mod

        run_experiment(small_config(seeds=(0,)), output_dir=tmp_path)
        trained = []
        real_ew, real_stl = runner_mod.run_ew, runner_mod.run_single_task

        def ew(family, spec, total, opt, seed):
            trained.append(("ew", seed))
            return real_ew(family, spec, total, opt, seed)

        def stl(family, spec, task_ids, total, opt, seed):
            trained.append(("stl", seed))
            return real_stl(family, spec, task_ids, total, opt, seed)

        monkeypatch.setattr(runner_mod, "run_ew", ew)
        monkeypatch.setattr(runner_mod, "run_single_task", stl)
        added = run_experiment(small_config(seeds=(0, 1)), output_dir=tmp_path)
        assert {(r.method, r.seed) for r in added} == {("stl", 1), ("ew", 1)}
        assert sorted(set(trained)) == [("ew", 1), ("stl", 1)]
        fresh = run_experiment(small_config(seeds=(0, 1)), output_dir=tmp_path / "fresh")
        key = lambda r: (r.method, r.seed)  # noqa: E731
        assert sorted(read_records(tmp_path / "records.csv"), key=key) == (
            sorted(fresh, key=key))

    def test_skipped_stl_job_still_feeds_tg(self, tmp_path):
        run_experiment(small_config(method="stl", seeds=(0,)), output_dir=tmp_path)
        added = run_experiment(small_config(seeds=(0,)), output_dir=tmp_path)
        assert {r.method for r in added} == {"ew"}
        fresh = run_experiment(small_config(seeds=(0,)), output_dir=tmp_path / "fresh")
        assert added == [r for r in fresh if r.method == "ew"]
        assert any(r.tg is not None for r in added)

    def test_other_methods_keep_appending(self, tmp_path):
        run_experiment(small_config(seeds=(0,)), output_dir=tmp_path)
        added = run_experiment(small_config(method="gcs", seeds=(0,), compute_tg=False),
                               output_dir=tmp_path)
        assert {r.method for r in added} == {"gcs"}
        methods = [r.method for r in read_records(tmp_path / "records.csv")]
        assert methods == ["stl"] * 3 + ["ew"] * 3 + ["gcs"] * 3

    def test_stl_rows_of_another_config_are_refused(self, tmp_path):
        run_experiment(small_config(seeds=(0,), total_steps=20), output_dir=tmp_path)
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fork = small_config(method="forkmerge", seeds=(0,), merge_interval=15)
        with pytest.raises(ConfigError, match=r"config_echo_stl\.cfg.*total_steps"):
            run_experiment(fork, output_dir=tmp_path)
        stl = small_config(method="stl", seeds=(0,))
        with pytest.raises(ConfigError, match=r"config_echo_stl\.cfg.*total_steps"):
            run_experiment(stl, output_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written

    def test_stl_echo_names_every_stl_seed_and_reproduces_them(self, tmp_path):
        from auxlab.runner import load_config

        shared = tmp_path / "shared"
        run_experiment(small_config(seeds=(0,)), output_dir=shared)
        # merge_interval is no key stl training reads: the stl rows are reused
        fork = small_config(method="forkmerge", seeds=(0, 1), merge_interval=15)
        added = run_experiment(fork, output_dir=shared)
        assert list(dict.fromkeys((r.method, r.seed) for r in added)) == [
            ("stl", 1), ("forkmerge", 0), ("forkmerge", 1)]
        fresh = run_experiment(fork, output_dir=tmp_path / "fresh")
        assert added == fresh[3:]
        echo = load_config(shared / "config_echo_stl.cfg")
        assert (echo.method, echo.seeds) == ("stl", (0, 1))
        again = run_experiment(echo, output_dir=tmp_path / "again")
        rows = read_records(shared / "records.csv")
        assert again == [r for r in rows if r.method == "stl"]

    def test_stl_rows_without_an_stl_echo_are_refused(self, tmp_path):
        run_experiment(small_config(seeds=(0,)), output_dir=tmp_path)
        (tmp_path / "config_echo_stl.cfg").unlink()
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ConfigError, match=r"config_echo_stl\.cfg"):
            run_experiment(small_config(method="gcs", seeds=(0,)), output_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
        # a run that neither writes nor skips stl jobs still appends
        added = run_experiment(small_config(method="gcs", seeds=(0,), compute_tg=False),
                               output_dir=tmp_path)
        assert {r.method for r in added} == {"gcs"}

    def test_echo_names_every_seed_in_the_dir(self, tmp_path):
        from auxlab.runner import load_config

        run_experiment(small_config(seeds=(1,), compute_tg=False), output_dir=tmp_path)
        run_experiment(small_config(seeds=(0, 2), compute_tg=False), output_dir=tmp_path)
        assert load_config(tmp_path / "config_echo_ew.cfg").seeds == (1, 0, 2)

    def test_each_methods_echo_reproduces_its_rows(self, tmp_path):
        from auxlab.runner import load_config

        shared = tmp_path / "shared"
        run_experiment(small_config(seeds=(0,)), output_dir=shared)
        run_experiment(small_config(method="gcs", seeds=(0,), compute_tg=False),
                       output_dir=shared)
        rows = read_records(shared / "records.csv")
        for method, methods in (("ew", {"stl", "ew"}), ("gcs", {"gcs"})):
            echoed = load_config(shared / f"config_echo_{method}.cfg")
            again = run_experiment(echoed, output_dir=tmp_path / method)
            assert again == [r for r in rows if r.method in methods]

    @pytest.mark.parametrize("method, first, second", [
        ("ew", {}, {"lambda_grid": (0.0, 1.0)}),
        ("fixed_lambda", {"lambda_grid": (0.0, 1.0)},
         {"lambda_grid": (0.0, 1.0), "merge_interval": 7}),
    ], ids=["ew-lambda_grid", "fixed_lambda-merge_interval"])
    def test_keys_the_method_never_reads_may_differ(self, tmp_path, method, first, second):
        from auxlab.runner import load_config

        shared = tmp_path / "shared"
        base = {"method": method, "total_steps": 10, "compute_tg": False}
        run_experiment(small_config(seeds=(0,), **base, **first), output_dir=shared)
        added = run_experiment(small_config(seeds=(0, 1), **base, **second),
                               output_dir=shared)
        assert {r.seed for r in added} == {1}
        echo = load_config(shared / f"config_echo_{method}.cfg")
        assert echo.seeds == (0, 1)
        again = run_experiment(echo, output_dir=tmp_path / "again")
        assert again == read_records(shared / "records.csv")

    @pytest.mark.parametrize("method, key, first, second", [
        ("ew", "base_lr", 0.1, 0.05),
        ("fixed_lambda", "lambda_grid", (0.0, 1.0), (0.0, 0.5, 1.0)),
        ("forkmerge", "merge_interval", 5, 7),
    ])
    def test_a_key_the_method_reads_must_match(self, tmp_path, method, key, first, second):
        base = {"method": method, "total_steps": 10, "compute_tg": False}
        run_experiment(small_config(seeds=(0,), **base, **{key: first}), output_dir=tmp_path)
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ConfigError,
                           match=rf"config_echo_{method}\.cfg.*\(it differs in {key}\)"):
            run_experiment(small_config(seeds=(1,), **base, **{key: second}),
                           output_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written

    def test_partial_job_is_dropped_and_rerun(self, tmp_path):
        cfg = small_config(seeds=(0, 1), compute_tg=False)
        complete = run_experiment(cfg, output_dir=tmp_path)
        path = tmp_path / "records.csv"
        # keep seed 1's first row only, cut at a line end
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))
        added = run_experiment(cfg, output_dir=tmp_path)
        assert {(r.method, r.seed) for r in added} == {("ew", 1)}
        assert read_records(path) == complete

    def test_job_that_raises_leaves_whole_jobs(self, tmp_path, monkeypatch):
        """An exception inside a job propagates with records.csv closed and
        holding the finished jobs' rows alone; a re-run completes the dir."""
        import builtins

        import auxlab.runner as runner_mod

        cfg = small_config(seeds=(0, 1))
        fresh = run_experiment(cfg, output_dir=tmp_path / "fresh")
        real_run, real_open = runner_mod._run_method, builtins.open
        calls, handles = [], []

        def run_method(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("the second job fails")
            return real_run(*args)

        def tracked_open(*args, **kwargs):
            handles.append(real_open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(runner_mod, "_run_method", run_method)
        monkeypatch.setattr(runner_mod, "open", tracked_open, raising=False)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="the second job fails"):
            run_experiment(cfg, output_dir=out)
        assert handles and all(handle.closed for handle in handles)
        path = out / "records.csv"
        assert read_records(path) == [
            r for r in fresh if (r.method, r.seed) == ("stl", 0)]
        assert _timed_jobs(out) == [("stl", 0)]
        monkeypatch.undo()
        run_experiment(cfg, output_dir=out)
        assert read_records(path) == fresh
        assert _timed_jobs(out) == [("stl", 0), ("stl", 1), ("ew", 0), ("ew", 1)]

    def test_every_cut_of_the_records_resumes_to_the_same_bytes(self, tmp_path):
        """A run whose records.csv is cut anywhere, at a line end or inside
        a row or the header, re-runs to the uninterrupted run's records and
        merge histories, byte for byte, and times only the jobs it trains."""
        cfg = small_config(method="forkmerge", total_steps=40, merge_interval=10)
        whole = tmp_path / "whole"
        run_experiment(cfg, output_dir=whole)
        text = (whole / "records.csv").read_text()
        lines = text.splitlines(keepends=True)
        ends = list(itertools.accumulate(map(len, lines)))
        # the offset at which each job's last row ends, in job order
        job_end = {}
        for line, end in zip(lines[1:], ends[1:]):
            method, seed = line.split(",")[:2]
            job_end[method, int(seed)] = end
        assert list(job_end) == [(m, s) for m in ("stl", "forkmerge") for s in (0, 1, 2)]
        histories = sorted(p.name for p in whole.glob("merge_history_*"))
        assert len(histories) == 6
        mid_row = [10, ends[0] + 1, ends[4] + 7, ends[9] + 20, ends[-1] - 1]
        for cut in [0, *ends, *mid_row]:
            copy = tmp_path / f"cut{cut}"
            copy.mkdir()
            for path in whole.glob("config_echo_*.cfg"):
                shutil.copy(path, copy)
            # a crash leaves the histories of the jobs that finished
            for (method, seed), end in job_end.items():
                if method == "forkmerge" and end <= cut:
                    for suffix in ("csv", "json"):
                        shutil.copy(whole / f"merge_history_{method}_seed{seed}.{suffix}", copy)
            (copy / "records.csv").write_text(text[:cut])
            # run and report agree: the jobs read are the jobs the run skips
            read = dict.fromkeys((r.method, r.seed) for r in read_records(copy / "records.csv"))
            assert list(read) == [job for job, end in job_end.items() if end <= cut], cut
            run_experiment(cfg, output_dir=copy)
            for name in ["records.csv", *histories]:
                assert (copy / name).read_bytes() == (whole / name).read_bytes(), (cut, name)
            assert _timed_jobs(copy) == [job for job, end in job_end.items() if end > cut]


def _timings(out_dir):
    with open(out_dir / "timings.csv", newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _timed_jobs(out_dir):
    """The (method, seed) of each job row in ``out_dir``'s timings.csv."""
    return [(r["method"], int(r["seed"])) for r in _timings(out_dir) if r["phase"] == "job"]


class TestTimings:
    """timings.csv holds every wall-clock figure of a run, apart from its
    records and merge histories."""

    def test_one_row_per_job_and_three_per_fork_merge_round(self, tmp_path):
        cfg = small_config(method="forkmerge", seeds=(0, 1), merge_interval=10)
        run_experiment(cfg, output_dir=tmp_path)
        assert (tmp_path / "timings.csv").read_text().splitlines()[0] == (
            "method,seed,round,phase,seconds")
        rows = _timings(tmp_path)
        assert _timed_jobs(tmp_path) == [("stl", 0), ("stl", 1),
                                         ("forkmerge", 0), ("forkmerge", 1)]
        assert all(r["round"] == "" and float(r["seconds"]) > 0
                   for r in rows if r["phase"] == "job")
        # each job's rows together: its rounds in order, then the job's
        assert [(r["method"], r["seed"], r["round"], r["phase"]) for r in rows] == [
            *[("stl", s, "", "job") for s in "01"],
            *[row for s in "01" for row in (
                *[("forkmerge", s, str(k), phase) for k in range(3)
                  for phase in ("train", "search", "round")],
                ("forkmerge", s, "", "job"))]]
        seconds = {(r["seed"], r["round"], r["phase"]): float(r["seconds"]) for r in rows
                   if r["method"] == "forkmerge"}
        for s, k in itertools.product("01", "012"):
            train, search, round_ = (seconds[s, k, phase]
                                     for phase in ("train", "search", "round"))
            assert 0 <= train and 0 <= search and train + search <= round_
            assert round_ <= seconds[s, "", "job"]

    def test_resumed_run_times_only_the_jobs_it_trains(self, tmp_path):
        run_experiment(small_config(seeds=(0,)), output_dir=tmp_path)
        run_experiment(small_config(seeds=(0, 1)), output_dir=tmp_path)
        run_experiment(small_config(seeds=(0, 1)), output_dir=tmp_path)
        assert _timed_jobs(tmp_path) == [("stl", 0), ("ew", 0), ("stl", 1), ("ew", 1)]

    def test_torn_tail_and_unfinished_jobs_are_dropped(self, tmp_path):
        cfg = small_config(compute_tg=False)
        run_experiment(cfg, output_dir=tmp_path)
        records, timings = tmp_path / "records.csv", tmp_path / "timings.csv"
        lines = records.read_text().splitlines(keepends=True)
        # a crash while seed 0's timing row was written: seed 0 is finished,
        # and its torn row is dropped
        records.write_text("".join(lines[:4]))
        timings.write_text("".join(timings.read_text().splitlines(True)[:2])[:-3])
        run_experiment(cfg, output_dir=tmp_path)
        assert _timed_jobs(tmp_path) == [("ew", 1), ("ew", 2)]
        # seed 1 keeps one of its three rows: the whole timing rows of seeds
        # 1 and 2 are dropped with their jobs, which run again
        records.write_text("".join(lines[:5]))
        run_experiment(cfg, output_dir=tmp_path)
        assert _timed_jobs(tmp_path) == [("ew", 1), ("ew", 2)]
        assert records.read_text() == "".join(lines)


def record(method, seed, task_id, value, tg=None, split="test"):
    return ResultRecord(method, seed, task_id, split, "accuracy", value, tg, 0)


class TestReadRecords:
    HEADER = "method,seed,task_id,split,metric,value,tg,psearch_evals\n"

    @pytest.mark.parametrize("keep", [0, 5, len(HEADER) - 1])
    def test_file_cut_within_its_header_holds_no_records(self, tmp_path, keep):
        path = tmp_path / "records.csv"
        path.write_text(self.HEADER[:keep])
        assert read_records(path) == []

    def test_text_past_the_header_is_not_a_cut_header(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(self.HEADER[:-1] + ",extra\n")
        with pytest.raises(ValueError, match="unexpected records header"):
            read_records(path)

    @pytest.mark.parametrize("row", [
        "ew,0,0,test,accuracy,90.0,,0,EXTRA,MORE",
        "ew,0,0,test,accuracy,90.0,,0,",
    ], ids=["two_extra_cells", "one_empty_extra_cell"])
    def test_row_with_extra_cells_is_malformed(self, tmp_path, row):
        path = tmp_path / "records.csv"
        path.write_text(self.HEADER + row + "\n" + "ew,1,0,test,accuracy,80.0,,0\n")
        with pytest.raises(ValueError, match="line 2: malformed record"):
            read_records(path)


class TestAggregate:
    def test_single_method_single_seed_zero_std(self):
        summary = aggregate([record("stl", 0, 0, 80.0)])
        assert summary["stl"]["target_std"] == 0.0
        assert summary["stl"]["n_seeds"] == 1
        assert summary["stl"]["delta_m_pct"] == 0.0

    def test_published_table_reproduced(self):
        stl_acc = (77.6, 41.4, 71.8, 73.0, 84.6, 70.2)
        ew_acc = (78.0, 38.1, 67.2, 50.8, 77.1, 67.0)
        records = [record("stl", 0, t, v) for t, v in enumerate(stl_acc)]
        records += [record("ew", 0, t, v) for t, v in enumerate(ew_acc)]
        summary = aggregate(records)
        assert summary["ew"]["delta_m_pct"] == pytest.approx(-9.62, abs=0.01)
        assert summary["stl"]["delta_m_pct"] == 0.0

    def test_permutation_invariance(self):
        records = [record("stl", s, t, 70.0 + s + t)
                   for s in range(3) for t in range(2)]
        records += [record("ew", s, t, 72.0 + s - t, tg=float(s))
                    for s in range(3) for t in range(2)]
        forward = aggregate(records)
        backward = aggregate(list(reversed(records)))
        assert forward == backward

    def test_delta_m_requires_stl(self):
        summary = aggregate([record("ew", 0, 0, 80.0)])
        assert "delta_m_pct" not in summary["ew"]
        # a diverged (NaN) stl row is no reference either
        summary = aggregate([record("stl", 0, 0, float("nan")), record("ew", 0, 0, 80.0)])
        assert list(summary) == ["ew"] and "delta_m_pct" not in summary["ew"]

    def test_nan_rows_excluded(self):
        records = [record("stl", 0, 0, 80.0), record("stl", 1, 0, float("nan"))]
        summary = aggregate(records)
        assert summary["stl"]["n_seeds"] == 1
        assert summary["stl"]["target_mean"] == 80.0

    def test_val_rows_ignored(self):
        records = [record("stl", 0, 0, 80.0),
                   record("stl", 0, 0, 99.0, split="val")]
        summary = aggregate(records)
        assert summary["stl"]["target_mean"] == 80.0

    def test_tg_median_over_seeds(self):
        records = [record("stl", s, 0, 70.0) for s in range(3)]
        records += [record("fm", s, 0, 70.0, tg=g)
                    for s, g in enumerate((-1.0, 2.0, 5.0))]
        summary = aggregate(records)
        assert summary["fm"]["tg_median"] == 2.0
        assert summary["fm"]["tg_mean"] == 2.0


# the classes whose fields declare their domains with `within`, the config's
# own first
SETTINGS = (ExperimentConfig, TaskFamilyConfig, OptConfig, MergeSchedule, ModelSpec, HeadSpec)
DECLARED = [(cls, f.name, f.metadata["domain"]) for cls in SETTINGS
            for f in dataclasses.fields(cls) if "domain" in f.metadata]
CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _in_domain(domain, x) -> bool:
    """Whether ``x`` lies in the declared ``domain``, read here on its own."""
    if isinstance(domain, tuple):
        return x in domain
    return (not isinstance(x, float) or math.isfinite(x)) and {
        "> 0": x > 0, ">= 0": x >= 0, ">= 1": x >= 1, ">= 2": x >= 2,
        "in [0, 1]": 0 <= x <= 1, "in [0, 1)": 0 <= x < 1}[domain]


def _draws(cls, key, domain):
    """Values of ``key``'s type from its whole range: floats with NaN and
    ±inf, ints of any sign, any text, and the domain's names."""
    ints, floats = st.integers(), st.floats()
    if key == "n_tasks":  # each task adds entries to the config; see below
        ints = st.integers(max_value=64)
    if key == "n_train":  # a per-task tuple's length is the family's rule
        return ints | st.lists(ints, min_size=2, max_size=2).map(tuple)
    hint = get_type_hints(cls)[key]
    if hint is str:
        return st.text(max_size=12) | st.sampled_from(domain)
    return {
        int: ints, float: floats, int | None: st.none() | ints,
        tuple[int, ...]: st.lists(ints, max_size=3).map(tuple),
        tuple[float, ...]: st.lists(floats, max_size=3).map(tuple),
    }[hint]


class TestConfigValidation:
    @pytest.mark.parametrize("cls, key, domain", DECLARED,
                             ids=[f"{cls.__name__}.{key}" for cls, key, _ in DECLARED])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_declared_domain_holds_or_names_its_key(self, cls, key, domain, data):
        value = data.draw(_draws(cls, key, domain), label=key)
        overrides = {key: value}
        if key == "n_tasks" and value >= 1:  # one relatedness per auxiliary task
            overrides["relatedness"] = (0.5,) * (value - 1)
        try:
            if key in CONFIG_KEYS:  # a forkmerge config builds every settings class
                config = ExperimentConfig(**{"method": "forkmerge", "seeds": (0,), **overrides})
                accepted = getattr(config, key)
            else:  # HeadSpec's fields are not config keys
                accepted = getattr(cls(**{"output_dim": 4, **overrides}), key)
        except ValueError as exc:
            assert str(exc).startswith(key), str(exc)
            assert key not in CONFIG_KEYS or isinstance(exc, ConfigError)
            return
        entries = accepted if isinstance(accepted, tuple) else (accepted,)
        assert accepted is None or all(_in_domain(domain, x) for x in entries)

    def test_defaults_match_the_library_defaults(self):
        # each settings field is the config key of its name, with its type and
        # default; the runner computes the family's seed
        keys = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        key_hints = get_type_hints(ExperimentConfig)
        for cls in (TaskFamilyConfig, OptConfig, MergeSchedule):
            hints = get_type_hints(cls)
            for field in dataclasses.fields(cls):
                if (cls, field.name) == (TaskFamilyConfig, "seed"):
                    continue
                name = f"{cls.__name__}.{field.name}"
                assert field.name in keys, name
                assert hints[field.name] == key_hints[field.name], name
                if field.default is not dataclasses.MISSING:
                    assert keys[field.name].default == field.default, name

    def test_readme_config_reference_lists_every_key_with_its_default(self):
        section = README.read_text(encoding="utf-8").split("## Config reference\n")[1]
        rows = [line.split("|")[1:4] for line in section.split("\n## ")[0].splitlines()
                if line.startswith("| `")]
        documented = [tuple(cell.strip() for cell in row) for row in rows]
        # a key's domain is the first declaration of it in SETTINGS order
        domains = {}
        for _, key, domain in DECLARED:
            domains.setdefault(key, ", ".join(f"`{name}`" for name in domain)
                               if isinstance(domain, tuple) else f"`{domain}`")
        echo = config_to_text(ExperimentConfig(method="ew", seeds=(0,)))
        assert documented == [
            (f"`{key}`", "—" if key in ("method", "seeds") else "`" + (value or '""') + "`",
             domains.get(key, "—"))
            for key, value in (line.split(" = ", 1) for line in echo.splitlines())]

    def test_readme_file_headers_are_the_columns(self):
        text = README.read_text(encoding="utf-8")
        for name, columns in (("records.csv", RECORD_COLUMNS),
                              ("timings.csv", TIMING_COLUMNS)):
            block = text.split(f"`{name}` has one row per")[1].split("```\n")[1]
            assert block == ",".join(columns) + "\n", name

    def test_branch_weights_arity(self):
        with pytest.raises(ConfigError, match="branch_weights"):
            ExperimentConfig(method="forkmerge", seeds=(0,),
                             branch_weights=((1.0, 0.0, 0.5),))

    def test_merge_grid_rules_bind_fork_methods_only(self):
        ExperimentConfig(method="fixed_lambda", seeds=(0,), lambda_grid=(0.5,))
        for method in ("forkmerge", "forkmerge_multi"):
            with pytest.raises(ConfigError, match="lambda_grid"):
                ExperimentConfig(method=method, seeds=(0,), lambda_grid=(0.5,))

    def test_pre_steps_bound_only_for_post_train(self):
        ExperimentConfig(method="stl", seeds=(0,), total_steps=10,
                         pre_steps=1000)
        with pytest.raises(ConfigError, match="pre_steps"):
            ExperimentConfig(method="post_train", seeds=(0,), total_steps=10,
                             pre_steps=1000)
