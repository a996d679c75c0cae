import dataclasses
import math

import pytest

from auxlab.runner import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    aggregate,
    config_to_text,
    parse_config_text,
    read_records,
    run_experiment,
)

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

    def test_echo_round_trip(self):
        cfg = parse_config_text(BASE_TEXT)
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_echo_round_trip_with_exotic_fields(self):
        cfg = parse_config_text(
            "method = forkmerge\nseeds = 1\nbranch_weights = 1,0;1,1;1,0.5\n"
            "prune_to = 2\nn_train = 200,2000\nhidden_dims = \n"
            "val_subsample = 50"
        )
        again = parse_config_text(config_to_text(cfg))
        assert again == cfg
        assert again.branch_weights == ((1.0, 0.0), (1.0, 1.0), (1.0, 0.5))
        assert again.hidden_dims == ()
        assert again.n_train == (200, 2000)


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

    def test_compute_tg_off_skips_stl(self, tmp_path):
        records = run_experiment(
            small_config(compute_tg=False), output_dir=tmp_path
        )
        assert {r.method for r in records} == {"ew"}
        assert all(r.tg is None for r in records)

    def test_rerun_identical_excluding_wall(self, tmp_path):
        a = run_experiment(small_config(), output_dir=tmp_path / "a")
        b = run_experiment(small_config(), output_dir=tmp_path / "b")
        strip = lambda r: dataclasses.replace(r, wall_s=0.0)  # noqa: E731
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_records_csv_round_trip(self, tmp_path):
        records = run_experiment(small_config(), output_dir=tmp_path)
        loaded = read_records(tmp_path / "records.csv")
        assert loaded == records

    def test_config_echo_reproduces(self, tmp_path):
        from auxlab.runner import load_config

        run_experiment(small_config(seeds=(4,)), output_dir=tmp_path / "first")
        echoed = load_config(tmp_path / "first" / "config_echo_ew.cfg")
        again = run_experiment(echoed, output_dir=tmp_path / "second")
        first = read_records(tmp_path / "first" / "records.csv")
        strip = lambda r: dataclasses.replace(r, wall_s=0.0)  # noqa: E731
        assert [strip(r) for r in first] == [strip(r) for r in again]

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
        write_family(generate_family(runner_mod._family_config(cfg, 0)), cfg.data_dir)
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


def _strip_wall(records):
    return [dataclasses.replace(r, wall_s=0.0) for r in records]


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
        assert sorted(_strip_wall(read_records(tmp_path / "records.csv")), key=key) == (
            sorted(_strip_wall(fresh), key=key))

    def test_skipped_stl_job_still_feeds_tg(self, tmp_path):
        run_experiment(small_config(method="stl", seeds=(0,)), output_dir=tmp_path)
        added = run_experiment(small_config(seeds=(0,)), output_dir=tmp_path)
        assert {r.method for r in added} == {"ew"}
        fresh = run_experiment(small_config(seeds=(0,)), output_dir=tmp_path / "fresh")
        assert _strip_wall(added) == _strip_wall([r for r in fresh if r.method == "ew"])
        assert any(r.tg is not None for r in added)

    def test_other_methods_keep_appending(self, tmp_path):
        run_experiment(small_config(seeds=(0,)), output_dir=tmp_path)
        added = run_experiment(small_config(method="gcs", seeds=(0,), compute_tg=False),
                               output_dir=tmp_path)
        assert {r.method for r in added} == {"gcs"}
        methods = [r.method for r in read_records(tmp_path / "records.csv")]
        assert methods == ["stl"] * 3 + ["ew"] * 3 + ["gcs"] * 3

    def test_each_methods_echo_reproduces_its_rows(self, tmp_path):
        from auxlab.runner import load_config

        shared = tmp_path / "shared"
        run_experiment(small_config(seeds=(0,)), output_dir=shared)
        run_experiment(small_config(method="gcs", seeds=(0,), compute_tg=False),
                       output_dir=shared)
        rows = _strip_wall(read_records(shared / "records.csv"))
        for method, methods in (("ew", {"stl", "ew"}), ("gcs", {"gcs"})):
            echoed = load_config(shared / f"config_echo_{method}.cfg")
            again = run_experiment(echoed, output_dir=tmp_path / method)
            assert _strip_wall(again) == [r for r in rows if r.method in methods]

    def test_partial_job_is_dropped_and_rerun(self, tmp_path):
        cfg = small_config(seeds=(0, 1), compute_tg=False)
        complete = run_experiment(cfg, output_dir=tmp_path)
        path = tmp_path / "records.csv"
        # keep seed 1's first row only, cut at a line end
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))
        added = run_experiment(cfg, output_dir=tmp_path)
        assert {(r.method, r.seed) for r in added} == {("ew", 1)}
        assert _strip_wall(read_records(path)) == _strip_wall(complete)


def record(method, seed, task_id, value, tg=None, split="test"):
    return ResultRecord(method, seed, task_id, split, "accuracy", value, tg, 0,
                        0.0)


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
        with pytest.raises(ValueError, match="stl"):
            aggregate([record("ew", 0, 0, 80.0)])
        summary = aggregate([record("ew", 0, 0, 80.0)], want_delta_m=False)
        assert "delta_m_pct" not in summary["ew"]

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


class TestConfigValidation:
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
