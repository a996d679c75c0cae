import numpy as np
import pytest

import auxlab.baselines as baselines_mod
from auxlab.baselines import (
    instantaneous_gcs_weights,
    run_ew,
    run_fixed_lambda,
    run_gcs_weighting,
    run_post_train,
    run_single_task,
    run_stl,
)
from auxlab.forkmerge import draw_batch
from auxlab.nn import (HeadSpec, ModelSpec, evaluate, init_params, loss_and_gradient,
                       param_count)
from auxlab.optim import OptConfig, TaskWeighting, sgd_step, weighted_gradient
from auxlab.tasks import DataSplit, TaskFamilyConfig, generate_family
from auxlab.vectors import RngStream


def family_for(relatedness, seed=17, **kw):
    defaults = dict(n_train=400, n_val=200, n_test=200, noise_std=0.5)
    defaults.update(kw)
    return generate_family(
        TaskFamilyConfig(
            n_tasks=1 + len(relatedness), relatedness=tuple(relatedness),
            seed=seed, **defaults,
        )
    )


def model_spec_for(family, hidden=(8,)):
    heads = {t: HeadSpec(family.n_classes) for t in family.task_ids}
    return ModelSpec(family.input_dim, hidden, "tanh", heads)


OPT = OptConfig(base_lr=0.1, batch_size=32)


def assert_bitwise_equal(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64),
                                  np.asarray(b).view(np.uint64))


def spy_on_lockstep_calls(monkeypatch):
    """Record every `train_branches` call the baselines make, with its
    arguments and result; returns the list and the real function."""
    real = baselines_mod.train_branches
    calls = []

    def spy(start, branches, *rest):
        trained = real(start, branches, *rest)
        calls.append((start, branches, rest, trained))
        return trained

    monkeypatch.setattr(baselines_mod, "train_branches", spy)
    return calls, real


def assert_each_branch_trains_alone_to_the_same_bits(calls, real):
    for start, branches, rest, trained in calls:
        assert len(trained) == len(branches)
        for branch, got in zip(branches, trained):
            [alone] = real(start, [branch], *rest)
            assert_bitwise_equal(got, alone)


def gcs_loop(family, spec, total_steps, opt_cfg, seed):
    """The per-step loop `run_gcs_weighting` ran before it trained through
    `train_branches`: draw, per-task gradients, weights, mix, step."""
    root = RngStream(seed)
    params = init_params(spec, root.child("init"))
    buffer = np.zeros_like(params)
    history = []
    for step in range(total_steps):
        grads = {}
        for task_id in family.task_ids:
            split = family.train(task_id)
            idx = draw_batch(split, root, task_id, range(step, step + 1),
                             opt_cfg.batch_size)[0]
            batch = DataSplit(split.inputs[idx], split.targets[idx], task_id)
            _, grads[task_id] = loss_and_gradient(spec, params, batch)
        weights = instantaneous_gcs_weights(spec, grads, family.target_id)
        history.append(dict(weights))
        weights[family.target_id] = 1.0
        w = TaskWeighting(weights, target_id=family.target_id)
        params, buffer = sgd_step(params, buffer, weighted_gradient(grads, w),
                                  opt_cfg.momentum_coeff,
                                  opt_cfg.learning_rate(step, total_steps))
    return params, history


class TestStl:
    def test_zero_steps_returns_init(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        params = run_stl(fam, spec, 0, OPT, seed=3)
        expected = init_params(spec, RngStream(3).child("init"))
        np.testing.assert_array_equal(params, expected)

    def test_learns_separable_classes(self):
        fam = family_for([0.5], n_classes=2, noise_std=0.15, seed=1)
        spec = model_spec_for(fam)
        params = run_stl(fam, spec, 400, OPT, seed=1)
        perf = evaluate(spec, params, fam.test(0), 0)
        assert perf.metric == "accuracy"
        assert perf.value >= 0.95

    def test_deterministic(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        a = run_stl(fam, spec, 50, OPT, seed=7)
        b = run_stl(fam, spec, 50, OPT, seed=7)
        assert_bitwise_equal(a, b)


    def test_lockstep_models_equal_each_trained_alone(self, monkeypatch):
        fam = family_for([0.8, 0.2], seed=4)
        spec = model_spec_for(fam)
        calls, real = spy_on_lockstep_calls(monkeypatch)
        trained = run_single_task(fam, spec, fam.task_ids, 30, OPT, seed=4)
        assert [len(branches) for _, branches, _, _ in calls] == [3]
        assert_each_branch_trains_alone_to_the_same_bits(calls, real)
        for task_id, params in zip(fam.task_ids, trained):
            [alone] = run_single_task(fam, spec, [task_id], 30, OPT, seed=4)
            assert_bitwise_equal(params, alone)
        assert_bitwise_equal(trained[0], run_stl(fam, spec, 30, OPT, seed=4))


class TestEw:
    def test_no_auxiliaries_degenerates_to_stl(self):
        fam = family_for([])  # a single-task family
        spec = model_spec_for(fam)
        ew_params = run_ew(fam, spec, 60, OPT, seed=5)
        stl_params = run_stl(fam, spec, 60, OPT, seed=5)
        assert_bitwise_equal(ew_params, stl_params)


def score_each_lambda_alone(family, spec, steps, grid, seed):
    """Each grid value's run, trained as a one-value grid, and its score on
    target validation data, in grid order."""
    runs = [run_fixed_lambda(family, spec, steps, [lam], OPT, seed) for lam in grid]
    val, target = family.val(family.target_id), family.target_id
    return runs, [evaluate(spec, params, val, target) for params in runs]


def first_best(perfs):
    best = max(perf.value for perf in perfs)
    return [perf.value for perf in perfs].index(best)


class TestFixedLambda:
    def test_zero_only_grid_is_stl(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        params = run_fixed_lambda(fam, spec, 40, [0.0], OPT, seed=2)
        stl_params = run_stl(fam, spec, 40, OPT, seed=2)
        np.testing.assert_array_equal(params, stl_params)

    def test_one_only_grid_is_ew(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        params = run_fixed_lambda(fam, spec, 40, [1.0], OPT, seed=2)
        ew_params = run_ew(fam, spec, 40, OPT, seed=2)
        np.testing.assert_array_equal(params, ew_params)

    def test_three_point_grid_trains_three_times(self, monkeypatch):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        calls, _ = spy_on_lockstep_calls(monkeypatch)
        params = run_fixed_lambda(fam, spec, 30, [0.0, 0.5, 1.0], OPT, seed=2)
        [(_, branches, _, _)] = calls
        assert [w.weights[1] for w in branches] == [0.0, 0.5, 1.0]
        # the pick is the first best of the grid's runs on target validation
        runs, perfs = score_each_lambda_alone(fam, spec, 30, [0.0, 0.5, 1.0], seed=2)
        assert_bitwise_equal(params, runs[first_best(perfs)])

    def test_ties_go_to_the_earlier_grid_value(self, monkeypatch):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        tie = evaluate(spec, init_params(spec, RngStream(0)), fam.val(0), 0)
        monkeypatch.setattr(baselines_mod.nn, "evaluate", lambda *args: tie)
        params = run_fixed_lambda(fam, spec, 30, [0.5, 0.0, 1.0], OPT, seed=2)
        assert_bitwise_equal(params, run_fixed_lambda(fam, spec, 30, [0.5], OPT, seed=2))

    def test_lockstep_grid_equals_each_run_alone(self, monkeypatch):
        fam = family_for([0.8, 0.2], seed=2)
        spec = model_spec_for(fam)
        grid = [0.0, 0.3, 1.0, 0.5]
        calls, real = spy_on_lockstep_calls(monkeypatch)
        params = run_fixed_lambda(fam, spec, 30, grid, OPT, seed=2)
        assert [len(branches) for _, branches, _, _ in calls] == [len(grid)]
        assert_each_branch_trains_alone_to_the_same_bits(calls, real)
        # every grid point is the single-value grid's run
        monkeypatch.setattr(baselines_mod, "train_branches", real)
        runs, perfs = score_each_lambda_alone(fam, spec, 30, grid, seed=2)
        for got, alone in zip(calls[0][3], runs):
            assert_bitwise_equal(got, alone)
        assert_bitwise_equal(params, runs[first_best(perfs)])

    def test_empty_grid_rejected(self):
        fam = family_for([0.5])
        with pytest.raises(ValueError):
            run_fixed_lambda(fam, model_spec_for(fam), 10, [], OPT, seed=0)


class TestGcsWeights:
    def setup_method(self):
        fam = family_for([0.5], seed=9)
        self.spec = model_spec_for(fam)
        params = init_params(self.spec, RngStream(9).child("init"))
        from auxlab.forkmerge import draw_batch

        split = fam.train(0)
        idx = draw_batch(split, RngStream(9), 0, range(0, 1), 32)[0]
        batch = DataSplit(split.inputs[idx], split.targets[idx], 0)
        _, self.g_tgt = loss_and_gradient(self.spec, params, batch)

    def test_copy_of_target_gradient_gets_full_weight(self):
        w = instantaneous_gcs_weights(
            self.spec, {0: self.g_tgt, 1: self.g_tgt.copy()}, 0
        )
        assert w == {1: pytest.approx(1.0, abs=1e-12)}

    def test_opposed_gradient_is_muted(self):
        w = instantaneous_gcs_weights(self.spec, {0: self.g_tgt, 1: -self.g_tgt}, 0)
        assert w == {1: 0.0}

    def test_zero_gradient_is_muted(self):
        w = instantaneous_gcs_weights(
            self.spec, {0: self.g_tgt, 1: np.zeros_like(self.g_tgt)}, 0
        )
        assert w == {1: 0.0}

    def test_disjoint_support_without_encoder(self):
        # no shared trunk at all: per-head gradients cannot overlap
        spec = ModelSpec(2, (), "tanh", {0: HeadSpec(3), 1: HeadSpec(3)})
        n = param_count(spec)
        g0 = np.zeros(n)
        g0[:3] = 1.0
        g1 = np.zeros(n)
        g1[-3:] = 1.0
        assert instantaneous_gcs_weights(spec, {0: g0, 1: g1}, 0) == {1: 0.0}


def spy_on_gcs_weights(monkeypatch):
    """Record the auxiliary weights `instantaneous_gcs_weights` returns at
    each step of the baselines' training; returns the list."""
    real = baselines_mod.instantaneous_gcs_weights
    history = []

    def spy(*args):
        weights = real(*args)
        history.append(dict(weights))
        return weights

    monkeypatch.setattr(baselines_mod, "instantaneous_gcs_weights", spy)
    return history


class TestGcsTraining:
    def test_weights_stay_in_unit_interval(self, monkeypatch):
        fam = family_for([0.8, 0.1], seed=12)
        spec = model_spec_for(fam)
        history = spy_on_gcs_weights(monkeypatch)
        run_gcs_weighting(fam, spec, 40, OPT, seed=12)
        assert len(history) == 40
        for step_weights in history:
            assert set(step_weights) == {1, 2}
            for lam in step_weights.values():
                assert 0.0 <= lam <= 1.0

    def test_disjoint_support_trajectory_is_stl(self, monkeypatch):
        fam = family_for([0.5], seed=8)
        spec = ModelSpec(
            fam.input_dim, (), "tanh",
            {t: HeadSpec(fam.n_classes) for t in fam.task_ids},
        )
        history = spy_on_gcs_weights(monkeypatch)
        params = run_gcs_weighting(fam, spec, 50, OPT, seed=8)
        stl_params = run_stl(fam, spec, 50, OPT, seed=8)
        assert len(history) == 50 and all(w == {1: 0.0} for w in history)
        np.testing.assert_array_equal(params, stl_params)

    def test_matches_the_per_step_loop_bitwise(self, monkeypatch):
        # an unrelated task conflicts with the target often enough that its
        # cosine clamps to 0 and it drops out of some steps' mix
        fam = family_for([0.8, 0.0], seed=5)
        spec = model_spec_for(fam)
        got_history = spy_on_gcs_weights(monkeypatch)
        got = run_gcs_weighting(fam, spec, 60, OPT, seed=5)
        params, history = gcs_loop(fam, spec, 60, OPT, seed=5)
        assert_bitwise_equal(got, params)
        assert got_history == history
        weights = [w for step in history for w in step.values()]
        assert 0.0 in weights and max(weights) > 0.0

    def test_deterministic(self, monkeypatch):
        fam = family_for([0.6], seed=3)
        spec = model_spec_for(fam)
        history = spy_on_gcs_weights(monkeypatch)
        a = run_gcs_weighting(fam, spec, 25, OPT, seed=3)
        b = run_gcs_weighting(fam, spec, 25, OPT, seed=3)
        np.testing.assert_array_equal(a, b)
        assert len(history) == 50 and history[:25] == history[25:]


class TestPostTrain:
    def test_no_pretraining_is_stl(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        pt_params = run_post_train(fam, spec, 0, 40, OPT, seed=6)
        stl_params = run_stl(fam, spec, 40, OPT, seed=6)
        assert_bitwise_equal(pt_params, stl_params)

    def test_no_finetuning_is_ew(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        pt_params = run_post_train(fam, spec, 40, 0, OPT, seed=6)
        ew_params = run_ew(fam, spec, 40, OPT, seed=6)
        np.testing.assert_array_equal(pt_params, ew_params)

    def test_phases_share_one_schedule(self):
        # a 20+20 split must differ from 40 steps of either pure method
        fam = family_for([0.9])
        spec = model_spec_for(fam)
        pt_params = run_post_train(fam, spec, 20, 20, OPT, seed=6)
        stl_params = run_stl(fam, spec, 40, OPT, seed=6)
        ew_params = run_ew(fam, spec, 40, OPT, seed=6)
        assert not np.array_equal(pt_params, stl_params)
        assert not np.array_equal(pt_params, ew_params)
