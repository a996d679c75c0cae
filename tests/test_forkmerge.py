import json
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import auxlab.forkmerge as fm
from auxlab.forkmerge import (
    BranchDivergedError,
    MergeRecord,
    MergeSchedule,
    draw_batch,
    greedy_search_lambda,
    make_omega_branches,
    merge_coeffs_from_task_weights,
    run_forkmerge,
    search_lambda_binary,
    search_lambda_grid,
    train_branches,
)
from auxlab.nn import (
    CROSS_ENTROPY,
    MEAN_SQUARED_ERROR,
    HeadSpec,
    ModelSpec,
    evaluate,
    head_slice,
    init_params,
)
from auxlab.optim import OptConfig, TaskWeighting
from auxlab.runner import _write_merge_history
from auxlab.tasks import DataSplit, TaskFamilyConfig, generate_family
from auxlab.vectors import NonFiniteError, RngStream, linear_combination


def family_for(relatedness, seed=17, **kw):
    defaults = dict(n_train=400, n_val=200, n_test=200, noise_std=0.5)
    defaults.update(kw)
    return generate_family(
        TaskFamilyConfig(
            n_tasks=1 + len(relatedness), relatedness=tuple(relatedness),
            seed=seed, **defaults,
        )
    )


def model_spec_for(family, hidden=(8,), activation="tanh"):
    heads = {t: HeadSpec(family.n_classes) for t in family.task_ids}
    return ModelSpec(family.input_dim, hidden, activation, heads)


class TestOmegaBranches:
    def test_single_aux_is_the_two_branch_setup(self):
        branches = make_omega_branches(1)
        assert len(branches) == 2
        assert branches[0].weights == {0: 1.0}
        assert branches[1].weights == {0: 1.0, 1: 1.0}
        assert branches[0].active_tasks == (0,)

    def test_counts(self):
        assert len(make_omega_branches(2)) == 3
        branches = make_omega_branches(5)
        assert len(branches) == 6
        for b in branches:
            assert len(b.active_tasks) <= 2

    def test_rejects_zero_aux(self):
        with pytest.raises(ValueError):
            make_omega_branches(0)


class TestMergeCoeffs:
    def test_construction(self):
        assert merge_coeffs_from_task_weights([0.3, 0.2]) == [0.5, 0.3, 0.2]

    def test_rejects_overweight(self):
        with pytest.raises(ValueError):
            merge_coeffs_from_task_weights([0.8, 0.5])
        with pytest.raises(ValueError):
            merge_coeffs_from_task_weights([-0.1])


class TestTrainBranch:
    def test_deterministic(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        start = init_params(spec, RngStream(3).child("init"))
        opt = OptConfig(0.1, lr_schedule="constant", batch_size=32)
        branch = TaskWeighting({0: 1.0, 1: 0.5})
        a = train_branches(start, [branch], range(20), 20, fam, spec, opt, RngStream(3))[0]
        b = train_branches(start, [branch], range(20), 20, fam, spec, opt, RngStream(3))[0]
        assert np.array_equal(a, b)

    def test_matches_hand_rolled_sgd(self):
        # independent oracle: drive the same batches through an explicit loop
        from auxlab.nn import loss_and_gradient
        from auxlab.optim import sgd_step, weighted_gradient

        fam = family_for([0.4])
        spec = model_spec_for(fam, hidden=(4,))
        start = init_params(spec, RngStream(5).child("init"))
        opt = OptConfig(0.05, momentum=0.9, lr_schedule="constant", batch_size=16)
        branch = TaskWeighting({0: 1.0, 1: 0.7})
        got = train_branches(start, [branch], range(10), 10, fam, spec, opt, RngStream(5))[0]

        params, buffer = start, np.zeros_like(start)
        for step in range(10):
            grads = {}
            for task_id in (0, 1):
                split = fam.train(task_id)
                idx = draw_batch(split, RngStream(5), task_id, range(step, step + 1), 16)[0]
                batch = DataSplit(split.inputs[idx], split.targets[idx], task_id)
                _, grads[task_id] = loss_and_gradient(spec, params, batch)
            g = weighted_gradient(grads, branch)
            params, buffer = sgd_step(params, buffer, g, 0.9, opt.learning_rate(step, 10))
        np.testing.assert_array_equal(got, params)

    def test_starts_with_zero_momentum(self):
        # with μ = 0.9, one step from a zero buffer is θ − η(t0)·g
        from auxlab.nn import loss_and_gradient
        from auxlab.optim import weighted_gradient

        fam = family_for([0.4])
        spec = model_spec_for(fam, hidden=(4,))
        start = init_params(spec, RngStream(5).child("init"))
        opt = OptConfig(0.05, momentum=0.9, batch_size=16)
        branch = TaskWeighting({0: 1.0, 1: 0.7})
        [got] = train_branches(start, [branch], range(7, 8), 40, fam, spec, opt, RngStream(5))

        grads = {}
        for t in (0, 1):
            split = fam.train(t)
            idx = draw_batch(split, RngStream(5), t, range(7, 8), 16)[0]
            batch = DataSplit(split.inputs[idx], split.targets[idx], t)
            grads[t] = loss_and_gradient(spec, start, batch)[1]
        g = weighted_gradient(grads, branch)
        assert 0.0 < opt.learning_rate(7, 40) < 0.05
        np.testing.assert_array_equal(got, start - opt.learning_rate(7, 40) * g)

    def test_one_step_merge_identity_on_shared_draws(self):
        fam = family_for([0.6])
        spec = model_spec_for(fam)
        start = init_params(spec, RngStream(7).child("init"))
        opt = OptConfig(0.1, momentum=0.0, lr_schedule="constant", batch_size=32)
        root = RngStream(7)

        def branch_after(lam):
            b = TaskWeighting({0: 1.0, 1: lam})
            return train_branches(start, [b], range(1), 1, fam, spec, opt, root)[0]

        theta0, theta1 = branch_after(0.0), branch_after(1.0)
        for lam in (0.25, 0.5, 0.8):
            direct = branch_after(lam)
            merged = linear_combination([1 - lam, lam], [theta0, theta1])
            np.testing.assert_allclose(direct, merged, rtol=1e-12, atol=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        from auxlab.vectors import NonFiniteError

        fam = family_for([0.5])
        heads = {0: HeadSpec(1, MEAN_SQUARED_ERROR), 1: HeadSpec(4, CROSS_ENTROPY)}
        spec = ModelSpec(2, (4,), "relu", heads)
        start = init_params(spec, RngStream(1).child("init"))
        opt = OptConfig(1e8, momentum=0.0, lr_schedule="constant", batch_size=16)
        branch = TaskWeighting({0: 1.0})
        with pytest.raises(NonFiniteError):
            train_branches(start, [branch], range(20), 20, fam, spec, opt, RngStream(1))


class TestTrainBranches:
    def setup_method(self):
        self.fam = family_for([0.7, 0.3], seed=6)
        self.spec = model_spec_for(self.fam)
        self.start = init_params(self.spec, RngStream(9).child("init"))
        self.opt = OptConfig(0.1, momentum=0.9, lr_schedule="constant", batch_size=32)

    def train(self, branches, steps):
        return train_branches(self.start, branches, steps, 80, self.fam, self.spec,
                              self.opt, RngStream(9))

    def test_lockstep_matches_branches_trained_alone(self):
        branches = make_omega_branches(2)
        together = self.train(branches, range(3, 18))
        assert len(together) == len(branches)
        for branch, got in zip(branches, together):
            [alone] = self.train([branch], range(3, 18))
            np.testing.assert_array_equal(got, alone)

    def test_each_task_batch_drawn_once_per_step(self, monkeypatch):
        import auxlab.forkmerge as fm

        drawn = []

        def counting_draw(split, root, task_id, steps, batch_size):
            drawn.extend((task_id, step) for step in steps)
            return draw_batch(split, root, task_id, steps, batch_size)

        monkeypatch.setattr(fm, "draw_batch", counting_draw)
        self.train(make_omega_branches(2), range(3, 7))
        # 3 tasks over 5 branch-task uses per step: one draw per (task, step)
        assert sorted(drawn) == [(t, s) for t in (0, 1, 2) for s in range(3, 7)]
        # across chunks, and never for task 1, which no branch uses
        drawn.clear()
        self.train(make_omega_branches(2)[::2], range(3, 73))
        assert sorted(drawn) == [(t, s) for t in (0, 2) for s in range(3, 73)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_earliest_step_then_lowest_position(self):
        # the target-only branch survives step 0 and diverges later; both
        # branches with an enormous auxiliary weight overflow at step 0
        fam = family_for([0.5, 0.5])
        spec = model_spec_for(fam, activation="relu")
        branches = [
            TaskWeighting({0: 1.0}),
            TaskWeighting({0: 1.0, 2: 1e300}),
            TaskWeighting({0: 1.0, 1: 1e300}),
        ]
        opt = OptConfig(base_lr=1e300, momentum=0.0, lr_schedule="constant")
        schedule = MergeSchedule(total_steps=40, merge_interval=20)
        with pytest.raises(BranchDivergedError) as err:
            run_forkmerge(fam, spec, schedule, branches, opt, 0)
        assert (err.value.branch_id, err.value.step, err.value.round_index) == (1, 0, 0)
        assert isinstance(err.value, NonFiniteError)
        # alone, the target-only branch does get through its first step
        start = init_params(spec, RngStream(0).child("init"))
        train_branches(start, branches[:1], range(1), 40, fam, spec, opt, RngStream(0))


def regression_spec():
    return ModelSpec(2, (), "relu", {0: HeadSpec(1, MEAN_SQUARED_ERROR)})


def regression_val(n=200, seed=0):
    # targets equal the first feature: the ideal head weight vector is (1, 0)
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 2))
    return DataSplit(x, x[:, 0].copy(), 0)


def reference_draw(split, root, task_id, step, batch_size):
    """The indices a fresh generator on the (task, step) stream draws."""
    gen = root.child("batch", task_id, step).generator()
    return gen.integers(0, len(split), size=batch_size)


def index_split(n):
    # row i holds i
    return DataSplit(np.arange(n, dtype=np.float64).reshape(n, 1), np.arange(n), 0)


class Rows:
    """A split of ``n`` rows, as far as ``draw_batch`` reads one."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


class TestDrawBatch:
    """``draw_batch`` reads the raw Philox words of many steps' streams from
    one re-keyed bit generator and scales them itself; every row must equal
    a fresh generator's draw, bit for bit."""

    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5], ids=["0", "-1", "2^64+5"])
    @pytest.mark.parametrize("child", [False, True], ids=["root", "child"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2000, 20_000, 65_537, 2**31 + 1,
                                   2**32 - 1, 2**32, 2**33 + 5])
    def test_every_row_equals_a_fresh_generator(self, monkeypatch, seed, child, n):
        root = RngStream(seed).child("sweep") if child else RngStream(seed)
        real, built = RngStream.generator, []

        def counting(stream):
            built.append(stream)
            return real(stream)

        # the last range crosses the training chunk's 64-step boundary
        for steps in (range(3), range(2**40, 2**40 + 3), range(30, 100)):
            for batch_size in (1, 7, 63, 64, 65):
                with monkeypatch.context() as patched:
                    patched.setattr(RngStream, "generator", counting)
                    got = draw_batch(Rows(n), root, 2, steps, batch_size)
                assert got.shape == (len(steps), batch_size)
                for row, step in zip(got, steps):
                    np.testing.assert_array_equal(
                        row, reference_draw(Rows(n), root, 2, step, batch_size))
        if n == 2**31 + 1:
            assert built  # about half of the words are rejected and redrawn

    def test_empty_split_raises(self):
        with pytest.raises(ValueError):
            draw_batch(Rows(0), RngStream(0), 0, range(2), 4)

    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5], ids=["0", "-1", "2^64+5"])
    @pytest.mark.parametrize("n", [1, 2000, 20_000])
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_equals_fresh_generator(self, seed, n, batch_size):
        split = index_split(n)
        root = RngStream(seed)
        for task_id, step in ((0, 0), (3, 17), (1, 2**40)):
            got = draw_batch(split, root, task_id, range(step, step + 1), batch_size)[0]
            expected = reference_draw(split, root, task_id, step, batch_size)
            np.testing.assert_array_equal(got, expected)

    def test_interleaved_keys(self):
        split = index_split(2000)
        roots = (RngStream(0), RngStream(7), RngStream(0).child("sweep"))
        keys = [(root, t, step) for step in range(3) for t in (0, 1) for root in roots]
        rng = np.random.default_rng(0)
        for k in rng.permutation(len(keys)).tolist() + [0, 0, 5, 0]:
            root, t, step = keys[k]
            np.testing.assert_array_equal(
                draw_batch(split, root, t, range(step, step + 1), 64)[0],
                reference_draw(split, root, t, step, 64))

    def test_a_held_generator_is_not_disturbed(self):
        split = index_split(2000)
        stream = RngStream(3).child("batch", 0, 4)
        held, replay = stream.generator(), stream.generator()
        first = held.integers(0, 2000, size=10)
        got = draw_batch(split, RngStream(3), 0, range(4, 5), 64)[0]
        np.testing.assert_array_equal(first, replay.integers(0, 2000, size=10))
        np.testing.assert_array_equal(got, reference_draw(split, RngStream(3), 0, 4, 64))
        np.testing.assert_array_equal(held.normal(size=5), replay.normal(size=5))

    def test_threads_draw_independently(self):
        import sys
        import threading

        split = index_split(2000)
        mismatches, finished = [], []

        def draw_many(seed):
            root = RngStream(seed)
            for step in range(200):
                got = draw_batch(split, root, 1, range(step, step + 1), 64)[0]
                if not np.array_equal(got, reference_draw(split, root, 1, step, 64)):
                    mismatches.append((seed, step))
            finished.append(seed)

        # more threads than cores, switching as often as the interpreter allows
        threads = [threading.Thread(target=draw_many, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(6)) and mismatches == []

    def test_builds_no_generator(self, monkeypatch):
        def refuse(self):
            raise AssertionError("draw_batch built a generator")

        monkeypatch.setattr(RngStream, "generator", refuse)
        draw_batch(index_split(10), RngStream(0), 0, range(0, 1), 4)

    def test_builds_one_bit_generator_per_call(self, monkeypatch):
        # 2**32 % 1024 == 0, so no word is rejected and no row is redrawn
        real, built = np.random.Philox, []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        got = draw_batch(Rows(1024), RngStream(6), 1, range(100, 164), 64)
        monkeypatch.undo()
        assert len(built) == 1
        for row, step in zip(got, range(100, 164)):
            np.testing.assert_array_equal(
                row, reference_draw(Rows(1024), RngStream(6), 1, step, 64))


class TestGridSearch:
    def test_degenerate_tie_breaks_to_zero(self):
        spec = regression_spec()
        val = regression_val()
        theta = np.array([0.5, 0.0, 0.0])
        out = search_lambda_grid(theta, theta.copy(), (0.0, 0.5, 1.0), val, 0, spec)
        assert out.coeffs == {0: 1.0, 1: 0.0}

    def test_picks_strictly_better_endpoint(self):
        spec = regression_spec()
        val = regression_val()
        theta0 = np.array([0.0, 0.0, 0.0])
        theta1 = np.array([1.0, 0.0, 0.0])  # exactly the ideal predictor
        out = search_lambda_grid(theta0, theta1, (0.0, 1.0), val, 0, spec)
        assert out.coeffs == {0: 0.0, 1: 1.0}
        np.testing.assert_array_equal(out.params, theta1)

    def test_matches_brute_force_oracle(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        start = init_params(spec, RngStream(2).child("init"))
        gen = np.random.default_rng(9)
        theta0 = start + 0.1 * gen.normal(size=len(start))
        theta1 = start + 0.1 * gen.normal(size=len(start))
        grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        out = search_lambda_grid(theta0, theta1, grid, fam.val(0), 0, spec)

        best_lam, best_val = None, -np.inf
        for lam in grid:  # independent loop, argmax with smaller-lambda ties
            combo = (1 - lam) * theta0 + lam * theta1
            v = evaluate(spec, combo, fam.val(0), 0).value
            if v > best_val:
                best_lam, best_val = lam, v
        assert out.coeffs[1] == best_lam
        assert out.perf.value == best_val
        assert len(out.evaluations) == len(grid)


class TestBinarySearch:
    def test_converges_on_quadratic_peak(self):
        spec = regression_spec()
        val = regression_val()
        theta0 = np.array([0.0, 0.0, 0.0])
        theta1 = np.array([2.0, 0.0, 0.0])  # optimum at lambda = 0.5
        for iters in (3, 5, 7):
            out = search_lambda_binary(theta0, theta1, iters, val, 0, spec)
            lam_star = out.coeffs[1]
            assert abs(lam_star - 0.5) <= 2.0 ** (-iters)

    def test_degenerate_equals_theta0_perf(self):
        spec = regression_spec()
        val = regression_val()
        theta = np.array([0.7, 0.1, 0.0])
        out = search_lambda_binary(theta, theta.copy(), 4, val, 0, spec)
        assert out.perf.value == evaluate(spec, theta, val, 0).value

    def test_single_iteration_costs_two_evals(self):
        spec = regression_spec()
        out = search_lambda_binary(
            np.zeros(3), np.ones(3), 1, regression_val(), 0, spec
        )
        assert len(out.evaluations) == 2


class TestGreedySearch:
    def test_single_candidate(self):
        spec = regression_spec()
        out = greedy_search_lambda(
            [(0, np.array([1.0, 0.0, 0.0]))], (0.0, 0.5, 1.0), regression_val(), 0, spec,
        )
        assert out.coeffs == {0: 1.0}
        assert len(out.evaluations) == 1

    def test_two_candidates_match_exhaustive_simplex_oracle(self):
        spec = regression_spec()
        val = regression_val()
        theta_a = np.array([1.2, 0.0, 0.0])  # better standalone
        theta_b = np.array([0.4, 0.0, 0.0])
        grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        out = greedy_search_lambda([(0, theta_a), (1, theta_b)], grid, val, 0, spec)

        # oracle: exhaustively evaluate the same achievable simplex points
        best_perf, best_coeffs = -np.inf, None
        for v in grid:
            coeffs = (1.0 / (1.0 + v), v / (1.0 + v))
            combo = coeffs[0] * theta_a + coeffs[1] * theta_b
            perf = evaluate(spec, combo, val, 0).value
            if perf > best_perf:
                best_perf, best_coeffs = perf, coeffs
        assert out.perf.value == best_perf
        assert out.coeffs[0] == pytest.approx(best_coeffs[0], abs=1e-12)
        assert out.coeffs[1] == pytest.approx(best_coeffs[1], abs=1e-12)

        # and it lands within one cell of a much denser simplex search
        dense = max(
            evaluate(spec, (1 - t) * theta_a + t * theta_b, val, 0).value
            for t in np.linspace(0, 1, 501)
        )
        cells = [g / (1.0 + g) for g in grid]
        neighbor_gap = max(
            abs(
                evaluate(spec, (1 - a) * theta_a + a * theta_b, val, 0).value
                - evaluate(spec, (1 - b) * theta_a + b * theta_b, val, 0).value
            )
            for a, b in zip(cells, cells[1:])
        )
        assert out.perf.value >= dense - neighbor_gap

    def test_identical_candidates_normalized(self):
        spec = regression_spec()
        theta = np.array([0.3, 0.0, 0.0])
        out = greedy_search_lambda(
            [(i, theta.copy()) for i in range(3)], (0.0, 0.5, 1.0), regression_val(),
            0, spec,
        )
        assert sum(out.coeffs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(c >= 0 for c in out.coeffs.values())

    @pytest.mark.parametrize("n_branches", [3, 5])
    def test_eval_budget(self, n_branches):
        fam = family_for([0.5])
        spec = model_spec_for(fam, hidden=(4,))
        start = init_params(spec, RngStream(0).child("init"))
        gen = np.random.default_rng(4)
        candidates = [
            (i, start + 0.05 * gen.normal(size=len(start)))
            for i in range(n_branches)
        ]
        grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        out = greedy_search_lambda(candidates, grid, fam.val(0), 0, spec)
        assert len(out.evaluations) <= (n_branches - 1) * len(grid) + n_branches

    @pytest.mark.parametrize("n_branches", [2, 3, 5])
    @pytest.mark.parametrize("head", ["regression", "classification"])
    def test_zero_trials_equal_their_scores(self, monkeypatch, n_branches, head):
        """The search logs each stage's coefficient-0 trial with the previous
        winner instead of scoring it; every candidate it makes, reused or
        scored, must equal `_score_all`'s score of its combination."""
        gen = np.random.default_rng(n_branches)
        if head == "regression":
            spec, val = regression_spec(), regression_val()
            good = np.array([1.0, 0.0, 0.0])
        else:
            fam = family_for([0.5])
            spec, val = model_spec_for(fam, hidden=()), fam.val(0)
            # a nearest-class-mean classifier as the linear head of task 0
            train = fam.train(0)
            means = np.stack([train.inputs[train.targets == k].mean(axis=0)
                              for k in range(fam.n_classes)])
            good = np.zeros(len(init_params(spec, RngStream(0))))
            good[head_slice(spec, 0)] = np.concatenate(
                [means.T.ravel(), -0.5 * (means ** 2).sum(axis=1)])
        # the first two branches mix into `good`, so stage 1 picks a mixture,
        # which the later stages' zero trials then carry
        offset = gen.normal(size=len(good))
        thetas = [good + 0.6 * offset, good - 0.6 * offset][:n_branches]
        thetas += [good + 2.0 * gen.normal(size=len(good)) for _ in range(n_branches - 2)]
        candidates = list(enumerate(thetas))
        grid = (0.0, 0.25, 0.5, 1.0)

        made, real = [], fm._Scored

        def recording(*fields):
            made.append(real(*fields))
            return made[-1]

        monkeypatch.setattr(fm, "_Scored", recording)
        out = greedy_search_lambda(candidates, grid, val, 0, spec)
        monkeypatch.undo()

        ranked = sorted(((i, p, evaluate(spec, p, val, 0)) for i, p in candidates),
                        key=lambda c: -c[2].value)
        raw, expected = [1.0], []
        for b in range(1, n_branches):
            upper = sum(raw) / len(raw)
            stage = []
            for g in grid:
                v = g * upper
                total = sum(raw) + v
                [scored] = fm._score_all([([c / total for c in raw + [v]],
                                           [p for _, p, _ in ranked[: b + 1]])], val, 0, spec)
                stage.append(fm._Scored(v, *scored))
            raw.append(max(stage, key=lambda e: e.perf.value).coeff)
            expected += stage
        # made[0] is the top-ranked branch the search starts from
        assert len(made) == 1 + len(expected)
        carried = [m for m in made[len(grid) + 1:] if m.coeff == 0.0]
        assert all(not np.array_equal(m.params, made[0].params) for m in carried)
        for got, want in zip(made[1:], expected):
            assert got.coeff == want.coeff
            assert got.perf.value == want.perf.value
            assert np.array_equal(got.params, want.params)
        assert [e.perf.value for e in out.evaluations[n_branches:]] == [
            e.perf.value for e in expected]
        best = max(expected[-len(grid):], key=lambda e: e.perf.value)
        assert out.perf.value == best.perf.value
        assert np.array_equal(out.params, best.params)

    def test_final_beats_every_standalone(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam, hidden=(4,))
        start = init_params(spec, RngStream(1).child("init"))
        gen = np.random.default_rng(8)
        candidates = [
            (i, start + 0.05 * gen.normal(size=len(start)))
            for i in range(4)
        ]
        out = greedy_search_lambda(
            candidates, (0.0, 0.25, 0.5, 0.75, 1.0), fam.val(0), 0, spec
        )
        standalone = [
            evaluate(spec, p, fam.val(0), 0).value
            for _, p in candidates
        ]
        assert out.perf.value >= max(standalone)


class TestSearchCounts:
    """Every candidate a search scores is one CandidateEval, logged in its
    `evaluations` and in a round's `candidates`. Each candidate is one
    `nn.evaluate` call, except greedy's zero trials: each of its B-1 stages
    logs the coefficient 0 with the previous stage's winner, unevaluated."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import auxlab.nn as nn_mod

        calls, real = [], nn_mod.evaluate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(nn_mod, "evaluate", counting)
        return calls

    @pytest.mark.parametrize("strategy, expected", [
        ("grid", 3), ("binary", 2 * 4), ("greedy", 3 + 2 * 3),
    ])
    def test_search_counts_every_evaluation(self, calls, strategy, expected):
        spec, val, grid = regression_spec(), regression_val(), (0.0, 0.5, 1.0)
        thetas = list(np.random.default_rng(3).normal(size=(3, 3)))
        if strategy == "grid":
            out = search_lambda_grid(thetas[0], thetas[1], grid, val, 0, spec)
        elif strategy == "binary":
            out = search_lambda_binary(thetas[0], thetas[1], 4, val, 0, spec)
        else:
            out = greedy_search_lambda(list(enumerate(thetas)), grid, val, 0, spec)
        assert len(out.evaluations) == expected
        reused = 3 - 1 if strategy == "greedy" else 0
        assert len(calls) == expected - reused

    def test_one_branch_round_counts_its_one_evaluation(self, calls):
        fam = family_for([0.5])
        spec = model_spec_for(fam, hidden=(4,))
        schedule = MergeSchedule(total_steps=20, merge_interval=10)
        branches = [TaskWeighting({0: 1.0})]
        _, history = run_forkmerge(fam, spec, schedule, branches, OptConfig(), 0)
        for record in history:
            assert len(record.candidates) == 1
            assert record.merge_coeffs == {0: 1.0}
            assert record.target_only_perf == record.chosen_perf
        # each round's search, and no test evaluation: the caller scores that
        assert len(calls) == sum(len(r.candidates) for r in history) == 2


class TestAcrossCores:
    """`across_cores` scores merge candidates on the calling thread and on
    `fm._WORKERS` pool threads. The tests pin that count by monkeypatch, so
    the pool runs on a machine of any core count, and let it run on splits
    of any size."""

    @pytest.fixture(autouse=True)
    def any_rows(self, monkeypatch):
        monkeypatch.setattr(fm, "_MIN_ROWS", 0)

    @pytest.mark.parametrize("search", ["grid", "binary", "greedy", "fixed_lambda"])
    def test_outcomes_do_not_depend_on_the_worker_count(self, monkeypatch, search):
        import auxlab.baselines as baselines

        fam = family_for([0.5, 0.2], n_val=3000)
        spec = model_spec_for(fam, hidden=(6,))
        start = init_params(spec, RngStream(5).child("init"))
        gen = np.random.default_rng(5)
        thetas = [start + 0.4 * gen.normal(size=len(start)) for _ in range(3)]
        grid = tuple(i / 20 for i in range(21))
        val = fam.val(0)

        def run():
            if search == "grid":
                return search_lambda_grid(thetas[0], thetas[1], grid, val, 0, spec)
            if search == "binary":
                return search_lambda_binary(thetas[0], thetas[1], 6, val, 0, spec)
            if search == "greedy":
                return greedy_search_lambda(list(enumerate(thetas)), grid[::4], val, 0, spec)
            return baselines.run_fixed_lambda(fam, spec, 30, [0.0, 0.5, 1.0],
                                              OptConfig(base_lr=0.1, batch_size=32), seed=2)

        # the per-value validation scores fixed_lambda picks among
        scores, real_across_cores = [], baselines.across_cores

        def across_cores(score, items, rows):
            scores.append(real_across_cores(score, items, rows))
            return scores[-1]

        monkeypatch.setattr(baselines, "across_cores", across_cores)
        outcomes = []
        for workers in (0, 1):
            monkeypatch.setattr(fm, "_WORKERS", workers)
            outcomes.append(run())
        alone, pooled = outcomes
        if search == "fixed_lambda":
            assert alone.tobytes() == pooled.tobytes()
            assert len(scores) == 2 and scores[0] == scores[1]
            assert len({perf.value for perf in scores[0]}) > 1
        else:
            assert alone.params.tobytes() == pooled.params.tobytes()
            assert alone.perf == pooled.perf
            assert alone.coeffs == pooled.coeffs
            # coefficients, scores and flags, in evaluation order
            assert alone.evaluations == pooled.evaluations
            assert len({e.perf.value for e in alone.evaluations}) > 2

    def test_a_pool_thread_scores_beside_the_caller(self, monkeypatch):
        monkeypatch.setattr(fm, "_WORKERS", 1)
        monkeypatch.setattr(fm, "_MIN_ROWS", 5000)
        second_done = threading.Event()
        threads = {}

        def score(i):
            threads[i] = threading.get_ident()
            if i == 0:  # returns only once another thread has scored item 1
                assert second_done.wait(timeout=30)
            else:
                second_done.set()
            return -i

        assert fm.across_cores(score, [0, 1], 5000) == [0, -1]
        assert threads[0] != threads[1]

    def test_the_first_failure_in_order_is_raised(self, monkeypatch):
        monkeypatch.setattr(fm, "_WORKERS", 1)
        later_failed = threading.Event()

        def score(i):
            if i == 1:  # fails only after item 3 has failed, on the other thread
                later_failed.wait(timeout=30)
                raise ValueError("item 1")
            if i == 3:
                later_failed.set()
                raise ValueError("item 3")
            return i

        with pytest.raises(ValueError, match="item 1"):
            fm.across_cores(score, [0, 1, 2, 3, 4], 1)
        assert later_failed.is_set()

    def test_small_items_stay_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(fm, "_WORKERS", 1)
        monkeypatch.setattr(fm, "_MIN_ROWS", 5000)
        threads = set()

        def score(i):
            threads.add(threading.get_ident())
            time.sleep(0.005)  # time enough for a pool thread to take items
            return i

        assert fm.across_cores(score, list(range(6)), 4999) == list(range(6))
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_search_raises_the_sequential_first_error(self, monkeypatch, workers):
        monkeypatch.setattr(fm, "_WORKERS", workers)
        real = fm.linear_combination

        def failing_at_some(weights, vectors):
            if weights[1] in (0.4, 0.8):
                raise NonFiniteError(f"combination at {weights[1]} overflowed")
            return real(weights, vectors)

        monkeypatch.setattr(fm, "linear_combination", failing_at_some)
        thetas = np.random.default_rng(3).normal(size=(2, 3))
        with pytest.raises(NonFiniteError, match="at 0.4 "):
            search_lambda_grid(*thetas, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0), regression_val(),
                               0, regression_spec())

    def test_concurrent_searches_on_more_threads_than_cores(self, monkeypatch):
        """Three callers share one pool of four threads, switching as often
        as the interpreter allows; every search must equal the same search
        run alone."""
        fam = family_for([0.5], n_val=2000)
        spec = model_spec_for(fam, hidden=(6,))
        start = init_params(spec, RngStream(8).child("init"))
        gen = np.random.default_rng(8)
        pairs = [start + 0.4 * gen.normal(size=(2, len(start))) for _ in range(3)]
        grid = tuple(i / 10 for i in range(11))
        monkeypatch.setattr(fm, "_WORKERS", 0)
        alone = [search_lambda_grid(*pair, grid, fam.val(0), 0, spec) for pair in pairs]

        monkeypatch.setattr(fm, "_WORKERS", 4)
        got = [[] for _ in pairs]

        def search_many(k):
            for _ in range(5):
                got[k].append(search_lambda_grid(*pairs[k], grid, fam.val(0), 0, spec))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=search_many, args=(k,)) for k in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for want, outcomes in zip(alone, got):
            assert len(outcomes) == 5
            for outcome in outcomes:
                assert outcome.evaluations == want.evaluations
                assert outcome.params.tobytes() == want.params.tobytes()


class TestRunForkMerge:
    def test_round_count(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam, hidden=(4,))
        schedule = MergeSchedule(total_steps=10, merge_interval=4)
        _, history = run_forkmerge(
            fam, spec, schedule, make_omega_branches(1), OptConfig(base_lr=0.05), 0
        )
        assert len(history) == 3  # 4 + 4 + 2 steps

    def test_greedy_strategy_runs_greedy_on_two_branches(self):
        # greedy logs each of the B branches alone (coefficient 1), then
        # B-1 stages of |G| trials: 2 + 6 candidates per round, not the grid's 6
        fam = family_for([0.5])
        spec = model_spec_for(fam, hidden=(4,))
        schedule = MergeSchedule(total_steps=20, merge_interval=10, search_strategy="greedy")
        _, history = run_forkmerge(fam, spec, schedule, make_omega_branches(1),
                               OptConfig(base_lr=0.05), 0)
        for record in history:
            assert len(record.candidates) == 2 + 6
            assert {(c.branch_id, c.coeff) for c in record.candidates[:2]} == {
                (0, 1.0), (1, 1.0)}

    def test_single_branch_equals_stl(self):
        from auxlab.baselines import run_stl

        fam = family_for([0.5])
        spec = model_spec_for(fam, hidden=(4,))
        opt = OptConfig(base_lr=0.05, momentum=0.0, batch_size=32)
        schedule = MergeSchedule(total_steps=30, merge_interval=10)
        branches = [TaskWeighting({0: 1.0})]
        params, _ = run_forkmerge(fam, spec, schedule, branches, opt, seed=11)
        stl_params = run_stl(fam, spec, 30, opt, seed=11)
        np.testing.assert_array_equal(params, stl_params)

    def test_single_branch_equals_stl_with_momentum_single_round(self):
        from auxlab.baselines import run_stl

        fam = family_for([0.5])
        spec = model_spec_for(fam, hidden=(4,))
        opt = OptConfig(base_lr=0.05, momentum=0.9, batch_size=32)
        schedule = MergeSchedule(total_steps=25, merge_interval=25)
        branches = [TaskWeighting({0: 1.0})]
        params, _ = run_forkmerge(fam, spec, schedule, branches, opt, seed=4)
        stl_params = run_stl(fam, spec, 25, opt, seed=4)
        np.testing.assert_array_equal(params, stl_params)

    def test_per_merge_non_regression(self):
        fam = family_for([0.2], seed=23)
        spec = model_spec_for(fam)
        schedule = MergeSchedule(total_steps=120, merge_interval=30)
        _, history = run_forkmerge(
            fam, spec, schedule, make_omega_branches(1), OptConfig(base_lr=0.1), 5
        )
        assert len(history) == 4
        for record in history:
            assert record.chosen_perf.value >= record.target_only_perf.value

    def test_merge_coefficients_are_probability_vectors(self):
        fam = family_for([0.9, 0.1], seed=2)
        spec = model_spec_for(fam)
        schedule = MergeSchedule(total_steps=60, merge_interval=20)
        _, history = run_forkmerge(
            fam, spec, schedule, make_omega_branches(2), OptConfig(base_lr=0.1), 3
        )
        for record in history:
            total = sum(record.merge_coeffs.values())
            assert abs(total - 1.0) <= 1e-9
            assert all(c >= 0 for c in record.merge_coeffs.values())

    def test_pruning_keeps_target_and_k_strongest(self):
        fam = family_for([0.9, 0.8, 0.2, 0.0], seed=31, n_train=300)
        spec = model_spec_for(fam)
        schedule = MergeSchedule(total_steps=60, merge_interval=20, prune_to=2)
        _, history = run_forkmerge(
            fam, spec, schedule, make_omega_branches(4), OptConfig(base_lr=0.1), 7
        )
        first = history[0]
        assert len(first.surviving_branch_ids) == 2
        assert 0 in first.surviving_branch_ids
        for later in history[1:]:
            assert later.surviving_branch_ids == first.surviving_branch_ids

    def test_validates_branch_setup(self):
        fam = family_for([0.5])
        spec = model_spec_for(fam)
        schedule = MergeSchedule(total_steps=10, merge_interval=5)
        with pytest.raises(ValueError, match="target-only"):
            run_forkmerge(
                fam, spec, schedule,
                [TaskWeighting({0: 1.0, 1: 1.0})],
                OptConfig(), 0,
            )
        with pytest.raises(ValueError, match="prune"):
            run_forkmerge(
                fam, spec,
                MergeSchedule(total_steps=10, merge_interval=5, prune_to=2),
                make_omega_branches(1), OptConfig(), 0,
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_branch(self):
        fam = family_for([0.5])
        heads = {0: HeadSpec(1, MEAN_SQUARED_ERROR), 1: HeadSpec(4)}
        spec = ModelSpec(2, (4,), "relu", heads)
        schedule = MergeSchedule(total_steps=40, merge_interval=20)
        with pytest.raises(BranchDivergedError) as err:
            run_forkmerge(
                fam, spec, schedule, make_omega_branches(1),
                OptConfig(base_lr=1e8, momentum=0.0), 0,
            )
        assert err.value.branch_id in (0, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_after_pruning_names_the_branch_id(self, monkeypatch):
        # round 0 keeps branches 0 and 2; from round 1 on task 2's train rows
        # are NaN, so the second surviving branch diverges at step 10: it is
        # branch 2 of the fork, though it trains second in that round
        fam = family_for([0.0, 0.9], seed=3)
        spec = model_spec_for(fam, hidden=(4,))
        rows = fam.train(2)
        nan_rows = DataSplit(np.full_like(rows.inputs, np.nan), rows.targets, 2)
        poisoned = replace(fam, splits={**fam.splits, 2: {**fam.splits[2], "train": nan_rows}})
        real, trained = fm.train_branches, []

        def poisoned_from_round_1(start, branches, steps, total, family, *args):
            trained.append(list(branches))
            return real(start, branches, steps, total, poisoned if steps.start else family,
                        *args)

        monkeypatch.setattr(fm, "train_branches", poisoned_from_round_1)
        omega = make_omega_branches(2)
        schedule = MergeSchedule(total_steps=30, merge_interval=10, prune_to=2)
        with pytest.raises(BranchDivergedError) as err:
            run_forkmerge(fam, spec, schedule, omega, OptConfig(base_lr=0.1), 0)
        assert trained == [omega, [omega[0], omega[2]]]
        assert (err.value.branch_id, err.value.step, err.value.round_index) == (2, 10, 1)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            MergeSchedule(total_steps=0, merge_interval=1)
        with pytest.raises(ValueError):
            MergeSchedule(total_steps=10, merge_interval=5, lambda_grid=(0.0, 0.5))
        with pytest.raises(ValueError):
            MergeSchedule(total_steps=10, merge_interval=5, lambda_grid=(0.2, 1.0))
        with pytest.raises(ValueError):
            MergeSchedule(total_steps=10, merge_interval=5, search_strategy="anneal")


class TestMergeRecordValidation:
    def test_coefficients_must_sum_to_one(self):
        from auxlab.nn import PerfValue

        perf = PerfValue(0.5, "accuracy")
        with pytest.raises(ValueError):
            MergeRecord(0, (), {0: 0.5, 1: 0.2}, perf, perf, (0, 1), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MergeRecord(0, (), {0: 1.5, 1: -0.5}, perf, perf, (0, 1), 0.0, 0.0, 0.0)


class TestMergeHistoryOutput:
    def test_csv_and_json(self, tmp_path):
        fam = family_for([0.5])
        spec = model_spec_for(fam, hidden=(4,))
        schedule = MergeSchedule(total_steps=20, merge_interval=10)
        _, history = run_forkmerge(
            fam, spec, schedule, make_omega_branches(1), OptConfig(base_lr=0.1), 1
        )
        csv_path = tmp_path / "history.csv"
        json_path = tmp_path / "traj.json"
        _write_merge_history(history, csv_path, json_path)

        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "round,branch_id,candidate_lambda_or_coeff,val_perf,chosen"
        n_candidates = sum(len(r.candidates) for r in history)
        assert len(lines) == 1 + n_candidates
        chosen_per_round = {}
        for line in lines[1:]:
            rnd, _, _, _, chosen = line.split(",")
            chosen_per_round.setdefault(int(rnd), 0)
            chosen_per_round[int(rnd)] += int(chosen)
        assert all(v >= 1 for v in chosen_per_round.values())

        payload = json.loads(json_path.read_text())
        assert len(payload["rounds"]) == 2
        assert set(payload["rounds"][0]["merge_coeffs"]) == {"0", "1"}

    @pytest.mark.parametrize("n_aux, strategy", [(1, "grid"), (1, "binary"), (2, "grid")])
    def test_each_round_splits_its_time_into_train_and_search(self, tmp_path, n_aux,
                                                                strategy):
        fam = family_for([0.5] * n_aux)
        spec = model_spec_for(fam, hidden=(4,))
        schedule = MergeSchedule(total_steps=30, merge_interval=10, search_strategy=strategy)
        _, history = run_forkmerge(fam, spec, schedule, make_omega_branches(n_aux),
                               OptConfig(base_lr=0.1), 1)
        json_path = tmp_path / "traj.json"
        _write_merge_history(history, tmp_path / "history.csv", json_path)
        rounds = json.loads(json_path.read_text())["rounds"]
        assert len(rounds) == len(history) == 3
        for record, payload in zip(history, rounds):
            # the times live in memory and in timings.csv, not in the history
            assert not {"train_s", "search_s", "wall_s"} & set(payload)
            assert record.train_s >= 0 and record.search_s >= 0
            assert record.train_s + record.search_s <= record.wall_s
