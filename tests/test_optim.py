import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxlab.optim import OptConfig, TaskWeighting, sgd_step, weighted_gradient
from auxlab.vectors import linear_combination


class TestTaskWeighting:
    def test_target_weight_pinned(self):
        with pytest.raises(ValueError):
            TaskWeighting({0: 0.5, 1: 1.0})
        with pytest.raises(ValueError):
            TaskWeighting({1: 1.0})  # target 0 absent entirely

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TaskWeighting({0: 1.0, 1: -0.1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(ValueError, match=r"^weights: "):
            TaskWeighting({0: 1.0, 1: value})

    def test_active_tasks_skip_zeros(self):
        w = TaskWeighting({0: 1.0, 1: 0.0, 2: 0.3})
        assert w.active_tasks == (0, 2)


class TestWeightedGradient:
    def test_zero_aux_weight_is_target_gradient(self):
        g = {0: np.array([1.0, -2.0]), 1: np.array([5.0, 5.0])}
        out = weighted_gradient(g, TaskWeighting({0: 1.0, 1: 0.0}))
        np.testing.assert_array_equal(out, g[0])

    def test_hand_value(self):
        g = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 2.0])}
        out = weighted_gradient(g, TaskWeighting({0: 1.0, 1: 1.0}))
        np.testing.assert_array_equal(out, np.array([1.0, 2.0]))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        grads = {k: rng.normal(size=100) for k in range(3)}
        w = TaskWeighting({0: 1.0, 1: 0.7, 2: 0.2})
        out = weighted_gradient(grads, w)
        expected = np.zeros(100)
        for j in range(100):
            expected[j] = 1.0 * grads[0][j] + 0.7 * grads[1][j] + 0.2 * grads[2][j]
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_missing_nonzero_task_errors(self):
        with pytest.raises(KeyError):
            weighted_gradient({0: np.zeros(2)}, TaskWeighting({0: 1.0, 1: 0.5}))
        # zero-weight tasks may be absent
        out = weighted_gradient({0: np.ones(2)}, TaskWeighting({0: 1.0, 1: 0.0}))
        np.testing.assert_array_equal(out, np.ones(2))

    @given(
        lam=st.floats(min_value=0.0, max_value=2.0),
        scale=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_in_each_weight(self, lam, scale):
        rng = np.random.default_rng(12)
        grads = {0: rng.normal(size=16), 1: rng.normal(size=16)}
        base = weighted_gradient(grads, TaskWeighting({0: 1.0, 1: lam}))
        tgt_only = weighted_gradient(grads, TaskWeighting({0: 1.0, 1: 0.0}))
        scaled = weighted_gradient(grads, TaskWeighting({0: 1.0, 1: lam * scale}))
        np.testing.assert_allclose(
            scaled - tgt_only, scale * (base - tgt_only), rtol=1e-12, atol=1e-12
        )


class TestSgdStep:
    def test_plain_gradient_descent(self):
        params = np.array([1.0, 2.0])
        grad = np.array([0.5, -1.0])
        new, _ = sgd_step(params, np.zeros(2), grad, 0.0, 0.1)
        np.testing.assert_array_equal(new, params - 0.1 * grad)

    def test_cosine_endpoint_freezes(self):
        opt = OptConfig(base_lr=0.5, lr_schedule="cosine")
        params = np.array([3.0, -3.0])
        new, _ = sgd_step(params, np.zeros(2), np.ones(2), opt.momentum,
                          opt.learning_rate(10, 10))
        np.testing.assert_allclose(new, params, atol=1e-16)

    def test_cosine_halfway(self):
        opt = OptConfig(base_lr=1.0, lr_schedule="cosine")
        assert opt.learning_rate(2, 4) == pytest.approx(0.5)

    def test_momentum_matches_hand_unroll(self):
        grad = np.array([1.0, -2.0])
        params = np.zeros(2)
        buffer = np.zeros(2)
        for _ in range(3):
            params, buffer = sgd_step(params, buffer, grad, 0.9, 0.1)
        # hand recurrence: b1=g, b2=1.9g, b3=2.71g; θ = −0.1(b1+b2+b3)
        expected = -0.1 * (1.0 + 1.9 + 2.71) * grad
        np.testing.assert_allclose(params, expected, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(3), np.zeros(3), np.zeros(2), 0.9, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            OptConfig(base_lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            OptConfig(base_lr=0.1, lr_schedule="cosine").learning_rate(0, 0)
        with pytest.raises(ValueError):
            OptConfig(base_lr=0.1, lr_schedule="warmup")
        with pytest.raises(ValueError):
            OptConfig(base_lr=0.1).learning_rate(-1, 10)
        with pytest.raises(ValueError):
            OptConfig(base_lr=0.1).learning_rate(11, 10)


class TestOneStepMergeIdentities:
    """The fork/merge equivalences that make validation-side λ search exact."""

    @given(
        lam=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_branch_identity(self, lam, seed):
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=24)
        g_tgt, g_aux = rng.normal(size=24), rng.normal(size=24)
        grads = {0: g_tgt, 1: g_aux}

        def one_step(weighting):
            new, _ = sgd_step(theta, np.zeros(24), weighted_gradient(grads, weighting),
                              0.0, 0.05)
            return new

        direct = one_step(TaskWeighting({0: 1.0, 1: lam}))
        merged = linear_combination(
            [1.0 - lam, lam],
            [one_step(TaskWeighting({0: 1.0, 1: 0.0})), one_step(TaskWeighting({0: 1.0, 1: 1.0}))],
        )
        np.testing.assert_allclose(direct, merged, rtol=1e-12, atol=1e-12)

    @given(
        k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_branch_identity(self, k, seed):
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=20)
        grads = {i: rng.normal(size=20) for i in range(k + 1)}
        raw = rng.uniform(0, 1, size=k)
        lam = raw / max(raw.sum(), 1.0)  # enforce Σ λ_k ≤ 1
        step = lambda g: sgd_step(theta, np.zeros(20), g, 0.0, 0.03)[0]  # noqa: E731

        weights = {0: 1.0, **{i + 1: float(lam[i]) for i in range(k)}}
        direct = step(weighted_gradient(grads, TaskWeighting(weights)))

        # branch updates under pair weightings {target, k}
        branch_params = [step(grads[0])]
        for i in range(1, k + 1):
            g = weighted_gradient(grads, TaskWeighting({0: 1.0, i: 1.0}))
            branch_params.append(step(g))
        coeffs = [1.0 - float(lam.sum()), *[float(v) for v in lam]]
        merged = linear_combination(coeffs, branch_params)
        np.testing.assert_allclose(direct, merged, rtol=1e-12, atol=1e-12)
