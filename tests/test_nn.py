import numpy as np
import pytest

from auxlab.nn import (
    CROSS_ENTROPY,
    MEAN_SQUARED_ERROR,
    Batch,
    EmptySplitError,
    HeadSpec,
    ModelSpec,
    PerfValue,
    SharedHeadModel,
    UnknownTaskError,
    evaluate,
    head_slice,
    init_params,
    loss_and_gradient,
    mean_max_confidence,
    param_count,
    param_layout,
)
from auxlab.vectors import NonFiniteError, RngStream


class Split:
    """Minimal stand-in with the inputs/targets shape evaluate expects."""

    def __init__(self, inputs, targets):
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.targets = np.asarray(targets)


def small_spec(activation="tanh", hidden=(5,)):
    return ModelSpec(
        input_dim=3,
        hidden_dims=hidden,
        activation=activation,
        heads={0: HeadSpec(4, CROSS_ENTROPY), 1: HeadSpec(2, MEAN_SQUARED_ERROR)},
    )


def random_batch(spec, task_id, rng, n=6):
    head = spec.heads[task_id]
    x = rng.normal(size=(n, spec.input_dim))
    if head.loss == CROSS_ENTROPY:
        y = rng.integers(0, head.output_dim, size=n)
    else:
        y = rng.normal(size=(n, head.output_dim))
    return Batch(x, y, task_id)


def finite_difference_grad(model, batch, step=1e-5):
    base = model.params
    out = np.zeros_like(base)
    for j in range(len(base)):
        up, down = base.copy(), base.copy()
        up[j] += step
        down[j] -= step
        lu, _ = loss_and_gradient(model.with_params(up), batch)
        ld, _ = loss_and_gradient(model.with_params(down), batch)
        out[j] = (lu - ld) / (2.0 * step)
    return out


def max_rel_error(analytic, fd, floor=1e-8):
    denom = np.maximum(np.abs(analytic), np.abs(fd))
    mask = denom > floor
    if not mask.any():
        return 0.0
    return float((np.abs(analytic - fd)[mask] / denom[mask]).max())


class TestSpecAndInit:
    def test_param_count_linear_model(self):
        spec = ModelSpec(
            input_dim=7,
            hidden_dims=(),
            activation="relu",
            heads={0: HeadSpec(3), 2: HeadSpec(5, MEAN_SQUARED_ERROR)},
        )
        assert param_count(spec) == (7 * 3 + 3) + (7 * 5 + 5)

    def test_param_count_with_hidden(self):
        spec = small_spec(hidden=(5, 4))
        expected = (3 * 5 + 5) + (5 * 4 + 4) + (4 * 4 + 4) + (4 * 2 + 2)
        assert param_count(spec) == expected
        assert len(init_params(spec, RngStream(0)).params) == expected

    def test_init_deterministic(self):
        spec = small_spec()
        a = init_params(spec, RngStream(seed=9, stream_id=3)).params
        b = init_params(spec, RngStream(seed=9, stream_id=3)).params
        assert np.array_equal(a, b)
        c = init_params(spec, RngStream(seed=10, stream_id=3)).params
        assert not np.array_equal(a, c)

    def test_biases_exactly_zero(self):
        spec = small_spec(hidden=(6, 3))
        model = init_params(spec, RngStream(1))
        for name, sl, _ in param_layout(spec):
            if name.endswith(".b"):
                assert np.all(model.params[sl] == 0.0)

    def test_weight_bound_scales_with_fan_in(self):
        spec = ModelSpec(100, (4,), "tanh", {0: HeadSpec(2)})
        model = init_params(spec, RngStream(5))
        w0 = model.params[param_layout(spec)[0][1]]
        assert np.abs(w0).max() <= 1.0 / np.sqrt(100)

    def test_layout_built_once_per_spec(self, monkeypatch):
        import auxlab.nn as nn_mod

        builds = []
        real = nn_mod._build_layout

        def counting_build(spec):
            builds.append(spec)
            return real(spec)

        monkeypatch.setattr(nn_mod, "_build_layout", counting_build)
        spec = small_spec(hidden=(6, 3))
        model = init_params(spec, RngStream(2))
        rng = np.random.default_rng(0)
        for task_id in (0, 1, 0):
            loss_and_gradient(model.with_params(model.params),
                              random_batch(spec, task_id, rng))
        head_slice(spec, 1)
        param_count(spec)
        param_layout(spec)
        assert len(builds) == 1
        small_spec(hidden=(6, 3)).layout
        assert len(builds) == 2

    def test_heads_sorted_and_validated(self):
        spec = ModelSpec(2, (), "relu", {3: HeadSpec(2), 1: HeadSpec(2)})
        assert spec.task_ids == (1, 3)
        with pytest.raises(ValueError):
            ModelSpec(2, (), "relu", {})
        with pytest.raises(ValueError):
            ModelSpec(2, (), "gelu", {0: HeadSpec(2)})
        with pytest.raises(ValueError):
            HeadSpec(2, "hinge")

    def test_model_rejects_wrong_length(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            SharedHeadModel(spec, np.zeros(3))


class TestLossAndGradient:
    def test_zero_linear_model_mse_at_minimum(self):
        spec = ModelSpec(2, (), "relu", {0: HeadSpec(1, MEAN_SQUARED_ERROR)})
        model = SharedHeadModel(spec, np.zeros(param_count(spec)))
        batch = Batch(np.array([[1.0, 2.0], [3.0, -1.0]]), np.zeros((2, 1)), 0)
        loss, grad = loss_and_gradient(model, batch)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_uniform_logits_cross_entropy_is_log_c(self):
        spec = ModelSpec(3, (), "relu", {0: HeadSpec(7)})
        model = SharedHeadModel(spec, np.zeros(param_count(spec)))
        batch = Batch(np.random.default_rng(0).normal(size=(5, 3)), [0, 6, 3, 2, 1], 0)
        loss, _ = loss_and_gradient(model, batch)
        assert loss == pytest.approx(np.log(7), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for activation in ("tanh", "relu"):
            for task_id in (0, 1):
                spec = small_spec(activation=activation, hidden=(5, 3))
                model = init_params(spec, RngStream(int(rng.integers(1 << 30))))
                batch = random_batch(spec, task_id, rng)
                _, grad = loss_and_gradient(model, batch)
                fd = finite_difference_grad(model, batch)
                assert max_rel_error(grad, fd) <= 1e-4, (activation, task_id)

    def test_gradient_matches_fd_linear_model(self):
        rng = np.random.default_rng(7)
        spec = ModelSpec(4, (), "tanh", {0: HeadSpec(3)})
        model = init_params(spec, RngStream(77))
        batch = random_batch(spec, 0, rng)
        _, grad = loss_and_gradient(model, batch)
        assert max_rel_error(grad, finite_difference_grad(model, batch)) <= 1e-4

    def test_head_isolation_exact_zeros(self):
        spec = small_spec(hidden=(6,))
        model = init_params(spec, RngStream(3))
        rng = np.random.default_rng(1)
        _, g0 = loss_and_gradient(model, random_batch(spec, 0, rng))
        _, g1 = loss_and_gradient(model, random_batch(spec, 1, rng))
        assert np.all(g0[head_slice(spec, 1)] == 0.0)
        assert np.all(g1[head_slice(spec, 0)] == 0.0)
        # encoder part is generally nonzero
        assert np.any(g0[: head_slice(spec, 0).start] != 0.0)

    def test_unknown_task(self):
        spec = small_spec()
        model = init_params(spec, RngStream(0))
        with pytest.raises(UnknownTaskError):
            loss_and_gradient(model, Batch(np.zeros((1, 3)), [0], 9))

    def test_label_out_of_range(self):
        spec = small_spec()
        model = init_params(spec, RngStream(0))
        with pytest.raises(ValueError):
            loss_and_gradient(model, Batch(np.zeros((1, 3)), [4], 0))


class TestEvaluate:
    def test_perfect_classifier(self):
        # A head that copies the (one-hot-ish) input wins on its own points.
        spec = ModelSpec(2, (), "relu", {0: HeadSpec(2)})
        params = np.zeros(param_count(spec))
        params[: 2 * 2] = np.eye(2).ravel() * 10
        model = SharedHeadModel(spec, params)
        split = Split([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]], [0, 1, 0])
        assert evaluate(model, split, 0).value == 1.0

    def test_constant_predictor_balanced_split(self):
        spec = ModelSpec(2, (), "relu", {0: HeadSpec(2)})
        params = np.zeros(param_count(spec))
        params[-2:] = [5.0, 0.0]  # bias favors class 0 everywhere
        model = SharedHeadModel(spec, params)
        split = Split(np.random.default_rng(0).normal(size=(10, 2)), [0] * 5 + [1] * 5)
        assert evaluate(model, split, 0).value == 0.5

    def test_matches_counting_oracle(self):
        spec = small_spec(hidden=(4,))
        model = init_params(spec, RngStream(21))
        rng = np.random.default_rng(5)
        split = Split(rng.normal(size=(40, 3)), rng.integers(0, 4, size=40))
        got = evaluate(model, split, 0).value

        layout = {name: (sl, shape) for name, sl, shape in param_layout(spec)}

        def forward_row(x):
            a = x
            w, _ = layout["enc0.W"]
            b, _ = layout["enc0.b"]
            wm = model.params[w].reshape(3, 4)
            bv = model.params[b]
            z = [sum(a[i] * wm[i, j] for i in range(3)) + bv[j] for j in range(4)]
            h = [np.tanh(v) for v in z]
            w, _ = layout["head0.W"]
            b, _ = layout["head0.b"]
            wm = model.params[w].reshape(4, 4)
            bv = model.params[b]
            return [sum(h[i] * wm[i, j] for i in range(4)) + bv[j] for j in range(4)]

        correct = sum(
            int(np.argmax(forward_row(split.inputs[i])) == split.targets[i])
            for i in range(40)
        )
        assert got == pytest.approx(correct / 40, abs=1e-12)

    def test_permutation_invariant(self):
        spec = small_spec()
        model = init_params(spec, RngStream(2))
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 4, size=30)
        perm = rng.permutation(30)
        assert (
            evaluate(model, Split(x, y), 0).value
            == evaluate(model, Split(x[perm], y[perm]), 0).value
        )

    def test_regression_is_negative_mse(self):
        spec = ModelSpec(2, (), "relu", {1: HeadSpec(1, MEAN_SQUARED_ERROR)})
        model = SharedHeadModel(spec, np.zeros(param_count(spec)))
        split = Split([[0.0, 0.0], [0.0, 0.0]], [[1.0], [3.0]])
        pv = evaluate(model, split, 1)
        assert pv.metric == "neg_mse"
        assert pv.value == pytest.approx(-(1.0 + 9.0) / 2)

    def test_empty_split(self):
        spec = small_spec()
        model = init_params(spec, RngStream(0))
        with pytest.raises(EmptySplitError):
            evaluate(model, Split(np.zeros((0, 3)), []), 0)

    def test_perf_value_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            PerfValue(float("nan"), "accuracy")


class TestConfidence:
    def test_uniform_logits(self):
        spec = ModelSpec(3, (), "relu", {0: HeadSpec(10)})
        model = SharedHeadModel(spec, np.zeros(param_count(spec)))
        split = Split(np.random.default_rng(0).normal(size=(6, 3)), [0] * 6)
        assert mean_max_confidence(model, split, 0) == pytest.approx(0.1, abs=1e-12)

    def test_saturated_logit(self):
        spec = ModelSpec(1, (), "relu", {0: HeadSpec(2)})
        params = np.zeros(param_count(spec))
        params[-2:] = [1000.0, 0.0]
        model = SharedHeadModel(spec, params)
        split = Split([[0.3]], [0])
        assert mean_max_confidence(model, split, 0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_oracle(self):
        spec = small_spec(hidden=(4,))
        model = init_params(spec, RngStream(8))
        rng = np.random.default_rng(3)
        split = Split(rng.normal(size=(20, 3)), rng.integers(0, 4, size=20))
        got = mean_max_confidence(model, split, 0)

        # the logits path is already oracle-tested above
        kernel = spec.kernel
        logits = kernel.logits(kernel.views(model.params), split.inputs, 0).copy()
        acc = 0.0
        for i in range(20):
            exps = [np.exp(v - max(logits[i])) for v in logits[i]]
            probs = [e / sum(exps) for e in exps]
            acc += max(probs)
        assert got == pytest.approx(acc / 20, rel=1e-12)

    def test_softmax_rows_sum_to_one(self):
        spec = small_spec(hidden=(5,))
        model = init_params(spec, RngStream(4))
        rng = np.random.default_rng(2)
        kernel = spec.kernel
        probs = np.exp(kernel.log_probs(kernel.views(model.params), rng.normal(size=(25, 3)), 0))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_regression_head_rejected(self):
        spec = small_spec()
        model = init_params(spec, RngStream(0))
        with pytest.raises(ValueError):
            mean_max_confidence(model, Split(np.zeros((1, 3)), [0.0]), 1)
