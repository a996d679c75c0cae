import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxlab.metrics import (
    SweepRow,
    csd,
    delta_m,
    gcs,
    one_step_tg_gcs_sweep,
    shared_gradient_block,
)
from auxlab.nn import HeadSpec, ModelSpec, evaluate, init_params, loss_and_gradient
from auxlab.optim import sgd_step
from auxlab.tasks import DataSplit, TaskFamilyConfig, generate_family
from auxlab.vectors import RngStream

# Published DomainNet accuracies used as a fixed-point check for delta_m.
STL_ACC = (77.6, 41.4, 71.8, 73.0, 84.6, 70.2)
EW_ACC = (78.0, 38.1, 67.2, 50.8, 77.1, 67.0)


class TestGcs:
    def test_orthogonal(self):
        assert gcs(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_identical_and_opposed(self):
        g = np.array([0.3, -2.0, 1.0])
        assert gcs(g, g) == pytest.approx(1.0, abs=1e-12)
        assert gcs(g, -g) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            gcs(np.zeros(3), np.ones(3))

    @given(
        scale_i=st.floats(min_value=1e-3, max_value=1e3),
        scale_j=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_to_positive_rescale(self, scale_i, scale_j, seed):
        rng = np.random.default_rng(seed)
        gi, gj = rng.normal(size=12), rng.normal(size=12)
        assert gcs(scale_i * gi, scale_j * gj) == pytest.approx(
            gcs(gi, gj), abs=1e-12
        )


class TestDeltaM:
    def test_identical_is_exactly_zero(self):
        assert delta_m(STL_ACC, STL_ACC, [0] * 6) == 0.0

    def test_published_table_value(self):
        value_pct = 100.0 * delta_m(STL_ACC, EW_ACC, [0] * 6)
        assert value_pct == pytest.approx(-9.62, abs=0.01)

    def test_hand_case_cancels(self):
        assert delta_m([100.0, 50.0], [110.0, 45.0], [0, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_sign_flip_antisymmetric(self):
        up = delta_m([80.0], [90.0], [0])
        down = delta_m([80.0], [90.0], [1])
        assert up == -down == pytest.approx(0.125)

    def test_errors(self):
        with pytest.raises(ValueError):
            delta_m([1.0], [1.0, 2.0], [0, 0])
        with pytest.raises(ValueError):
            delta_m([0.0], [1.0], [0])
        with pytest.raises(ValueError):
            delta_m([], [], [])
        with pytest.raises(ValueError):
            delta_m([1.0], [1.0], [2])


def train_target_only(family, steps=300, lr=0.1, hidden=(8,), seed=0):
    spec = ModelSpec(
        family.input_dim, hidden, "tanh", {0: HeadSpec(family.n_classes)}
    )
    params = init_params(spec, RngStream(seed).child("init"))
    buffer = np.zeros_like(params)
    split = family.train(0)
    for step in range(steps):
        gen = RngStream(seed).child("batch", step).generator()
        idx = gen.integers(0, len(split), size=64)
        batch = DataSplit(split.inputs[idx], split.targets[idx], 0)
        _, g = loss_and_gradient(spec, params, batch)
        params, buffer = sgd_step(params, buffer, g, 0.9, lr)
    return spec, params


class TestCsd:
    def test_uniform_model_is_one_minus_inv_c(self):
        spec = ModelSpec(2, (), "relu", {0: HeadSpec(10)})
        from auxlab.nn import param_count

        params = np.zeros(param_count(spec))
        fam = generate_family(
            TaskFamilyConfig(n_tasks=1, relatedness=(), n_classes=10, n_train=20,
                             n_val=20, n_test=20, seed=1)
        )
        assert csd(spec, params, fam.val(0), 0) == pytest.approx(0.9, abs=1e-12)

    def test_shifted_split_scores_higher(self):
        fam = generate_family(
            TaskFamilyConfig(n_tasks=3, relatedness=(0.0, 1.0), n_train=800,
                             n_val=400, n_test=100, noise_std=0.4, seed=5)
        )
        spec, params = train_target_only(fam)
        shifted = csd(spec, params, fam.val(1), 0)   # r = 0: far distribution
        aligned = csd(spec, params, fam.val(2), 0)   # r = 1: same distribution
        assert shifted > aligned

    def test_bounds(self):
        fam = generate_family(
            TaskFamilyConfig(n_tasks=2, relatedness=(0.5,), n_train=100, n_val=50,
                             n_test=50, seed=2)
        )
        spec, params = train_target_only(fam, steps=50)
        value = csd(spec, params, fam.val(1), 0)
        assert 0.0 <= value <= 1.0 - 1.0 / fam.n_classes + 1e-12


@pytest.fixture(scope="module")
def family():
    return generate_family(
        TaskFamilyConfig(n_tasks=2, relatedness=(0.4,), n_train=600, n_val=300,
                         n_test=100, noise_std=0.5, seed=9)
    )


@pytest.fixture(scope="module")
def warm_model(family):
    spec = ModelSpec(2, (8,), "tanh", {0: HeadSpec(4), 1: HeadSpec(4)})
    params = init_params(spec, RngStream(1).child("init"))
    buffer = np.zeros_like(params)
    split = family.train(0)
    for step in range(150):
        gen = RngStream(1).child("warm", step).generator()
        idx = gen.integers(0, len(split), size=64)
        batch = DataSplit(split.inputs[idx], split.targets[idx], 0)
        _, g = loss_and_gradient(spec, params, batch)
        params, buffer = sgd_step(params, buffer, g, 0.9, 0.1)
    return spec, params


class TestOneStepSweep:
    def test_lambda_zero_rows_exactly_zero(self, family, warm_model):
        rows = one_step_tg_gcs_sweep(
            *warm_model, family, [0.0, 0.5, 1.0], n_points=4, rng=RngStream(3)
        )
        zero_rows = [r for r in rows if r.lam == 0.0]
        assert len(zero_rows) == 4
        assert all(r.tg == 0.0 for r in zero_rows)

    def test_identical_batches_give_unit_cosine(self, family, warm_model):
        rows = one_step_tg_gcs_sweep(
            *warm_model, family, [0.0, 1.0], n_points=3, rng=RngStream(3), aux_task=0
        )
        assert all(r.gcs == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_row_count_and_order(self, family, warm_model):
        lams = [0.0, 0.25, 0.5, 1.0]
        rows = one_step_tg_gcs_sweep(
            *warm_model, family, lams, n_points=5, rng=RngStream(4)
        )
        assert len(rows) == 5 * len(lams)
        expected_order = [(p, l) for p in range(5) for l in lams]
        assert [(r.point_id, r.lam) for r in rows] == expected_order

    def test_gcs_constant_within_point(self, family, warm_model):
        rows = one_step_tg_gcs_sweep(
            *warm_model, family, [0.0, 0.5, 1.0], n_points=3, rng=RngStream(5)
        )
        for p in range(3):
            values = {r.gcs for r in rows if r.point_id == p}
            assert len(values) == 1


def reference_sweep(spec, params, family, lambdas, n_points, rng, lr, batch_size,
                    aux_ids):
    """The tg-gcs sweep with one `loss_and_gradient` call per task and point."""
    rows = []
    for point in range(n_points):
        grads = {}
        for t in (0, *aux_ids):
            split = family.train(t)
            gen = rng.child("point", point, t).generator()
            idx = gen.integers(0, len(split), size=min(batch_size, len(split)))
            batch = DataSplit(split.inputs[idx], split.targets[idx], t)
            grads[t] = loss_and_gradient(spec, params, batch)[1]
        g_tgt = grads[0]
        g_aux = np.mean([grads[t] for t in aux_ids], axis=0)
        cos = gcs(shared_gradient_block(spec, g_tgt), shared_gradient_block(spec, g_aux))

        def perf_after(lam):
            stepped, _ = sgd_step(params, np.zeros_like(params), g_tgt + lam * g_aux, 0.0, lr)
            return evaluate(spec, stepped, family.val(0), 0).value

        base = perf_after(0.0)
        rows += [SweepRow(point, lam, cos, 0.0 if lam == 0.0 else perf_after(lam) - base)
                 for lam in lambdas]
    return rows


@pytest.mark.parametrize("aux_task, aux_ids", [(None, (1, 2)), (1, (1,)), (2, (2,))])
def test_sweep_matches_per_task_gradients(aux_task, aux_ids):
    # task 1 has fewer rows than a batch, so the sweep runs two batch lengths
    fam = generate_family(TaskFamilyConfig(
        n_tasks=3, relatedness=(0.7, 0.2), n_train=(300, 40, 300), n_val=200,
        n_test=10, seed=4))
    spec = ModelSpec(2, (8,), "tanh", {t: HeadSpec(4) for t in range(3)})
    params = init_params(spec, RngStream(2))
    params += 0.2 * np.random.default_rng(2).normal(size=len(params))
    lambdas = [0.0, 0.5, 1.0, 2.0]
    rows = one_step_tg_gcs_sweep(spec, params, fam, lambdas, 4, RngStream(6),
                                 lr=0.05, batch_size=64, aux_task=aux_task)
    assert rows == reference_sweep(spec, params, fam, lambdas, 4, RngStream(6),
                                   0.05, 64, aux_ids)
    assert len({row.gcs for row in rows}) == 4
