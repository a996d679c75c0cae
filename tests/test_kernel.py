"""Oracle tests for the compiled model kernel.

`reference_loss_and_gradient` and `reference_logits` below are a plain-numpy
forward/backward that allocates every intermediate, written out once here as
the slow path. The kernel in `auxlab.nn` runs the same operations in the same
order into reused workspaces, so the two must agree bit for bit: both for
`loss_and_gradient`, which is a one-pair stacked pass, and for every pair of
a stacked pass over many (branch, task) pairs.
"""

import threading
import tracemalloc

import numpy as np
import pytest

import auxlab.forkmerge as fm
import auxlab.nn as nn
from auxlab.forkmerge import (
    BranchDivergedError,
    make_omega_branches,
    train_branches,
)
from auxlab.nn import (
    CROSS_ENTROPY,
    MEAN_SQUARED_ERROR,
    HeadSpec,
    ModelSpec,
    evaluate,
    init_params,
    loss_and_gradient,
    mean_max_confidence,
    param_layout,
)
from auxlab.nn import _reduce_last
from auxlab.optim import OptConfig, TaskWeighting, sgd_step, weighted_gradient
from auxlab.tasks import DataSplit, TaskFamilyConfig, generate_family
from auxlab.vectors import RngStream, linear_combination


def _blocks(spec, vector):
    return {name: vector[sl].reshape(shape) for name, sl, shape in param_layout(spec)}


def _reference_encoder(spec, views, x):
    acts, pres = [x], []
    a = x
    for i in range(len(spec.hidden_dims)):
        z = a @ views[f"enc{i}.W"] + views[f"enc{i}.b"]
        pres.append(z)
        a = np.tanh(z) if spec.activation == "tanh" else np.maximum(z, 0.0)
        acts.append(a)
    return acts, pres


def reference_logits(spec, params, x, task_id):
    views = _blocks(spec, params)
    acts, _ = _reference_encoder(spec, views, np.asarray(x, dtype=np.float64))
    return acts[-1] @ views[f"head{task_id}.W"] + views[f"head{task_id}.b"]


def _reference_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_loss_and_gradient(spec, params, batch):
    head = spec.heads[batch.task_id]
    x = batch.inputs
    n = x.shape[0]
    views = _blocks(spec, params)
    acts, pres = _reference_encoder(spec, views, x)
    w_head = views[f"head{batch.task_id}.W"]
    logits = acts[-1] @ w_head + views[f"head{batch.task_id}.b"]
    if head.loss == CROSS_ENTROPY:
        labels = np.asarray(batch.targets, dtype=np.int64)
        log_probs = _reference_log_softmax(logits)
        loss = float(-log_probs[np.arange(n), labels].mean())
        dlogits = np.exp(log_probs)
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
    else:
        targets = np.asarray(batch.targets, dtype=np.float64).reshape(n, head.output_dim)
        diff = logits - targets
        loss = float(np.mean(diff**2))
        dlogits = 2.0 * diff / diff.size
    grad = np.zeros_like(params)
    blocks = _blocks(spec, grad)
    blocks[f"head{batch.task_id}.W"][...] = acts[-1].T @ dlogits
    blocks[f"head{batch.task_id}.b"][...] = dlogits.sum(axis=0)
    da = dlogits @ w_head.T
    for i in reversed(range(len(spec.hidden_dims))):
        if spec.activation == "tanh":
            dz = da * (1.0 - acts[i + 1] ** 2)
        else:
            dz = da * (pres[i] > 0.0)
        blocks[f"enc{i}.W"][...] = acts[i].T @ dz
        blocks[f"enc{i}.b"][...] = dz.sum(axis=0)
        da = dz @ views[f"enc{i}.W"].T
    return loss, grad


def reference_evaluate(spec, params, split, task_id):
    logits = reference_logits(spec, params, split.inputs, task_id)
    if spec.heads[task_id].loss == CROSS_ENTROPY:
        labels = np.asarray(split.targets, dtype=np.int64)
        return float(np.mean(np.argmax(logits, axis=1) == labels))
    targets = np.asarray(split.targets, dtype=np.float64).reshape(logits.shape)
    return -float(np.mean((logits - targets) ** 2))


def reference_confidence(spec, params, split, task_id):
    log_probs = _reference_log_softmax(reference_logits(spec, params, split.inputs, task_id))
    return float(np.exp(log_probs.max(axis=1)).mean())


def two_layer_spec(activation):
    heads = {0: HeadSpec(4, CROSS_ENTROPY), 2: HeadSpec(3, MEAN_SQUARED_ERROR)}
    return ModelSpec(3, (7, 5), activation, heads)


def random_split(spec, task_id, n, rng):
    head = spec.heads[task_id]
    x = rng.normal(size=(n, spec.input_dim))
    if head.loss == CROSS_ENTROPY:
        y = rng.integers(0, head.output_dim, size=n)
    else:
        y = rng.normal(size=(n, head.output_dim))
    return DataSplit(x, y, task_id)


def trained_like_params(spec, seed):
    # init scale plus noise, so relu units are both on and off and no bias is 0
    params = init_params(spec, RngStream(seed))
    return params + 0.3 * np.random.default_rng(seed).normal(size=len(params))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("task_id", [0, 2], ids=["cross_entropy", "mse"])
def test_loss_and_gradient_match_reference_bitwise(activation, task_id):
    spec = two_layer_spec(activation)
    rng = np.random.default_rng(11)
    for seed, n in ((1, 16), (2, 16), (3, 5), (4, 64), (5, 64), (6, 1), (7, 16)):
        params = trained_like_params(spec, seed)
        split = random_split(spec, task_id, n, rng)
        loss, grad = loss_and_gradient(spec, params, split)
        ref_loss, ref_grad = reference_loss_and_gradient(spec, params, split)
        assert loss == ref_loss
        np.testing.assert_array_equal(grad, ref_grad)
        assert np.array_equal(np.signbit(grad), np.signbit(ref_grad))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_evaluations_across_split_sizes_equal_fresh_ones(activation):
    spec = two_layer_spec(activation)
    params = trained_like_params(spec, 5)
    rng = np.random.default_rng(3)
    for task_id in (0, 2):
        split_a = random_split(spec, task_id, 300, rng)
        split_b = random_split(spec, task_id, 70, rng)
        idx = rng.choice(300, size=40, replace=False)
        subsample = DataSplit(split_a.inputs[idx], split_a.targets[idx], task_id)
        large = random_split(spec, task_id, 20_000, rng)
        for split in (split_a, split_b, subsample, large, split_a):
            got = evaluate(spec, params, split, task_id).value
            assert got == reference_evaluate(spec, params, split, task_id)
            # a fresh spec compiles a fresh kernel with empty workspaces
            fresh = two_layer_spec(activation)
            assert got == evaluate(fresh, params, split, task_id).value
            if task_id == 0:
                assert mean_max_confidence(spec, params, split, task_id) == (
                    reference_confidence(spec, params, split, task_id))


def test_each_thread_has_its_own_kernel():
    spec = two_layer_spec("tanh")
    other = []
    thread = threading.Thread(target=lambda: other.append(spec.kernel))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert spec.kernel is spec.kernel
    assert other[0] is not spec.kernel and other[0].spec is spec


def test_returned_gradient_is_not_overwritten_by_next_call():
    spec = two_layer_spec("tanh")
    params = trained_like_params(spec, 8)
    rng = np.random.default_rng(4)
    first = random_split(spec, 0, 32, rng)
    _, grad = loss_and_gradient(spec, params, first)
    kept = grad.copy()
    for task_id, n in ((0, 32), (2, 200), (0, 3)):
        split = random_split(spec, task_id, n, rng)
        loss_and_gradient(spec, params, split)
        evaluate(spec, params, split, task_id)
    np.testing.assert_array_equal(grad, kept)


def mixed_head_spec(activation, hidden):
    # cross-entropy heads 1 to 7 classes wide: the widths the log-softmax
    # reduces column by column
    heads = {0: HeadSpec(4, CROSS_ENTROPY), 1: HeadSpec(3, MEAN_SQUARED_ERROR),
             2: HeadSpec(4, CROSS_ENTROPY), 3: HeadSpec(1, MEAN_SQUARED_ERROR),
             4: HeadSpec(2, CROSS_ENTROPY), 5: HeadSpec(1, CROSS_ENTROPY),
             6: HeadSpec(7, CROSS_ENTROPY)}
    return ModelSpec(3, hidden, activation, heads)


# 4 branches x 7 tasks; each prefix has pairs that share a branch and,
# from 3 pairs on, pairs that share a task
PAIRS = [(0, 0), (0, 1), (1, 0), (1, 3), (2, 2), (2, 4), (3, 0), (3, 1), (1, 4),
         (2, 5), (0, 6)]


def pair_sets():
    rng = np.random.default_rng(21)
    grid = [(i, t) for i in range(4) for t in range(7)]
    for p in range(1, len(PAIRS) + 1):
        yield PAIRS[:p]
        yield [grid[k] for k in rng.choice(len(grid), size=p, replace=False)]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (6,), (7, 5)], ids=["depth0", "depth1", "depth2"])
@pytest.mark.parametrize("batch_size", [16, 1])
@pytest.mark.parametrize("between", ["nothing", "evaluations"])
def test_pair_pass_matches_per_pair_gradients_bitwise(activation, hidden, batch_size,
                                                     between):
    spec = mixed_head_spec(activation, hidden)
    kernel = spec.kernel
    rng = np.random.default_rng(7)
    # with "evaluations", each step follows two evaluations on this thread's
    # kernel: a small one, which overwrites the workspaces the pass views,
    # then one larger than any before, which grows them
    eval_rng, largest = np.random.default_rng(8), 0
    for pairs in pair_sets():
        params = np.stack([trained_like_params(spec, seed) for seed in range(4)])
        # splits longer than a batch, so that every step gathers its rows
        splits = {t: random_split(spec, t, 2 * batch_size + 3, rng)
                  for t in sorted({t for _, t in pairs})}
        stack = kernel.pair_pass(params, pairs, splits, batch_size)
        for _ in range(3):
            if between == "evaluations":
                t = pairs[0][1]
                largest = max(largest, len(pairs) * batch_size) + 100
                for n in (3, largest):
                    evaluate(spec, params[0], random_split(spec, t, n, eval_rng), t)
            # in-place updates between steps, as training makes them
            params += 0.05 * rng.normal(size=params.shape)
            rows = {t: rng.integers(0, len(split), size=batch_size)
                    for t, split in splits.items()}
            for at in rows.values():
                at[-1] = at[0]  # a row drawn twice in one batch
            losses = stack(rows).copy()
            for i, t in pairs:
                k = stack.index[i, t]
                split, at = splits[t], rows[t]
                batch = DataSplit(split.inputs[at], split.targets[at], t)
                loss, grad = reference_loss_and_gradient(spec, params[i].copy(), batch)
                assert losses[k] == loss
                np.testing.assert_array_equal(stack.grads[k], grad)
                assert np.array_equal(np.signbit(stack.grads[k]), np.signbit(grad))


def awkward_rows(lead, c, seed):
    """Rows (*lead, c) full of ties, signed zeros, infinities and NaNs."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(*lead, c)).astype(np.float64)
    pick = rng.random(x.shape)
    x[pick < 0.3] = rng.normal(size=int((pick < 0.3).sum())) * 1e3
    for value, lo in ((-0.0, 0.3), (-np.inf, 0.4), (np.inf, 0.45), (np.nan, 0.48)):
        x[(pick >= lo) & (pick < lo + 0.03)] = value
    rows = x.reshape(-1, c)
    rows[0], rows[1], rows[2] = -np.inf, -0.0, np.nan  # whole rows of one value
    return x


def column_fold(ufunc, x):
    """x's last axis folded left to right, one column at a time."""
    out = ufunc.reduce(x[..., :1], axis=-1, keepdims=True)
    for j in range(1, x.shape[-1]):
        out = ufunc(out, x[..., j:j + 1])
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("c", range(1, 8))
@pytest.mark.parametrize("lead", [(500,), (9, 64)], ids=["n_c", "p_n_c"])
def test_narrow_class_reductions_equal_numpy_reduce_bitwise(c, lead):
    x = awkward_rows(lead, c, seed=c)
    for ufunc in (np.maximum, np.add):
        out = np.full((*lead, 1), 7.0)
        _reduce_last(ufunc, x, out)
        expected = ufunc.reduce(x, axis=-1, keepdims=True)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("c", [8, 9])
def test_wide_class_reductions_keep_numpy_reduce(c):
    x = np.random.default_rng(c).normal(size=(2000, c)) * 10.0 ** np.arange(c)
    out = np.empty((2000, 1))
    _reduce_last(np.add, x, out)
    expected = np.add.reduce(x, axis=-1, keepdims=True)
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    # numpy sums rows this wide pairwise, which a column fold does not match
    assert not np.array_equal(column_fold(np.add, x), expected)


def tie_rows(c):
    """One row per (pair of columns, label): the pair shares the row
    maximum, and every label is tried, so ties at the first, middle and last
    column meet labels on, before and after them."""
    rows, labels = [], []
    for j in range(c):
        for k in range(j + 1, c):
            row = np.arange(c, dtype=np.float64) * -1.0
            row[j] = row[k] = 5.0
            for y in range(c):
                rows.append(row)
                labels.append(y)
    return np.array(rows).reshape(-1, c), np.array(labels, dtype=np.int64)


def nan_rows(c):
    """Rows with NaN in the label's column, in another column before or
    after it, in both, or everywhere, next to a finite maximum."""
    rows, labels = [], []
    for y in range(c):
        for nan_at in [(y,), *((j,) for j in range(c) if j != y), (y, (y + 1) % c),
                       tuple(range(c))]:
            row = np.linspace(-1.0, 1.0, c)
            row[list(nan_at)] = np.nan
            rows.append(row)
            labels.append(y)
    return np.array(rows), np.array(labels, dtype=np.int64)


def crafted_logits(c, seed):
    """(rows, labels) with every case the accuracy count must get right:
    random logits, integer-valued logits full of ties, the awkward rows
    (signed zeros, ±inf, NaN, whole rows of one value), tie rows and NaN
    rows."""
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(size=(400, c)),
        rng.integers(-1, 2, size=(400, c)).astype(np.float64),
        awkward_rows((400,), c, seed),
        np.array([[np.inf] * c, [-np.inf] * c, ([np.inf, -np.inf] * c)[:c],
                  [-np.inf] * (c - 1) + [np.inf]]),
    ]
    logits = np.concatenate(parts)
    labels = rng.integers(0, c, size=len(logits))
    extra = [tie_rows(c), nan_rows(c)]
    logits = np.concatenate([logits, *(rows for rows, _ in extra)])
    labels = np.concatenate([labels, *(y for _, y in extra)])
    return logits, labels


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("c", range(1, 10))
def test_accuracy_equals_argmax_mean(monkeypatch, c):
    spec = ModelSpec(2, (3,), "tanh", {0: HeadSpec(c)})
    params = trained_like_params(spec, c)
    kernel = spec.kernel
    real = kernel.logits
    logits, labels = crafted_logits(c, seed=c)

    def crafted(views, x, task_id):
        out = real(views, x, task_id)
        out[...] = logits[: len(out)]
        return out

    monkeypatch.setattr(kernel, "logits", crafted)
    inputs = np.zeros((len(logits), 2))
    for n in (len(logits), 7, len(logits) // 2, 1):
        split = DataSplit(inputs[:n], labels[:n], 0)
        expected = np.mean(np.argmax(logits[:n], axis=1) == labels[:n])
        assert evaluate(spec, params, split, 0).value == expected


@pytest.mark.parametrize("label", [2, -1])  # head 4 has 2 classes
def test_labels_out_of_range_are_rejected(label):
    spec = mixed_head_spec("tanh", (6,))
    params = np.stack([trained_like_params(spec, seed) for seed in range(2)])
    rng = np.random.default_rng(2)
    split = random_split(spec, 0, 8, rng)
    labels = split.targets.copy()
    labels[3] = label
    splits = {0: split, 4: DataSplit(split.inputs, labels, 4)}
    with pytest.raises(ValueError, match="class label out of range"):
        spec.kernel.pair_pass(params, [(0, 0), (1, 0), (1, 4)], splits, 8)
    with pytest.raises(ValueError, match="class label out of range"):
        loss_and_gradient(spec, params[1], splits[4])
    # a miss before labels were checked in evaluation; a gather would wrap
    with pytest.raises(ValueError, match="class label out of range"):
        evaluate(spec, params[1], DataSplit(split.inputs, labels, 4), 4)


@pytest.mark.parametrize("branch", [2, 5, -1])
def test_pair_pass_rejects_a_branch_outside_params(branch):
    spec = mixed_head_spec("tanh", (6,))
    params = np.stack([trained_like_params(spec, seed) for seed in range(2)])
    splits = {0: random_split(spec, 0, 8, np.random.default_rng(2))}
    for pairs in ([(branch, 0)], [(0, 0), (branch, 0)]):
        with pytest.raises(ValueError, match="branch"):
            spec.kernel.pair_pass(params, pairs, splits, 4)


@pytest.mark.parametrize("row", [-1, 8])
def test_pair_pass_rejects_a_row_outside_its_split(row):
    # at 8 the row would fall in task 1's rows of the inputs table, and at -1
    # in its last one
    spec = mixed_head_spec("tanh", (6,))
    params = np.stack([trained_like_params(spec, seed) for seed in range(2)])
    rng = np.random.default_rng(3)
    splits = {0: random_split(spec, 0, 8, rng), 1: random_split(spec, 1, 20, rng)}
    stack = spec.kernel.pair_pass(params, [(0, 0), (1, 1)], splits, 4)
    with pytest.raises(IndexError, match="task 0"):
        stack({0: np.array([0, 1, 2, row]), 1: np.arange(4)})


def small_family():
    return generate_family(TaskFamilyConfig(
        n_tasks=3, relatedness=(0.7, 0.3), n_train=300, n_val=100, n_test=100,
        seed=6,
    ))


def family_spec(family, hidden=(16,)):
    heads = {t: HeadSpec(family.n_classes) for t in family.task_ids}
    return ModelSpec(family.input_dim, hidden, "tanh", heads)


@pytest.fixture
def draws(monkeypatch):
    """The arguments of every `draw_batch` call the test makes."""
    calls = []
    real_draw = fm.draw_batch

    def counting_draw(*args):
        calls.append(args)
        return real_draw(*args)

    monkeypatch.setattr(fm, "draw_batch", counting_draw)
    return calls


@pytest.mark.parametrize("label", [2, -1])
def test_bad_label_fails_before_any_batch_is_drawn(draws, label):
    family = generate_family(TaskFamilyConfig(
        n_tasks=3, relatedness=(0.7, 0.3), n_classes=2, n_train=300, n_val=100,
        n_test=100, seed=6,
    ))
    family.train(1).targets[3] = label  # after the family checked its labels
    spec = family_spec(family)
    start = init_params(spec, RngStream(2).child("init"))
    opt = OptConfig(0.1, lr_schedule="constant", batch_size=16)
    with pytest.raises(ValueError, match="class label out of range"):
        train_branches(start, make_omega_branches(2), range(5), 5, family, spec, opt,
                       RngStream(2))
    assert draws == []


@pytest.mark.parametrize("case", ["short_start", "long_start", "no_branches",
                                  "negative_start", "past_total", "step_of_2"])
def test_bad_start_or_branches_fail_before_any_batch_is_drawn(draws, case):
    family = small_family()
    spec = family_spec(family)
    start = init_params(spec, RngStream(2).child("init"))
    start = {"short_start": start[:-30],
             "long_start": np.append(start, np.zeros(30))}.get(case, start)
    branches = [] if case == "no_branches" else make_omega_branches(2)
    steps = {"negative_start": range(-1, 4), "past_total": range(1, 6),
             "step_of_2": range(0, 5, 2)}.get(case, range(5))
    opt = OptConfig(0.1, lr_schedule="constant", batch_size=16)
    with pytest.raises(ValueError):
        train_branches(start, branches, steps, 5, family, spec, opt, RngStream(2))
    assert draws == []


def test_empty_range_returns_start_for_every_branch(draws):
    family = small_family()
    spec = family_spec(family)
    start = init_params(spec, RngStream(2).child("init"))
    opt = OptConfig(0.1, batch_size=16)
    for steps, total_steps in ((range(0), 0), (range(3, 3), 5), (range(5, 5), 5)):
        trained = train_branches(start, make_omega_branches(2), steps, total_steps,
                                 family, spec, opt, RngStream(2))
        assert len(trained) == 3
        for got in trained:
            np.testing.assert_array_equal(got, start)
    assert draws == []


def poison_train_row(family, task_id, step, column, root, first, batch_size):
    """Put a NaN in column ``column`` of a row of ``task_id``'s train split
    that its batch at ``step`` draws and no step from ``first`` on before it
    does."""
    split = family.train(task_id)
    earlier = {int(row) for s in range(first, step)
               for row in fm.draw_batch(split, root, task_id, range(s, s + 1),
                                        batch_size)[0]}
    drawn = fm.draw_batch(split, root, task_id, range(step, step + 1), batch_size)[0]
    split.inputs[next(int(row) for row in drawn if row not in earlier), column] = np.nan


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_in_one_batch_names_the_same_step_and_branch():
    # task 1 is weighted by branch 1 only; its batch at step 7 carries a NaN
    family = small_family()
    spec = family_spec(family)
    start = init_params(spec, RngStream(2).child("init"))
    opt = OptConfig(0.1, momentum=0.9, lr_schedule="constant", batch_size=32)
    poison_train_row(family, 1, 7, 1, RngStream(2), 3, opt.batch_size)
    with pytest.raises(BranchDivergedError) as err:
        train_branches(start, make_omega_branches(2), range(3, 13), 13, family, spec, opt,
                       RngStream(2))
    assert (err.value.branch_id, err.value.step) == (1, 7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("order", ["params_first", "loss_first"])
def test_divergence_at_one_step_names_the_earlier_branch(order):
    # at step 0 the branch weighting task 2 by 1e300 steps its parameters to
    # inf, while task 1's batch carries a NaN, so the branch weighting task 1
    # has a non-finite loss; the branch earlier in order is named
    family = small_family()
    spec = family_spec(family)
    start = init_params(spec, RngStream(4).child("init"))
    opt = OptConfig(1e300, momentum=0.0, lr_schedule="constant", batch_size=16)
    poison_train_row(family, 1, 0, 0, RngStream(4), 0, opt.batch_size)
    overflowing = TaskWeighting({0: 1.0, 2: 1e300})
    poisoned = TaskWeighting({0: 1.0, 1: 1.0})
    if order == "params_first":
        branches = [overflowing, poisoned]
        expected = "branch 0 diverged at step 0: parameters diverged to non-finite values"
    else:
        branches = [poisoned, overflowing]
        expected = "branch 0 diverged at step 0: non-finite loss on task 1: diverged"
    with pytest.raises(BranchDivergedError) as err:
        train_branches(start, branches, range(3), 3, family, spec, opt, RngStream(4))
    assert str(err.value) == expected
    assert (err.value.step, err.value.round_index) == (0, None)


def stepwise_training(start, branches, steps, total_steps, family, spec, opt, root,
                      weigh=None):
    """`train_branches` one step at a time through the pure functions: each
    step stages only its own batches, by calling the pass, then mixes each
    branch's gradients with `weighted_gradient`, or with `linear_combination`
    of the ``weigh`` hook's live weights, and steps each branch with
    `sgd_step`."""
    params = np.tile(start, (len(branches), 1))
    momenta = np.zeros_like(params)
    tasks = [w.active_tasks for w in branches]
    splits = {t: family.train(t) for active in tasks for t in active}
    stack = spec.kernel.pair_pass(
        params, [(i, t) for i, active in enumerate(tasks) for t in active], splits,
        opt.batch_size)
    for step in steps:
        stack({t: fm.draw_batch(split, root, t, range(step, step + 1), opt.batch_size)[0]
               for t, split in splits.items()})
        for i, (weighting, active) in enumerate(zip(branches, tasks)):
            grads = {t: stack.grads[stack.index[i, t]] for t in active}
            if weigh is None:
                mixed = weighted_gradient(grads, weighting)
            else:
                weights = weigh(grads)
                live = [t for t in active if weights[t] > 0]
                mixed = linear_combination([weights[t] for t in live],
                                           [grads[t] for t in live])
            params[i], momenta[i] = sgd_step(params[i], momenta[i], mixed, opt.momentum,
                                             opt.learning_rate(step, total_steps))
    return list(params)


def halve_odd_tasks(grads):
    """A ``weigh`` hook that reads the gradients: each odd task's weight is
    0.5 when its first entry is positive and 0 otherwise."""
    return {t: 0.5 * float(g[0] > 0) if t % 2 else 1.0 for t, g in grads.items()}


# branch 0 weights three tasks and branch 1 only the target, so the second
# and third mixing terms select branches 0 and 2, which are not adjacent
UNEVEN_BRANCHES = [TaskWeighting({0: 1.0, 1: 0.5, 2: 0.25}), TaskWeighting({0: 1.0}),
                   TaskWeighting({0: 1.0, 1: 0.3, 2: 2.0})]


@pytest.mark.parametrize("heads", ["cross_entropy", "mixed"])
@pytest.mark.parametrize("case", ["single_pair", "omega", "uneven", "weigh"])
def test_training_equals_one_step_stages(heads, case):
    # range(37, 170) starts mid-chunk and crosses two chunk boundaries
    family = small_family()
    spec = family_spec(family)
    if heads == "mixed":
        # task 1's head regresses onto its class label
        spec = ModelSpec(spec.input_dim, spec.hidden_dims, spec.activation,
                         {**spec.heads, 1: HeadSpec(1, MEAN_SQUARED_ERROR)})
    branches = {"single_pair": [TaskWeighting({0: 1.0})],
                "omega": make_omega_branches(2), "uneven": UNEVEN_BRANCHES,
                "weigh": UNEVEN_BRANCHES}[case]
    weigh = halve_odd_tasks if case == "weigh" else None
    start = init_params(spec, RngStream(5).child("init"))
    opt = OptConfig(0.1, momentum=0.9, batch_size=16)
    args = (start, branches, range(37, 170), 200, family, spec, opt, RngStream(5))
    trained = train_branches(*args, weigh=weigh)
    expected = stepwise_training(*args, weigh=weigh)
    for got, want in zip(trained, expected, strict=True):
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_training_draws_and_stages_once_per_chunk(draws, monkeypatch):
    family = small_family()
    spec = family_spec(family)
    start = init_params(spec, RngStream(3).child("init"))
    staged = []
    real_stage = nn._PairPass.stage

    def counting_stage(pair_pass, rows):
        staged.append({t: len(at) for t, at in rows.items()})
        real_stage(pair_pass, rows)

    monkeypatch.setattr(nn._PairPass, "stage", counting_stage)
    opt = OptConfig(0.1, batch_size=16)
    train_branches(start, make_omega_branches(2), range(37, 170), 170, family, spec, opt,
                   RngStream(3))
    chunks = [range(37, 101), range(101, 165), range(165, 170)]
    assert sorted((t, steps.start, steps.stop) for _, _, t, steps, _ in draws) == [
        (t, steps.start, steps.stop) for t in range(3) for steps in chunks]
    assert staged == [{t: len(steps) for t in range(3)} for steps in chunks]


def _peak_bytes(call):
    """Peak traced memory above the level at entry while `call` runs."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_loss_and_gradient_keeps_nothing_after_it_returns():
    n, input_dim = 20_000, 2
    spec = ModelSpec(input_dim, (16,), "tanh", {0: HeadSpec(4)})
    params = trained_like_params(spec, 3)
    rng = np.random.default_rng(5)
    split = DataSplit(rng.normal(size=(n, input_dim)), rng.integers(0, 4, size=n), 0)
    evaluate(spec, params, split, 0)  # warm-up: the workspaces grow to n rows
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = loss_and_gradient(spec, params, split)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(result[1]).all()
    # the returned gradient is held too; one table of the split's inputs is
    # n * input_dim * 8 bytes
    assert after - before < n * input_dim * 8


class TestAllocations:
    """Deterministic guards on what the kernel allocates, read from
    tracemalloc (numpy reports its data buffers to it); no timing. Each
    bound is one (rows, hidden) float64 activation, which the per-call
    forward/backward used to allocate several of."""

    def test_repeat_evaluation_allocates_less_than_one_activation(self):
        n, hidden = 20_000, 16
        spec = ModelSpec(2, (hidden,), "tanh", {0: HeadSpec(4)})
        params = trained_like_params(spec, 1)
        rng = np.random.default_rng(0)
        split = DataSplit(rng.normal(size=(n, 2)), rng.integers(0, 4, size=n), 0)
        evaluate(spec, params, split, 0)  # warm-up: the workspaces grow to n rows
        assert _peak_bytes(lambda: evaluate(spec, params, split, 0)) < n * hidden * 8

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_repeat_gradient_allocates_less_than_one_activation(self, activation):
        n, hidden = 2048, 16
        spec = ModelSpec(2, (hidden, hidden), activation, {0: HeadSpec(4)})
        params = trained_like_params(spec, 2)
        rng = np.random.default_rng(1)
        batch = DataSplit(rng.normal(size=(n, 2)), rng.integers(0, 4, size=n), 0)
        loss_and_gradient(spec, params, batch)  # warm-up
        assert _peak_bytes(lambda: loss_and_gradient(spec, params, batch)) < n * hidden * 8

    def test_training_allocates_nothing_that_grows_with_steps(self):
        family = small_family()
        spec = family_spec(family)
        start = init_params(spec, RngStream(1).child("init"))
        branches = make_omega_branches(2)

        def train(steps):
            opt = OptConfig(0.1, momentum=0.9, lr_schedule="constant")
            train_branches(start, branches, range(steps), steps, family, spec, opt,
                           RngStream(1))

        # warm-up: the kernel's workspaces grow to the batch size, and the
        # batch draw's to a whole chunk of steps
        train(100)
        tracemalloc.start()
        try:
            held = []
            for steps in (10, 100):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                train(steps)
                after, peak = tracemalloc.get_traced_memory()
                held.append((after - before, peak - before))
        finally:
            tracemalloc.stop()
        (held_10, peak_10), (held_100, peak_100) = held
        # a few interpreter-level bytes may differ (larger step ints); even
        # one float kept per step would add 90 * 24 bytes
        assert held_100 - held_10 < 1024
        assert peak_100 - peak_10 < 1024
