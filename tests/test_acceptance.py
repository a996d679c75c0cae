"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and runtime
bound, records a `[criterion NN] label: PASS|FAIL` line (echoed in the
terminal summary by conftest.py), and then asserts. The heavyweight
experiment runs are shared through session-scoped fixtures so the whole
gate stays fast.
"""

import csv
import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from auxlab import cli
from auxlab.forkmerge import merge_coeffs_from_task_weights
from auxlab.nn import (
    HeadSpec,
    MEAN_SQUARED_ERROR,
    ModelSpec,
    init_params,
    loss_and_gradient,
)
from auxlab.optim import TaskWeighting, sgd_step, weighted_gradient
from auxlab.runner import (
    RECORDS_FILENAME,
    ResultRecord,
    aggregate,
    read_records,
)
from auxlab.tasks import DataSplit
from auxlab.vectors import RngStream, linear_combination


@pytest.fixture(scope="session")
def gate(acceptance_log):
    def _gate(num: int, label: str, ok: bool, detail: str = "") -> None:
        line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        acceptance_log.append(line)
        print(line)
        assert ok, line

    return _gate


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(want)), 1e-300)
    return float(np.linalg.norm(got - want)) / denom


def _one_step(params, grads, weighting, lr):
    new_params, _ = sgd_step(params, np.zeros_like(params),
                             weighted_gradient(grads, weighting), 0.0, lr)
    return new_params


def _random_grads(rng, n_tasks):
    dim = int(rng.integers(2, 5))
    width = int(rng.integers(3, 7))
    n_cls = int(rng.integers(2, 5))
    spec = ModelSpec(
        dim, (width,), "tanh", {t: HeadSpec(n_cls) for t in range(n_tasks)}
    )
    params = init_params(spec, RngStream(int(rng.integers(1 << 30))))
    grads = {}
    for t in range(n_tasks):
        batch = DataSplit(
            rng.normal(size=(8, dim)), rng.integers(0, n_cls, size=8), t
        )
        grads[t] = loss_and_gradient(spec, params, batch)[1]
    return params, grads


def test_c01_single_aux_merge_identity(gate):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        params, grads = _random_grads(rng, n_tasks=2)
        lam = float(rng.uniform())
        lr = float(rng.uniform(0.01, 0.5))
        direct = _one_step(params, grads, TaskWeighting({0: 1.0, 1: lam}), lr)
        merged = linear_combination(
            [1.0 - lam, lam],
            [
                _one_step(params, grads, TaskWeighting({0: 1.0}), lr),
                _one_step(params, grads, TaskWeighting({0: 1.0, 1: 1.0}), lr),
            ],
        )
        worst = max(worst, _rel_err(merged, direct))
    elapsed = time.perf_counter() - start
    gate(
        1,
        "two-branch merge equals direct weighted step",
        worst <= 1e-9 and elapsed < 5.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_multi_branch_merge_identity(gate):
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n_aux in (2, 3, 4):
        for _ in range(20):
            params, grads = _random_grads(rng, n_tasks=n_aux + 1)
            raw = rng.uniform(size=n_aux)
            lams = raw * float(rng.uniform()) / float(raw.sum())
            lr = float(rng.uniform(0.01, 0.5))
            weights = {0: 1.0, **{k + 1: float(lams[k]) for k in range(n_aux)}}
            direct = _one_step(params, grads, TaskWeighting(weights), lr)
            branch_steps = [_one_step(params, grads, TaskWeighting({0: 1.0}), lr)]
            for k in range(1, n_aux + 1):
                branch_steps.append(
                    _one_step(params, grads, TaskWeighting({0: 1.0, k: 1.0}), lr)
                )
            coeffs = merge_coeffs_from_task_weights([float(v) for v in lams])
            merged = linear_combination(coeffs, branch_steps)
            worst = max(worst, _rel_err(merged, direct))
    elapsed = time.perf_counter() - start
    gate(
        2,
        "omega-branch combination equals direct multi-task step",
        worst <= 1e-9 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_c03_gradients_match_finite_differences(gate):
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    step_size = 1e-5
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        hidden = ((), (4,), (5, 3))[int(rng.integers(0, 3))]
        heads = {0: HeadSpec(int(rng.integers(2, 4)))}
        if rng.uniform() < 0.5:
            heads[1] = HeadSpec(2, MEAN_SQUARED_ERROR)
        spec = ModelSpec(dim, hidden, "tanh", heads)
        params = init_params(spec, RngStream(int(rng.integers(1 << 30))))
        task = int(rng.integers(0, len(heads)))
        if heads[task].loss == MEAN_SQUARED_ERROR:
            targets = rng.normal(size=(6, heads[task].output_dim))
        else:
            targets = rng.integers(0, heads[task].output_dim, size=6)
        batch = DataSplit(rng.normal(size=(6, dim)), targets, task)
        _, analytic = loss_and_gradient(spec, params, batch)
        fd = np.zeros_like(analytic)
        for i in range(len(fd)):
            bumped = params.copy()
            bumped[i] += step_size
            up = loss_and_gradient(spec, bumped, batch)[0]
            bumped[i] -= 2 * step_size
            down = loss_and_gradient(spec, bumped, batch)[0]
            fd[i] = (up - down) / (2 * step_size)
        # The 1e-5 floor guards coordinates the batch never touches (both
        # sides exactly zero) from a 0/0 blow-up; everywhere else this is the
        # plain per-coordinate relative error.
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-5)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    gate(
        3,
        "analytic gradients match central finite differences",
        worst <= 1e-4 and elapsed < 30.0,
        f"max per-coord rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_c04_published_table_recomputation(gate):
    stl = (77.6, 41.4, 71.8, 73.0, 84.6, 70.2)
    ew = (78.0, 38.1, 67.2, 50.8, 77.1, 67.0)
    records = [
        ResultRecord(method, 0, task, "test", "accuracy", value, None, 0)
        for method, values in (("stl", stl), ("ew", ew))
        for task, value in enumerate(values)
    ]
    summary = aggregate(records)
    ew_delta = summary["ew"]["delta_m_pct"]
    stl_delta = summary["stl"]["delta_m_pct"]
    gate(
        4,
        "six-task mean relative improvement recomputation",
        abs(ew_delta - (-9.62)) <= 0.01 and stl_delta == 0.0,
        f"ew {ew_delta:+.4f}% vs -9.62%, stl {stl_delta:+.4f}%",
    )


# --- shared experiment runs for the regime criteria ------------------------

STRONG_NEGATIVE_CONFIG = """\
method = {method}
seeds = 0,1,2,3,4
n_tasks = 5
relatedness = 0.0,0.0,0.0,0.0
input_dim = 2
n_classes = 4
n_train = 2000
n_val = 500
n_test = 1000
noise_std = 0.35
mean_scale = 1.0
hidden_dims = 8
activation = tanh
total_steps = 60
base_lr = 0.05
lr_schedule = cosine
batch_size = 64
merge_interval = 20
"""

POSITIVE_CONFIG = """\
method = {method}
seeds = 0,1,2,3,4
n_tasks = 2
relatedness = 0.9
input_dim = 20
n_classes = 4
n_train = 200,2000
n_val = 500
n_test = 1000
noise_std = 1.0
mean_scale = 2.0
hidden_dims = 16
activation = tanh
total_steps = 400
base_lr = 0.05
lr_schedule = cosine
batch_size = 64
merge_interval = 100
"""


def _run_cli(args: list[str]) -> None:
    rc = cli.main(args)
    assert rc == 0, f"auxlab {' '.join(args)} exited {rc}"


def _run_family(base: Path, template: str) -> dict:
    """Run ``ew`` and then ``forkmerge`` into one dir, so that ``forkmerge``
    reuses the ``stl`` jobs ``ew`` trained. Then tear a copy of its records
    within the last ``stl`` job, as a crash would leave it: ``stl`` seeds 0-3
    whole, one row of seed 4 and half of the next. Re-run both configs into
    the copy; that recomputes ``stl`` seed 4 and every method job, and the
    method jobs of seeds 0-3 take their gain from ``stl`` values read back
    from the file."""
    start = time.perf_counter()
    whole, torn = base / "uninterrupted", base / "resumed"
    cfgs = []
    for method in ("ew", "forkmerge"):
        cfg = base / f"{method}.cfg"
        cfg.write_text(template.format(method=method), encoding="utf-8")
        cfgs.append(cfg)
        _run_cli(["run", "--config", str(cfg), "--output-dir", str(whole)])
    records = read_records(whole / RECORDS_FILENAME)
    rows_per_stl_job = sum(r.method == "stl" and r.seed == 0 for r in records)
    lines = (whole / RECORDS_FILENAME).read_text(encoding="utf-8").splitlines(True)
    kept = 1 + 4 * rows_per_stl_job + 1  # the header, seeds 0-3, one row of 4
    cut = records[kept - 1]  # the row torn in half: not seed 4's last
    assert (cut.method, cut.seed, cut.split) == ("stl", 4, "test")
    torn.mkdir()
    # the crash came while ew's run trained stl: only these echoes exist yet
    for method in ("stl", "ew"):
        name = f"config_echo_{method}.cfg"
        shutil.copyfile(whole / name, torn / name)
    (torn / RECORDS_FILENAME).write_text(
        "".join(lines[:kept]) + lines[kept][:len(lines[kept]) // 2],
        encoding="utf-8")
    for cfg in cfgs:
        _run_cli(["run", "--config", str(cfg), "--output-dir", str(torn)])
    return {
        "records": records,
        "dirs": (whole, torn),
        "elapsed": time.perf_counter() - start,
    }


def _target_tgs(records: list[ResultRecord], method: str) -> list[float]:
    return [
        r.tg
        for r in records
        if r.method == method
        and r.split == "test"
        and r.task_id == 0
        and r.metric == "accuracy"
        and r.tg is not None
    ]


@pytest.fixture(scope="session")
def strong_negative_runs(tmp_path_factory):
    return _run_family(tmp_path_factory.mktemp("strong_negative"), STRONG_NEGATIVE_CONFIG)


@pytest.fixture(scope="session")
def positive_runs(tmp_path_factory):
    return _run_family(tmp_path_factory.mktemp("positive"), POSITIVE_CONFIG)


def test_c05_strong_negative_family_mitigation(gate, strong_negative_runs):
    ew = statistics.median(_target_tgs(strong_negative_runs["records"], "ew"))
    fm = statistics.median(
        _target_tgs(strong_negative_runs["records"], "forkmerge")
    )
    elapsed = strong_negative_runs["elapsed"]
    gate(
        5,
        "fork/merge avoids harm where equal weighting hurts",
        ew <= -2.0 and fm >= -0.5 and elapsed < 180.0,
        f"EW median TG {ew:+.2f} (need <= -2.0), "
        f"forkmerge {fm:+.2f} (need >= -0.5), {elapsed:.1f}s",
    )


def test_c06_positive_family_preservation(gate, positive_runs):
    ew = statistics.median(_target_tgs(positive_runs["records"], "ew"))
    fm = statistics.median(_target_tgs(positive_runs["records"], "forkmerge"))
    elapsed = positive_runs["elapsed"]
    gate(
        6,
        "fork/merge keeps the gain on a data-starved target",
        fm >= 1.0 and fm >= ew - 0.5 and elapsed < 180.0,
        f"forkmerge median TG {fm:+.2f} (need >= +1.0), "
        f"EW {ew:+.2f}, {elapsed:.1f}s",
    )


def test_c07_per_merge_non_regression(gate, strong_negative_runs, positive_runs):
    checked = 0
    worst_gap = float("inf")
    for runs in (strong_negative_runs, positive_runs):
        for run_dir in runs["dirs"]:
            histories = sorted(run_dir.glob("merge_history_*.json"))
            assert histories, f"no merge histories under {run_dir}"
            for path in histories:
                for round_info in json.loads(path.read_text())["rounds"]:
                    gap = round_info["chosen_perf"] - round_info["target_only_perf"]
                    worst_gap = min(worst_gap, gap)
                    checked += 1
    gate(
        7,
        "every merge keeps at least the target-only branch",
        checked > 0 and worst_gap >= 0.0,
        f"{checked} merges, worst margin {worst_gap:+.4f}",
    )


GREEDY_CONFIG = """\
method = forkmerge_multi
seeds = 0,1,2
n_tasks = {n_tasks}
relatedness = {relatedness}
input_dim = 2
n_classes = 4
n_train = 500
n_val = 200
n_test = 200
noise_std = 0.5
mean_scale = 2.0
hidden_dims = 8
activation = tanh
total_steps = 40
base_lr = 0.1
lr_schedule = cosine
batch_size = 64
merge_interval = 40
search_strategy = greedy
compute_tg = false
"""


def test_c08_greedy_search_eval_budget(gate, tmp_path):
    grid_size = 6  # default candidate grid 0.0,0.2,...,1.0
    details = []
    ok = True
    for n_tasks, relatedness in ((3, "0.9,0.5"), (5, "0.9,0.7,0.5,0.3")):
        n_branches = n_tasks  # target-only plus one per auxiliary task
        bound = (n_branches - 1) * grid_size + n_branches
        run_dir = tmp_path / f"greedy_b{n_branches}"
        cfg = tmp_path / f"greedy_b{n_branches}.cfg"
        cfg.write_text(
            GREEDY_CONFIG.format(n_tasks=n_tasks, relatedness=relatedness),
            encoding="utf-8",
        )
        _run_cli(["run", "--config", str(cfg), "--output-dir", str(run_dir)])
        recorded = {
            r.psearch_evals
            for r in read_records(run_dir / RECORDS_FILENAME)
            if r.method == "forkmerge_multi"
        }
        per_round = [
            round_info["psearch_evals"]
            for path in sorted(run_dir.glob("merge_history_*.json"))
            for round_info in json.loads(path.read_text())["rounds"]
        ]
        assert recorded and per_round
        ok = ok and all(e <= bound for e in recorded | set(per_round))
        details.append(f"B={n_branches}: max {max(recorded | set(per_round))} <= {bound}")
    gate(8, "greedy coefficient search stays within its eval budget", ok,
         "; ".join(details))


def test_c09_resume_determinism(gate, strong_negative_runs, positive_runs):
    ok = True
    details = []
    for runs in (strong_negative_runs, positive_runs):
        whole_dir, torn_dir = runs["dirs"]
        # the header and every row, compared as bytes
        whole, resumed = ((d / RECORDS_FILENAME).read_bytes().splitlines(True)
                          for d in runs["dirs"])
        differ = abs(len(whole) - len(resumed)) + sum(
            a != b for a, b in zip(whole, resumed))
        histories = sorted({p.name for d in runs["dirs"] for p in d.glob("merge_history_*")})
        histories_differ = sum(
            not (torn_dir / name).is_file()
            or (whole_dir / name).read_bytes() != (torn_dir / name).read_bytes()
            for name in histories)
        methods = {r.method for r in runs["records"]}
        ok = (ok and methods == {"stl", "ew", "forkmerge"} and differ == 0
              and histories_differ == 0 and histories != [])
        details.append(f"{differ} of {len(whole) - 1} rows and {histories_differ} of"
                       f" {len(histories)} merge-history files differ")
    gate(
        9,
        "records of a run resumed from a torn file equal an uninterrupted run's",
        ok,
        f"ew and forkmerge, {', '.join(details)}, byte for byte",
    )


def test_c10_analysis_sweeps(gate, tmp_path):
    start = time.perf_counter()
    tg_gcs_csv = tmp_path / "tg_gcs.csv"
    _run_cli([
        "sweep", "tg-gcs",
        "--out", str(tg_gcs_csv),
        "--seeds", "0",
        "--lambdas", "0,0.25,0.5,0.75,1.0",
        "--points", "50",
        "--warm-steps", "300",
        "--relatedness", "0.5",
    ])
    with open(tg_gcs_csv, newline="", encoding="utf-8") as handle:
        sweep_rows = list(csv.DictReader(handle))
    zero_rows = [row for row in sweep_rows if float(row["lambda"]) == 0.0]
    zero_tg_ok = bool(zero_rows) and all(
        float(row["tg"]) == 0.0 for row in zero_rows
    )

    csd_csv = tmp_path / "csd_lambda.csv"
    _run_cli([
        "sweep", "csd-lambda",
        "--out", str(csd_csv),
        "--seeds", "0,1,2,3,4",
        "--lambdas", "0,0.25,0.5,0.75,1.0",
        "--train-steps", "300",
        "--relatedness", "0.0",
        "--n-train", "2000",
    ])
    with open(csd_csv, newline="", encoding="utf-8") as handle:
        csd_rows = list(csv.DictReader(handle))
    by_lambda: dict[float, list[float]] = {}
    for row in csd_rows:
        by_lambda.setdefault(float(row["lambda"]), []).append(float(row["csd"]))
    csd_zero = statistics.median(by_lambda[0.0])
    csd_max = statistics.median(by_lambda[max(by_lambda)])
    elapsed = time.perf_counter() - start
    gate(
        10,
        "diagnostic sweeps show the expected shapes",
        zero_tg_ok and csd_zero < csd_max and elapsed < 300.0,
        f"{len(zero_rows)} zero-weight rows all TG=0, "
        f"median CSD {csd_zero:.4f} < {csd_max:.4f}, {elapsed:.1f}s",
    )
