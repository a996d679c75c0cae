"""The verdict of `bench/pairs.py` on synthetic paired samples, one case per
outcome, and its check that both sides run the same benchmark files."""

import importlib.util
from pathlib import Path

import pytest

PAIRS_PATH = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"


def _load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library only
    return module


pairs = _load_pairs()

BASE = [2.00, 2.02, 1.98, 2.01, 1.99, 2.03, 1.97, 2.00, 2.02, 1.98]


@pytest.mark.parametrize("change, expected", [
    # wins all ten pairs, 10% faster against a 2% IQR
    ([b * 0.9 for b in BASE], "gain"),
    # wins nine of ten: enough
    ([b * 0.9 for b in BASE[:9]] + [BASE[9] * 1.01], "gain"),
    # wins eight of ten: not enough, though the median gap is the same
    ([b * 0.9 for b in BASE[:8]] + [b * 1.01 for b in BASE[8:]], "within bound"),
    # wins every pair by less than the base IQR
    ([b - 0.001 for b in BASE], "within bound"),
    # ties count for neither side
    (BASE, "within bound"),
    # 30% slower against a 25% bound
    ([b * 1.3 for b in BASE], "worse"),
    # 20% slower: inside the bound
    ([b * 1.2 for b in BASE], "within bound"),
])
def test_verdict_on_a_lower_is_better_metric(change, expected):
    assert pairs.verdict(BASE, change, "lower", 0.25) == expected


def test_verdict_needs_ten_pairs_for_a_gain():
    assert pairs.verdict(BASE[:9], [b * 0.9 for b in BASE[:9]], "lower", 0.25) \
        == "within bound"


def test_verdict_on_a_higher_is_better_metric():
    accuracy = [85.0 + 0.1 * (i % 3) for i in range(10)]
    assert pairs.verdict(accuracy, [a + 1.0 for a in accuracy], "higher", 0.025) == "gain"
    assert pairs.verdict(accuracy, [a - 5.0 for a in accuracy], "higher", 0.025) == "worse"
    assert pairs.verdict(accuracy, accuracy, "higher", 0.025) == "within bound"


def test_verdict_is_unresolved_when_the_base_spreads_wider_than_the_bound():
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert pairs.verdict(wide, [w * 1.05 for w in wide], "lower", 0.1) == "unresolved"
    # unless every change run reads better than every base run
    assert pairs.verdict(wide, [0.9] * 10, "lower", 0.1) == "within bound"
    assert pairs.verdict(wide, [0.9] * 9 + [2.5], "lower", 0.1) == "unresolved"


def test_wins_and_iqr():
    assert pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
    assert pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1
    assert pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def test_bench_files_see_a_changed_benchmark(tmp_path):
    trees = []
    for name, bound in (("a", 0.25), ("b", 0.5)):
        tree = tmp_path / name
        (tree / "perfbench" / "__pycache__").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("print()\n")
        (tree / "perfbench" / "__pycache__" / "run.pyc").write_bytes(name.encode())
        (tree / "BENCHMARK.json").write_text(f'{{"bound": {bound}}}')
        trees.append(pairs.bench_files(tree))
    assert sorted(trees[0]) == ["BENCHMARK.json", "perfbench/run.py"]
    assert trees[0]["perfbench/run.py"] == trees[1]["perfbench/run.py"]
    assert trees[0] != trees[1]
