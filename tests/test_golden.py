"""Golden digests: a tiny fixed experiment must keep producing the same bytes.

Refactors and speed-ups of the training loop are meant to leave every record
bit-identical. These digests pin `records.csv` (without the timing column)
and the merge-history CSV of a small `ew` run and a 3-task `forkmerge_multi`
run. A change that is meant to alter results refreshes them and says so.
"""

import csv
import hashlib
import io

import pytest

from auxlab.runner import RECORDS_FILENAME, parse_config_text, run_experiment

GOLDEN_CONFIG = """
seeds = 0,1
n_tasks = 3
relatedness = 0.8,0.3
n_train = 200
n_val = 300
n_test = 300
noise_std = 1.2
hidden_dims = 8
total_steps = 40
merge_interval = 10
batch_size = 16
"""

GOLDEN = {
    "ew": {
        RECORDS_FILENAME:
            "fa095cb93a9f86eebf5b671550ba8108cb31ca2940ac50c8555dea84a8ed744b",
    },
    "forkmerge_multi": {
        RECORDS_FILENAME:
            "e83fccccb17e1aa002369fe638b2193c4dabbfc8060b1f524630aab5f0e2978d",
        "merge_history_forkmerge_multi_seed0.csv":
            "ce56b5c8d69f4cc593a5c2dd7dea814d9d3425d2cf1e88519a3895491197eef9",
        "merge_history_forkmerge_multi_seed1.csv":
            "66966e6367ba79586133081dd261b4c9fb1c46fa631addf7ce1c138e6ca66036",
    },
}


def _records_without_wall_time(path) -> bytes:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_s"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([row[i] for i in keep] for row in rows)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_golden_digests(tmp_path, method):
    config = parse_config_text(f"method = {method}\n{GOLDEN_CONFIG}")
    run_experiment(config, output_dir=tmp_path)
    got = {}
    for name in GOLDEN[method]:
        path = tmp_path / name
        data = (_records_without_wall_time(path) if name == RECORDS_FILENAME
                else path.read_bytes())
        got[name] = hashlib.sha256(data).hexdigest()
    assert got == GOLDEN[method]
