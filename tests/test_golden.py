"""Golden digests: a tiny fixed experiment must keep producing the same bytes.

Refactors and speed-ups of the training loop are meant to leave every record
bit-identical. These digests pin `records.csv` (without the timing column)
and the merge-history CSVs of small runs of every trainer: `ew`, a 2-branch
`forkmerge` with the grid and with the binary search, a 3-task
`forkmerge_multi` with the full validation split, with a subsample (so
evaluations run on splits of several row counts) and with a two-layer relu
encoder, `fixed_lambda`, `post_train` and `gcs`; and the CSV files of small
`sweep tg-gcs` and `sweep csd-lambda` runs. A change that is meant to alter
results refreshes them and says so.

    PYTHONPATH=src python tests/test_golden.py

prints every case's current digests, which is how a new or refreshed case
gets its values.
"""

import contextlib
import csv
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from auxlab.cli import main
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

# case id -> (config lines added to GOLDEN_CONFIG, {file name: sha256})
GOLDEN = {
    "ew": ("method = ew", {
        RECORDS_FILENAME:
            "fa095cb93a9f86eebf5b671550ba8108cb31ca2940ac50c8555dea84a8ed744b",
    }),
    "forkmerge": ("method = forkmerge", {
        RECORDS_FILENAME:
            "b3c3fe5ab1f84ec4ecda85191b42d2a8730ba5639bbcf5c6eac17e91211d9d94",
        "merge_history_forkmerge_seed0.csv":
            "2086fac6713b7301d74062af2cbdb3b487ea66f039d7433ba19034d8084d3d6c",
        "merge_history_forkmerge_seed1.csv":
            "4b29818e1d616f0897e481ecbb5a457bd3ffa106eeb35b6080401cabc5efee29",
    }),
    "forkmerge_binary": ("method = forkmerge\nsearch_strategy = binary", {
        RECORDS_FILENAME:
            "846b66d21f59ea2758670e60273472d4a463413588889460601bc522324a7108",
        "merge_history_forkmerge_seed0.csv":
            "3996c8f7fbcf8b53cba1040338926516591ea1a2a727cbfa61d81594afaeeb59",
        "merge_history_forkmerge_seed1.csv":
            "0bd010a4f5a4d9d7ff24034e22403022d319e2440f4eb3d838b9d9b80cc74cc7",
    }),
    "forkmerge_multi": ("method = forkmerge_multi", {
        RECORDS_FILENAME:
            "e83fccccb17e1aa002369fe638b2193c4dabbfc8060b1f524630aab5f0e2978d",
        "merge_history_forkmerge_multi_seed0.csv":
            "ce56b5c8d69f4cc593a5c2dd7dea814d9d3425d2cf1e88519a3895491197eef9",
        "merge_history_forkmerge_multi_seed1.csv":
            "66966e6367ba79586133081dd261b4c9fb1c46fa631addf7ce1c138e6ca66036",
    }),
    "forkmerge_multi_valsub": ("method = forkmerge_multi\nval_subsample = 120", {
        RECORDS_FILENAME:
            "e5a8e34e5b23b5df7d7ed40021aa449debaac1847315129a2423839161ca6fb7",
        "merge_history_forkmerge_multi_seed0.csv":
            "b749a62ffe893db0596e7f9cfb1d84cac3cdd67e2de61bdecb86de3c11bee57e",
        "merge_history_forkmerge_multi_seed1.csv":
            "4a51c046daed2a5af255d64d48e6ef9a6ce80b509b2d9f214f97db8017dd1397",
    }),
    "forkmerge_multi_relu_deep": (
        "method = forkmerge_multi\nactivation = relu\nhidden_dims = 8,8", {
            RECORDS_FILENAME:
                "e1464660d82271ea366863577d9e4df7c6683e02528ea0f84c8e65c8112b8a74",
            "merge_history_forkmerge_multi_seed0.csv":
                "c5dd8a655eca5f916f1b36524d2be709fdae273980e3ff32911b18fc5aaf88cc",
            "merge_history_forkmerge_multi_seed1.csv":
                "48ac2509df17d59a444385686fc30cc6a603802d49e7f87b02a510965f63d045",
        }),
    "fixed_lambda": ("method = fixed_lambda", {
        RECORDS_FILENAME:
            "b5d6b0fac4ebf9f05bfcf2e0929e0718c9604266fe23a82b54b2aa04056d12c7",
    }),
    "post_train": ("method = post_train\npre_steps = 20", {
        RECORDS_FILENAME:
            "5dcca39db248affc3adccac6debe73ca3fc4a57c708bd6b4122cf42bb338369e",
    }),
    "gcs": ("method = gcs", {
        RECORDS_FILENAME:
            "54726b50d5d8f71b054a220241d67ba19ecb666e67709a57c1531103b50202dd",
    }),
}

SWEEP_FILENAME = "sweep.csv"
SWEEP_FAMILY = ["--n-train", "200", "--n-val", "120", "--n-test", "60",
                "--noise-std", "1.2", "--batch-size", "16"]

# case id -> (`auxlab sweep` arguments, {file name: sha256}); the sweep
# writes SWEEP_FILENAME
SWEEP_GOLDEN = {
    "sweep_tg_gcs": (
        ["tg-gcs", "--seeds", "0,1", "--n-tasks", "3", "--relatedness", "0.8,0.2",
         "--lambdas", "0,0.5,1", "--points", "4", "--warm-steps", "30",
         "--hidden", "8", *SWEEP_FAMILY], {
            SWEEP_FILENAME:
                "cf3ec32cea13658297e0954247aad97e7a8bf4deadf4209801315e629589ddcd",
        }),
    "sweep_csd_lambda": (
        ["csd-lambda", "--seeds", "0,1", "--relatedness", "0.5",
         "--lambdas", "0,0.5,1", "--train-steps", "40", *SWEEP_FAMILY], {
            SWEEP_FILENAME:
                "85be934685be88f23f0f90ec3699d76cb6c36f31a6bbaedfb80fd2b7c3b1a8a2",
        }),
}


def _config_text(lines: str) -> str:
    """GOLDEN_CONFIG with the case's lines added; a case line replaces the
    base line of the same key."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    base = [line for line in GOLDEN_CONFIG.splitlines()
            if line.split("=")[0].strip() not in keys]
    return "\n".join([lines, *base])


def _records_without_wall_time(path) -> bytes:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_s"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([row[i] for i in keep] for row in rows)
    return out.getvalue().encode("utf-8")


def _digests(case: str, out_dir: Path) -> dict[str, str]:
    """Run ``case`` into ``out_dir``; the sha256 of each file it pins."""
    if case in GOLDEN:
        lines, digests = GOLDEN[case]
        run_experiment(parse_config_text(_config_text(lines)), output_dir=out_dir)
    else:
        argv, digests = SWEEP_GOLDEN[case]
        assert main(["sweep", *argv, "--out", str(out_dir / SWEEP_FILENAME)]) == 0
    got = {}
    for name in digests:
        path = out_dir / name
        data = (_records_without_wall_time(path) if name == RECORDS_FILENAME
                else path.read_bytes())
        got[name] = hashlib.sha256(data).hexdigest()
    return got


@pytest.mark.parametrize("case", sorted(GOLDEN) + sorted(SWEEP_GOLDEN))
def test_golden_digests(tmp_path, case):
    expected = {**GOLDEN, **SWEEP_GOLDEN}[case][1]
    assert _digests(case, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(GOLDEN) + sorted(SWEEP_GOLDEN):
            with contextlib.redirect_stdout(io.StringIO()):  # the sweeps' "wrote" lines
                got = _digests(case, Path(tmp) / case)
            for name, digest in got.items():
                print(f"{case}  {name}  {digest}")
