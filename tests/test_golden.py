"""Golden digests: a tiny fixed experiment must keep producing the same bytes.

Refactors and speed-ups of the training loop are meant to leave every record
bit-identical. These digests pin the bytes of `records.csv` and of the
merge-history CSVs, and the merge-history JSON files in their canonical
form (`json.dumps(..., sort_keys=True)`), of small runs of every trainer: `ew`, a 2-branch
`forkmerge` with the grid and with the binary search, a 3-task
`forkmerge_multi` with the full validation split, with a subsample (so
evaluations run on splits of several row counts), with a two-layer relu
encoder and pruned to two branches after round 0, a `forkmerge` whose
target-only branch is its second `branch_weights` row, `fixed_lambda`,
`post_train` and `gcs`; and the CSV files of small
`sweep tg-gcs` and `sweep csd-lambda` runs; and every data file of two small
`gen-data` families, one at `--input-dim 3`. A change that is meant to alter
results refreshes them and says so. Each case runs twice: with the merge
searches' candidates scored beside one pool thread, and then on the calling
thread alone, on splits of any size, so a machine of any core count checks
both.

    PYTHONPATH=src python tests/test_golden.py

prints every case's current digests, which is how a new or refreshed case
gets its values.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from auxlab import forkmerge
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
        "merge_history_forkmerge_seed0.json":
            "b84c16cfdcb7af2f6b64d0911712096531e10b63eb0221e15a87dc05e694dcaf",
        "merge_history_forkmerge_seed1.json":
            "9b8444a44ef3ec4dab40d3d2b715f5abb222209b46d61d367f7369e16c79182d",
    }),
    "forkmerge_binary": ("method = forkmerge\nsearch_strategy = binary", {
        RECORDS_FILENAME:
            "846b66d21f59ea2758670e60273472d4a463413588889460601bc522324a7108",
        "merge_history_forkmerge_seed0.csv":
            "3996c8f7fbcf8b53cba1040338926516591ea1a2a727cbfa61d81594afaeeb59",
        "merge_history_forkmerge_seed1.csv":
            "0bd010a4f5a4d9d7ff24034e22403022d319e2440f4eb3d838b9d9b80cc74cc7",
        "merge_history_forkmerge_seed0.json":
            "d1266f3d0aa584a8c9d243cfde1118367312371aeec82b36ecfac5a368503ecf",
        "merge_history_forkmerge_seed1.json":
            "545ad3af646443591c81ff5e554b7edde2b19b1715860a03891733d9f2ea2435",
    }),
    "forkmerge_multi": ("method = forkmerge_multi", {
        RECORDS_FILENAME:
            "e83fccccb17e1aa002369fe638b2193c4dabbfc8060b1f524630aab5f0e2978d",
        "merge_history_forkmerge_multi_seed0.csv":
            "ce56b5c8d69f4cc593a5c2dd7dea814d9d3425d2cf1e88519a3895491197eef9",
        "merge_history_forkmerge_multi_seed1.csv":
            "66966e6367ba79586133081dd261b4c9fb1c46fa631addf7ce1c138e6ca66036",
        "merge_history_forkmerge_multi_seed0.json":
            "149662eba595b3dc7a6f4a043490f396df09dd421cd66f57283726f5b4cbc7a2",
        "merge_history_forkmerge_multi_seed1.json":
            "b7d6399830e018aebf140f77ac83a6e3e735962e366eac0766d40a5f6c6f6d95",
    }),
    "forkmerge_multi_valsub": ("method = forkmerge_multi\nval_subsample = 120", {
        RECORDS_FILENAME:
            "e5a8e34e5b23b5df7d7ed40021aa449debaac1847315129a2423839161ca6fb7",
        "merge_history_forkmerge_multi_seed0.csv":
            "b749a62ffe893db0596e7f9cfb1d84cac3cdd67e2de61bdecb86de3c11bee57e",
        "merge_history_forkmerge_multi_seed1.csv":
            "4a51c046daed2a5af255d64d48e6ef9a6ce80b509b2d9f214f97db8017dd1397",
        "merge_history_forkmerge_multi_seed0.json":
            "05d4954c6671bdbf0aa0ee9d416a8acb01d954f3dbcf9ff3fba2cb27c7c49f61",
        "merge_history_forkmerge_multi_seed1.json":
            "a807e72cd3dcd9dd28605c3c7279615c9b822eaaee56ad2d5089950090b00123",
    }),
    "forkmerge_multi_relu_deep": (
        "method = forkmerge_multi\nactivation = relu\nhidden_dims = 8,8", {
            RECORDS_FILENAME:
                "e1464660d82271ea366863577d9e4df7c6683e02528ea0f84c8e65c8112b8a74",
            "merge_history_forkmerge_multi_seed0.csv":
                "c5dd8a655eca5f916f1b36524d2be709fdae273980e3ff32911b18fc5aaf88cc",
            "merge_history_forkmerge_multi_seed1.csv":
                "48ac2509df17d59a444385686fc30cc6a603802d49e7f87b02a510965f63d045",
            "merge_history_forkmerge_multi_seed0.json":
                "0efec308f8ecd178fa63d7248c3b0c15bc37038134dc662d36b6d1b065904da1",
            "merge_history_forkmerge_multi_seed1.json":
                "7d1f58ee2a436b45294079280d6dac88cf233e86deca9eb0eaabac1a762344bc",
        }),
    # round 0 keeps branches 0 and 2, so later rounds search the pair (0, 2)
    "forkmerge_multi_prune": ("method = forkmerge_multi\nprune_to = 2", {
        RECORDS_FILENAME:
            "5e7922b1689d7d6ee5892361376442ec1ea81f1117600193c52dc3209698fb64",
        "merge_history_forkmerge_multi_seed0.csv":
            "4c332cc8de7c9c117998209b418c3c96144bda01e6c2716e2ebed0e40170a20b",
        "merge_history_forkmerge_multi_seed1.csv":
            "3c0ca0806ad93fd8a39fc62c27932a525ac55b8ac393468ed6a7b0f75b0acc70",
        "merge_history_forkmerge_multi_seed0.json":
            "e8313175978ed55fe5d2686b9646e7ef07ff3b8cbd1e515f127c516c7bab2675",
        "merge_history_forkmerge_multi_seed1.json":
            "cd1c2e67b6f13ff33553b7a0a6d068e770b60e648207483bb17923ddb3ab8557",
    }),
    # the target-only branch second, so its id is 1; the branches train as
    # in the `forkmerge` case, so its records are that case's bytes
    "forkmerge_target_second": ("method = forkmerge\nbranch_weights = 1,1,1;1,0,0", {
        RECORDS_FILENAME:
            "b3c3fe5ab1f84ec4ecda85191b42d2a8730ba5639bbcf5c6eac17e91211d9d94",
        "merge_history_forkmerge_seed0.csv":
            "133ccb1e2b50ce88435c705beb5b7a8f8ce77a81993938065dad54d17d98c08c",
        "merge_history_forkmerge_seed1.csv":
            "f66d7fb33559f43e442d3639eca0346d5ee708c1e0ca6e0967e38f5a60ab3533",
        "merge_history_forkmerge_seed0.json":
            "4d601a1882c7e9e7d404aa5de0583724cbecd9c7fb452c1bce9cc6144f7dcaa2",
        "merge_history_forkmerge_seed1.json":
            "4b073019ee46a51576885238212b566162a68d2bf9156fce19c0bac872c1a53e",
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

GEN_DATA_FAMILY = ["--seed", "4", "--n-tasks", "3", "--relatedness", "0.8,0.2",
                   "--n-train", "40,30,20", "--n-val", "25", "--n-test", "15"]

# case id -> (`auxlab gen-data` arguments, {file name: sha256}); every file
# the command writes is pinned
GEN_DATA_GOLDEN = {
    "gen_data": (GEN_DATA_FAMILY, {
        "task0_train.csv":
            "d88045e4e88a04e54e2475770b1e1cdae58a8f3bd8aacb69dadde63061684dcf",
        "task0_val.csv":
            "8d34439f35e60f6d6ec5c7c7bb01ed6828d8ae889e50a10f9ae7dbf1112fc84e",
        "task0_test.csv":
            "cd6ac96c6d1d7c289930d23a435e187119f416801173e340ccf7564b27f4771f",
        "task1_train.csv":
            "ffccafeb52156dd4c6f9d899024613b737ca6190567a2fe0b2ecf815ca4e2318",
        "task1_val.csv":
            "543b067333c97f1565676abf1c46f144fb0e0db43cbf9244a078588207467d11",
        "task1_test.csv":
            "5ef4eea32224976f7a3378de6e343cc11288f5d6692a2d0cc502c9c0b846915e",
        "task2_train.csv":
            "fa262cea93f66dee8ed0aedc44eee5ee7fff1b92500a38d9148120b8cf1f5293",
        "task2_val.csv":
            "9ac4830ecf83aca09fec57da52a6ad36102dc98c86831d2e3602d39e41aeef4f",
        "task2_test.csv":
            "62373b94c7ad92d8146b80ebc9d61bff3c020422a287d058d2fbecba7548504d",
    }),
    "gen_data_dim3": ([*GEN_DATA_FAMILY, "--input-dim", "3"], {
        "task0_train.csv":
            "7dd6dd17c7de8506598e57cea2edd70888845da30fb13ddde8e4b821e21e6333",
        "task0_val.csv":
            "d687f49ea11378f19a2341e04b639c9ca94b9d46bd5f053056c6a0637ae1cd3e",
        "task0_test.csv":
            "5f1a222df20762bb9e9baccb3cde7bccf6a89312fdb6d7b075c57a61a7ddc64e",
        "task1_train.csv":
            "b5c75195311d9b5672c52f4e464551eefa46112b1a44098a623d76c9545f9870",
        "task1_val.csv":
            "5ea803ffbedf136f16916aa18380c16766bd300928a34fbd774d2117d96e4482",
        "task1_test.csv":
            "bd72e45f378652054dd5cff516dfbdde17653c124f6a2ddedacb94bf803268cc",
        "task2_train.csv":
            "e6804f94bb565dd4e56d23342b8be047915fb1b7240165095c1b7453f970c5e5",
        "task2_val.csv":
            "60ba8fa0e9b9ae393fe0c90333653a30ae9b41131de24b00a56ea3f1e2b7b2e0",
        "task2_test.csv":
            "02884272e43c39b5a743a53c30f9e290dc1a50180b3bd917226c831a4c338003",
    }),
}

ALL_CASES = sorted(GOLDEN) + sorted(SWEEP_GOLDEN) + sorted(GEN_DATA_GOLDEN)


def _config_text(lines: str) -> str:
    """GOLDEN_CONFIG with the case's lines added; a case line replaces the
    base line of the same key."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    base = [line for line in GOLDEN_CONFIG.splitlines()
            if line.split("=")[0].strip() not in keys]
    return "\n".join([lines, *base])


def _digests(case: str, out_dir: Path) -> dict[str, str]:
    """Run ``case`` into ``out_dir``; the sha256 of each file it pins."""
    if case in GOLDEN:
        lines, digests = GOLDEN[case]
        run_experiment(parse_config_text(_config_text(lines)), output_dir=out_dir)
    elif case in SWEEP_GOLDEN:
        argv, digests = SWEEP_GOLDEN[case]
        assert main(["sweep", *argv, "--out", str(out_dir / SWEEP_FILENAME)]) == 0
    else:
        argv, digests = GEN_DATA_GOLDEN[case]
        assert main(["gen-data", *argv, "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(digests)
    got = {}
    for name in digests:
        data = (out_dir / name).read_bytes()
        if name.endswith(".json"):
            data = json.dumps(json.loads(data), sort_keys=True).encode("utf-8")
        got[name] = hashlib.sha256(data).hexdigest()
    return got


@pytest.mark.parametrize("case", ALL_CASES)
def test_golden_digests(tmp_path, monkeypatch, case):
    expected = {**GOLDEN, **SWEEP_GOLDEN, **GEN_DATA_GOLDEN}[case][1]
    # merge candidates scored beside one pool thread, then by the caller alone
    monkeypatch.setattr(forkmerge, "_MIN_ROWS", 0)
    for workers in (1, 0):
        monkeypatch.setattr(forkmerge, "_WORKERS", workers)
        assert _digests(case, tmp_path / f"workers{workers}") == expected


def test_swapping_branch_rows_relabels_only_the_merge_history():
    # a branch trains bit-identically whatever trains beside it
    assert (GOLDEN["forkmerge_target_second"][1][RECORDS_FILENAME]
            == GOLDEN["forkmerge"][1][RECORDS_FILENAME])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in ALL_CASES:
            with contextlib.redirect_stdout(io.StringIO()):  # the commands' "wrote" lines
                got = _digests(case, Path(tmp) / case)
            for name, digest in got.items():
                print(f"{case}  {name}  {digest}")
