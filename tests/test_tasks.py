import csv
import io

import numpy as np
import pytest

import auxlab.tasks as tasks
from auxlab.tasks import (
    CsvFormatError,
    DataSplit,
    TaskFamily,
    TaskFamilyConfig,
    class_labels,
    csv_text,
    family_geometry,
    generate_family,
    load_csv,
    load_family,
    sample_interpolated,
    write_csv,
    write_family,
)
from auxlab.vectors import RngStream


def cfg(relatedness, **kw):
    defaults = dict(
        n_tasks=1 + len(relatedness),
        relatedness=tuple(relatedness),
        input_dim=2,
        n_classes=4,
        n_train=50,
        n_val=20,
        n_test=20,
        noise_std=0.3,
        seed=11,
    )
    defaults.update(kw)
    return TaskFamilyConfig(**defaults)


def mean_center_distances(geo):
    """Each auxiliary task's mean distance from its class centers to the
    target's."""
    return [float(np.linalg.norm(aux - geo.target_means, axis=1).mean())
            for aux in geo.aux_means]


class TestGeometry:
    def test_r1_matches_target_generator(self):
        geo = family_geometry(cfg([1.0]))
        np.testing.assert_array_equal(geo.aux_means[0], geo.target_means)
        assert geo.label_flip_probs[0] == 0.0

    def test_r0_maximal_displacement_and_half_flips(self):
        geo = family_geometry(cfg([0.0, 0.5, 1.0]))
        assert geo.label_flip_probs[0] == 0.5
        d0, d5, d10 = mean_center_distances(geo)
        assert d0 > d5 > d10 == 0.0

    def test_displacement_monotone_in_relatedness(self):
        rs = [0.0, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 1.0]
        geo = family_geometry(cfg(rs))
        disp = mean_center_distances(geo)
        assert all(a >= b for a, b in zip(disp, disp[1:]))

    def test_target_means_on_circle(self):
        geo = family_geometry(cfg([0.5], mean_scale=3.0, input_dim=5))
        radii = np.linalg.norm(geo.target_means[:, :2], axis=1)
        np.testing.assert_allclose(radii, 3.0, rtol=1e-12)
        assert np.all(geo.target_means[:, 2:] == 0.0)


class TestClassLabels:
    """One label rule, shared by families and the model: every label is an
    integer in [0, C)."""

    @pytest.mark.parametrize("targets, message", [
        ([0.0, 1.5, 2.9], "not an integer"),
        ([0.0, np.nan, 1.0], "not an integer"),
        ([0, 1, 3], "out of range"),
        ([-1, 0, 1], "out of range"),
        ([0.0, np.inf, 1.0], "out of range"),
        ([-1.0, 0.0, 1.0], "out of range"),
        (np.array([0, 2**63], dtype=np.uint64), "out of range"),
    ])
    def test_rejected(self, targets, message):
        with pytest.raises(ValueError, match=message):
            class_labels(np.asarray(targets), 3)
        split = DataSplit(np.zeros((len(targets), 2)), targets, 0)
        with pytest.raises(ValueError, match=f"task 0 train: class label .*{message}"):
            TaskFamily({0: {"train": split, "val": split, "test": split}}, 3, 2)

    @pytest.mark.parametrize("targets", [[0, 1, 2], [0.0, 1.0, 2.0], [True, False, True]])
    def test_integral_labels_read_as_int64(self, targets):
        labels = class_labels(np.asarray(targets), 3)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, np.asarray(targets, dtype=np.int64))

    def test_int64_labels_are_not_copied(self):
        targets = np.array([2, 0, 1])
        assert class_labels(targets, 3) is targets

    def test_an_empty_split_has_no_bad_label(self):
        assert len(class_labels(np.zeros(0, dtype=np.int64), 3)) == 0
        assert len(class_labels(np.zeros(0), 3)) == 0


class TestGenerateFamily:
    def test_deterministic(self):
        a = generate_family(cfg([0.5]))
        b = generate_family(cfg([0.5]))
        for t in a.task_ids:
            for s in ("train", "val", "test"):
                np.testing.assert_array_equal(a.split(t, s).inputs, b.split(t, s).inputs)
                np.testing.assert_array_equal(a.split(t, s).targets, b.split(t, s).targets)

    def test_splits_disjoint_by_row_hash(self):
        fam = generate_family(cfg([0.2]))
        for t in fam.task_ids:
            seen = set()
            for s in ("train", "val", "test"):
                for row in fam.split(t, s).inputs:
                    seen_len = len(seen)
                    seen.add(row.tobytes())
                    assert len(seen) == seen_len + 1, "duplicate row across splits"

    def test_counts_and_labels(self):
        fam = generate_family(cfg([0.5, 0.9], n_train=37, n_val=11, n_test=13))
        assert fam.task_ids == (0, 1, 2)
        for t in fam.task_ids:
            assert len(fam.train(t)) == 37
            assert len(fam.val(t)) == 11
            assert len(fam.test(t)) == 13
            labels = fam.train(t).targets
            assert labels.min() >= 0 and labels.max() < 4

    def test_per_task_train_counts(self):
        fam = generate_family(cfg([0.9], n_train=(200, 2000)))
        assert len(fam.train(0)) == 200
        assert len(fam.train(1)) == 2000

    def test_aux_label_flip_rate_near_expected(self):
        # r=0: flip probability 0.5; measure against the same family regenerated
        # with r=1 on matched streams is impossible (streams differ), so check
        # statistically against the class-conditional structure instead.
        fam = generate_family(cfg([0.0], n_train=4000, noise_std=0.01, seed=3))
        geo = family_geometry(cfg([0.0], n_train=4000, noise_std=0.01, seed=3))
        split = fam.train(1)
        # with tiny noise, nearest aux mean recovers the generative label
        dists = np.linalg.norm(split.inputs[:, None, :] - geo.aux_means[0][None], axis=2)
        true_labels = dists.argmin(axis=1)
        flip_rate = np.mean(split.targets != true_labels)
        assert abs(flip_rate - 0.5) < 4 * np.sqrt(0.25 / 4000)
        flipped = split.targets[split.targets != true_labels]
        expected = (true_labels[split.targets != true_labels] + 1) % 4
        np.testing.assert_array_equal(flipped, expected)

    def test_target_is_always_task_zero(self):
        fam = generate_family(cfg([0.5]))
        assert fam.target_id == 0 and fam.aux_ids == (1,)
        with pytest.raises(TypeError):
            TaskFamily(fam.splits, fam.n_classes, fam.input_dim, target_id=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TaskFamilyConfig(n_tasks=2, relatedness=(0.5, 0.5))
        with pytest.raises(ValueError):
            TaskFamilyConfig(n_tasks=2, relatedness=(1.5,))
        with pytest.raises(ValueError):
            TaskFamilyConfig(n_tasks=2, relatedness=(0.5,), n_val=0)
        with pytest.raises(ValueError):
            TaskFamilyConfig(n_tasks=2, relatedness=(0.5,), input_dim=1)
        with pytest.raises(ValueError):
            TaskFamilyConfig(n_tasks=3, relatedness=(0.5, 0.5), n_train=(10, 10))


class TestSampleInterpolated:
    def make_pair(self):
        tgt = DataSplit(np.zeros((500, 2)), np.zeros(500, dtype=int), 0)
        aux = DataSplit(np.ones((500, 2)), np.ones(500, dtype=int), 1)
        return tgt, aux

    def test_lambda_zero_all_target(self):
        tgt, aux = self.make_pair()
        out = sample_interpolated(tgt, aux, 0.0, 200, RngStream(5))
        assert np.all(out.inputs == 0.0)
        assert out.task_id == 0

    @pytest.mark.parametrize("lam,expected", [(1.0, 0.5), (1.0 / 3.0, 0.25)])
    def test_aux_fraction_binomial(self, lam, expected):
        tgt, aux = self.make_pair()
        n = 10_000
        out = sample_interpolated(tgt, aux, lam, n, RngStream(7).child("mix"))
        frac = float(np.mean(out.inputs[:, 0]))
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs(frac - expected) <= 4 * sigma

    def test_rejects_negative_lambda_and_dim_mismatch(self):
        tgt, aux = self.make_pair()
        with pytest.raises(ValueError):
            sample_interpolated(tgt, aux, -0.1, 10, RngStream(0))
        bad = DataSplit(np.ones((5, 3)), np.ones(5, dtype=int), 1)
        with pytest.raises(ValueError):
            sample_interpolated(tgt, bad, 0.5, 10, RngStream(0))


EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, np.nan, np.inf, -np.inf]


def reference_csv(header, rows) -> str:
    """The writer's text, cell by cell and row by row through ``csv.writer``:
    a float is repr(float(v)), None is an empty cell, anything else is left
    to ``csv``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        ["" if v is None else repr(float(v)) if isinstance(v, (float, np.floating)) else v
         for v in row] for row in rows)
    return buffer.getvalue()


def reference_split_csv(inputs, labels) -> str:
    header = [f"f{i}" for i in range(inputs.shape[1])] + ["label"]
    return reference_csv(header, [[*x, int(y)] for x, y in zip(inputs, labels)])


class TestWriter:
    """`csv_text` and `write_csv` against the row-by-row reference above."""

    @pytest.mark.parametrize("input_dim", [1, 2, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_split_matches_reference(self, tmp_path, input_dim, dtype):
        rng = np.random.default_rng(input_dim)
        inputs = rng.normal(size=(40, input_dim)) * 10.0 ** rng.integers(-8, 9, (40, input_dim))
        for j in range(input_dim):  # every edge value in every column
            inputs[j: j + len(EDGE_FLOATS), j] = EDGE_FLOATS
        inputs = inputs.astype(dtype)
        labels = rng.integers(0, 4, size=40)
        want = reference_split_csv(inputs, labels)
        path = tmp_path / "split.csv"
        write_csv(DataSplit(inputs, labels), path)
        assert path.read_text(encoding="utf-8") == want
        header = [f"f{i}" for i in range(input_dim)] + ["label"]
        assert csv_text(header, [*inputs.T, labels]) == want

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_other_float_cells_read_as_python_floats(self, dtype):
        column = np.array([0.1, 1 / 3, 1e4, -0.0, np.nan], dtype=dtype)
        assert csv_text(["x"], [column]).splitlines()[1:] == [
            repr(float(v)) for v in column]

    @pytest.mark.parametrize("input_dim", [1, 2, 5])
    def test_header_only_split(self, tmp_path, input_dim):
        path = tmp_path / "empty.csv"
        write_csv(DataSplit(np.empty((0, input_dim)), np.empty(0, dtype=np.int64)), path)
        assert path.read_text(encoding="utf-8") == reference_split_csv(
            np.empty((0, input_dim)), [])

    def test_mixed_table_matches_reference(self):
        rows = [("a,b", 1, 0.1 + 0.2, None, np.float32(0.1)),
                ('say "hi"', np.int64(-3), np.nan, 2.5, np.float64(-0.0)),
                ("line\nbreak", 0, 1e16, None, np.float64(5e-324))]
        header = ("name", "count", "value", "maybe", "scalar")
        assert csv_text(header, zip(*rows)) == reference_csv(header, rows)
        assert csv_text(header, zip(*[])) == reference_csv(header, [])


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        fam = generate_family(cfg([0.3]))
        path = tmp_path / "t.csv"
        write_csv(fam.train(1), path)
        back = load_csv(path, input_dim=2, n_classes=4, task_id=1)
        np.testing.assert_array_equal(back.inputs, fam.train(1).inputs)
        np.testing.assert_array_equal(back.targets, fam.train(1).targets)
        assert back.task_id == 1

    def test_small_file(self, tmp_path):
        p = tmp_path / "mini.csv"
        p.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,2\n")
        split = load_csv(p, input_dim=2, n_classes=4)
        assert len(split) == 3
        assert split.inputs[1, 0] == -1.0

    def test_bad_feature_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\noops,1.0,0\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(p, input_dim=2, n_classes=4)

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,1.0,7\n")
        with pytest.raises(CsvFormatError, match="label 7"):
            load_csv(p, input_dim=2, n_classes=4)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,label\n1.0,1.0,0\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(p, input_dim=2, n_classes=4)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", input_dim=2, n_classes=4)

    def test_fast_path_equals_row_reader_bitwise(self, tmp_path, monkeypatch):
        fam = generate_family(cfg([0.4, 0.8], n_train=300))
        write_family(fam, tmp_path)
        edge = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308],
                         [0.1 + 0.2, 1 / 3], [-1e-300, 123456789.123456789]])
        write_csv(DataSplit(edge, np.array([0, 3, 1, 2]), 0), tmp_path / "edge0_val.csv")
        paths = sorted(tmp_path.glob("*.csv"))
        slow = [tasks._read_rows(path, 2, 4, 0) for path in paths]

        def no_fallback(*args):
            raise AssertionError("the row reader was used for a well-formed file")

        monkeypatch.setattr(tasks, "_read_rows", no_fallback)
        for path, want in zip(paths, slow):
            got = load_csv(path, input_dim=2, n_classes=4)
            assert got.inputs.shape == want.inputs.shape
            np.testing.assert_array_equal(got.inputs.view(np.uint64),
                                          want.inputs.view(np.uint64))
            np.testing.assert_array_equal(got.targets, want.targets)
            assert got.targets.dtype == np.int64
            assert got.inputs.flags.c_contiguous and got.targets.flags.c_contiguous

    @pytest.mark.parametrize("row, message", [
        ("0.5,0.5,1.0", "line 3: label '1.0' is not an integer"),
        ("0.5,0.5", "line 3: expected 3 fields, got 2"),
        ("0.5,0.5,1,1", "line 3: expected 3 fields, got 4"),
        ("0.5,0.5,-1", "line 3: label -1 outside [0, 4)"),
        ("0.5,nan?,1", "line 3: could not convert string to float: 'nan?'"),
    ])
    def test_malformed_row_is_named_as_before(self, tmp_path, row, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"f0,f1,label\n1.0,1.0,0\n{row}\n2.0,2.0,3\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(p, input_dim=2, n_classes=4)
        assert str(err.value) == f"{p}: {message}"

    def test_values_only_python_parses_are_read_as_before(self, tmp_path):
        p = tmp_path / "odd.csv"
        p.write_text("f0,f1,label\n1_0,2.5,0_1\n\n0.5,0.5,2\n")
        split = load_csv(p, input_dim=2, n_classes=4)
        np.testing.assert_array_equal(split.inputs, [[10.0, 2.5], [0.5, 0.5]])
        np.testing.assert_array_equal(split.targets, [1, 2])

    def test_header_only_file_is_an_empty_split(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("f0,f1,label\n")
        split = load_csv(p, input_dim=2, n_classes=4)
        assert split.inputs.shape == (0, 2) and len(split.targets) == 0

    def test_family_round_trip(self, tmp_path):
        fam = generate_family(cfg([0.4, 0.8]))
        write_family(fam, tmp_path)
        back = load_family(tmp_path, n_tasks=3, input_dim=2, n_classes=4)
        assert back.task_ids == fam.task_ids
        np.testing.assert_array_equal(back.val(0).inputs, fam.val(0).inputs)
        np.testing.assert_array_equal(back.train(2).inputs, fam.train(2).inputs)

    def test_loaded_family_writes_back_without_aux_val_splits(self, tmp_path):
        # the auxiliary val splits it lacks are written header-only, so the
        # copy loads as a family again
        write_family(generate_family(cfg([0.4, 0.8])), tmp_path / "a")
        back = load_family(tmp_path / "a", 3, 2, 4)
        written = write_family(back, tmp_path / "b")
        assert sorted(p.name for p in written) == sorted(
            p.name for p in (tmp_path / "a").iterdir())
        for path in written:
            if path.name in ("task1_val.csv", "task2_val.csv"):
                assert path.read_text(encoding="utf-8") == "f0,f1,label\n"
            else:
                assert path.read_bytes() == (tmp_path / "a" / path.name).read_bytes()
        again = load_family(tmp_path / "b", 3, 2, 4)
        for t in back.task_ids:
            assert sorted(again.splits[t]) == sorted(back.splits[t])
            for name, split in back.splits[t].items():
                np.testing.assert_array_equal(again.split(t, name).inputs, split.inputs)

    def test_aux_val_splits_are_checked_not_read(self, tmp_path):
        fam = generate_family(cfg([0.4, 0.8]))
        write_family(fam, tmp_path)
        (tmp_path / "task2_val.csv").write_text("f0,f1,label\nnot,a,row\n")
        back = load_family(tmp_path, 3, 2, 4)
        assert [sorted(back.splits[t]) for t in back.task_ids] == [
            ["test", "train", "val"], ["test", "train"], ["test", "train"]]
        np.testing.assert_array_equal(back.val(0).inputs, fam.val(0).inputs)
        np.testing.assert_array_equal(back.test(2).inputs, fam.test(2).inputs)
        (tmp_path / "task1_val.csv").write_text("x,y,label\n")
        with pytest.raises(CsvFormatError, match="task1_val.csv"):
            load_family(tmp_path, 3, 2, 4)
