import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ehrcluster.data import (
    Dataset,
    FeatureSpec,
    SyntheticSpec,
    apply_bounds,
    filter_missing_rate,
    generate_synthetic,
    impute_median,
    load_csv,
    load_feature_schema,
    minority_count,
    preprocess,
    standardize,
    stratified_subsample,
    synthetic_feature_specs,
    write_labels,
)
from ehrcluster.errors import (
    AllMissingFeature,
    AllSamplesRemoved,
    ConfigError,
    EmptyFile,
    InsufficientClassSamples,
    MissingColumn,
    NonNumericCell,
    ToolkitError,
)
from ehrcluster.metrics import acc, ari
from ehrcluster.traditional import kmeans_fit, kmeans_predict

from conftest import make_dataset


def two_specs():
    return [FeatureSpec("a", "", 0.0, 10.0), FeatureSpec("b", "", 0.0, 10.0)]


# ---------------------------------------------------------------- load_csv

class TestLoadCsv:
    def test_empty_cell_becomes_missing(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,\n5,6\n")
        ds = load_csv(p, two_specs())
        expected = np.zeros((3, 2), dtype=bool)
        expected[1, 1] = True
        assert np.array_equal(ds.missing, expected)
        assert ds.X[1, 0] == 3.0 and np.isnan(ds.X[1, 1])

    def test_na_token(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\nNA,2\n3,4\n")
        ds = load_csv(p, two_specs())
        assert ds.missing[0, 0] and not ds.missing[0, 1]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,c\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(p, two_specs())

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        # the first bad cell in row-major order, each row's features before its label
        for body, row, col in [
            ("1,2,0\n3,abc,0\n", 1, "b"),
            ("1,2,0\n3,inf,x\nz,4,0\n", 1, "b"),
            ("nan,abc,x\n", 0, "a"),
            ("1,2,x\n3,abc,0\n", 0, "y"),
        ]:
            p.write_text("a,b,y\n" + body)
            with pytest.raises(NonNumericCell) as exc:
                load_csv(p, two_specs(), label_column="y")
            assert (exc.value.row, exc.value.col) == (row, col), body

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(p, two_specs())
        p.write_text("a,b\n")
        with pytest.raises(EmptyFile):
            load_csv(p, two_specs())

    def test_labels_and_column_order(self, tmp_path):
        p = tmp_path / "t.csv"
        # header order differs from spec order
        p.write_text("y,b,a\n0,2,1\n1,4,3\n")
        ds = load_csv(p, two_specs(), label_column="y")
        assert np.array_equal(ds.X, [[1, 2], [3, 4]])
        assert np.array_equal(ds.labels, [0, 1])

    def test_a_label_column_listed_as_a_feature_is_refused(self, tmp_path):
        # read as a feature too, the ground truth would sit in X beside the labels
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,0\n3,4,1\n")
        specs = two_specs() + [FeatureSpec("y", "", -1.0, 2.0)]
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: label column 'y' is also a feature"):
            load_csv(p, specs, label_column="y")
        assert load_csv(p, specs).X.shape == (2, 3)  # without labels it is an ordinary feature

    def test_missing_is_where_x_is_nan(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,NA\n,2\n 3 , \n4\n")
        ds = load_csv(p, two_specs())
        assert np.array_equal(ds.missing, np.isnan(ds.X))
        assert ds.missing.tolist() == [[False, True], [True, False], [False, True], [False, True]]

    @given(st.one_of(
        st.text(alphabet="ab,y\n\r\"NA 0123456789.-einf", max_size=60).map(str.encode),
        st.text(alphabet=",\n\r\"NA 0123456789.-einf", max_size=60).map(lambda body: b"a,b,y\n" + body.encode()),
        st.binary(max_size=40).map(lambda body: b"a,b,y\n" + body),  # mostly not UTF-8
    ), st.booleans())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_bytes_load_or_fail_with_a_toolkit_error(self, tmp_path, content, labelled):
        p = tmp_path / "fuzz.csv"
        p.write_bytes(content)
        try:
            ds = load_csv(p, two_specs(), label_column="y" if labelled else None)
        except ToolkitError:
            return
        assert np.array_equal(ds.missing, np.isnan(ds.X))


    def test_column_named_twice_is_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(ConfigError, match=f"^{p}: column 'a' appears 2 times"):
            load_csv(p, two_specs())

    @pytest.mark.parametrize("cell", ["1.9", "-1", "x", "", "1e30"])
    def test_label_that_is_not_a_count_names_file_and_row(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"a,b,y\n1,2,0\n3,4,{cell}\n")
        with pytest.raises(NonNumericCell, match=f"^{p}: data row 1: column 'y' is not a non-negative integer"):
            load_csv(p, two_specs(), label_column="y")

    def test_load_holds_little_more_than_x(self, tmp_path):
        # a row of text costs ~74 bytes a cell; the load keeps only the float buffer X is made from
        specs = synthetic_feature_specs(33)
        rows = np.random.default_rng(0).standard_normal((20_000, 33)).round(6)
        p = tmp_path / "big.csv"
        p.write_text(",".join(s.name for s in specs) + "\n" + "\n".join(",".join(map(repr, r)) for r in rows.tolist()))
        tracemalloc.start()
        try:
            ds = load_csv(p, specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.X, rows)
        assert peak < 3 * ds.X.nbytes, f"peak {peak} bytes, {peak / ds.X.nbytes:.1f} x X's {ds.X.nbytes}"

    def test_preprocess_holds_little_more_than_x(self):
        # the kept rows are copied once and every step runs in that copy; a step that copied them
        # again, or a z-score with a temporary the size of X, would take the peak past 1.5 x X
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20_000, 33))
        X[rng.random(X.shape) < 0.01] = np.nan
        X[rng.random(X.shape) < 0.005] = 1e7  # outside synthetic_feature_specs' bounds
        ds = Dataset(X, synthetic_feature_specs(33), labels=rng.integers(0, 2, 20_000))
        tracemalloc.start()
        try:
            out, _ = preprocess(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.n_samples > 0.9 * ds.n_samples
        assert peak < 1.5 * X.nbytes, f"peak {peak} bytes, {peak / X.nbytes:.2f} x X's {X.nbytes}"

    @pytest.mark.parametrize("bad_line, error", [
        (b"1,\xff\n", "not a readable CSV: 'utf-8' codec can't decode"),
        (b"1," + b"2" * (csv.field_size_limit() + 1) + b"\n", "not a readable CSV: field larger than field limit"),
    ], ids=["undecodable", "over_field_limit"])
    def test_unreadable_line_after_many_rows_names_the_file(self, tmp_path, bad_line, error):
        # past the first buffered read, so the error comes from inside the row loop
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,b\n" + b"1.5,2.5\n" * 10_000 + bad_line + b"3,4\n")
        assert p.stat().st_size > 64 * 1024 + len(bad_line)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: {re.escape(error)}"):
            load_csv(p, two_specs())

    def test_first_problem_in_file_order_is_reported(self, tmp_path):
        # a bad cell before an undecodable line is the error, and the reverse
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,b\n" + b"1.5,2.5\n" * 10_000 + b"1,x\n" + b"1.5,2.5\n" * 10_000 + b"1,\xff\n")
        with pytest.raises(NonNumericCell, match=f"^{re.escape(str(p))}: data row 10000: column 'b'"):
            load_csv(p, two_specs())
        p.write_bytes(b"a,b\n" + b"1.5,2.5\n" * 10_000 + b"1,\xff\n" + b"1,x\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: not a readable CSV"):
            load_csv(p, two_specs())

    @given(st.lists(st.tuples(
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                           st.sampled_from(["", "NA", " NA ", " 1.25 ", "-0.0", "1e-300"])),
                 min_size=3, max_size=3),
        st.integers(0, 2**53),
    ), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_values_equal_a_plain_csv_parse(self, tmp_path, rows):
        specs = synthetic_feature_specs(3)
        p = tmp_path / "t.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y"] + [s.name for s in reversed(specs)])
            writer.writerows([label, *reversed(cells)] for cells, label in rows)
        with open(p, newline="") as fh:
            parsed = list(csv.reader(fh))[1:]
        X = [[np.nan if c.strip() in ("", "NA") else float(c) for c in reversed(r[1:])] for r in parsed]
        ds = load_csv(p, specs, label_column="y")
        assert np.array_equal(ds.X, X, equal_nan=True)
        assert np.array_equal(np.signbit(ds.X), np.signbit(X))
        assert np.array_equal(ds.missing, np.isnan(X))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [int(r[0]) for r in parsed]


# -------------------------------------------------------------- label files

class TestLabelFiles:
    def test_write_labels_writes_one_row_per_sample_in_order(self, tmp_path):
        write_labels(tmp_path / "l.csv", np.array([1, 0, 2, 2]))
        assert (tmp_path / "l.csv").read_text() == "sample_index,label\n0,1\n1,0\n2,2\n3,2\n"


# ----------------------------------------------------------------- Dataset

class TestDataset:
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_value_rejected(self, value):
        with pytest.raises(ConfigError):
            Dataset(np.array([[1.0, value]]), two_specs())

    def test_no_feature_column_rejected(self):
        with pytest.raises(ConfigError, match="at least one feature column"):
            Dataset(np.zeros((3, 0)), [])


# ------------------------------------------------------------ apply_bounds

class TestApplyBounds:
    def test_age_115_masked(self):
        specs = load_feature_schema()
        age = [s.name for s in specs].index("Age")
        X = np.tile(np.array([[50.0] * len(specs)]), (2, 1))
        # put every feature at an in-bounds value first
        for j, s in enumerate(specs):
            X[:, j] = (s.bound_lo + s.bound_hi) / 2
        X[0, age] = 115.0
        ds = Dataset(X, specs)
        out = apply_bounds(ds)
        assert out.missing[0, age] and np.isnan(out.X[0, age])
        assert out.missing.sum() == 1

    def test_identity_when_in_bounds(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]])
        out = apply_bounds(ds)
        assert np.array_equal(out.X, ds.X) and not out.missing.any()

    def test_bounds_inclusive(self):
        specs = two_specs()
        ds = Dataset(np.array([[10.0, 0.0]]), specs)
        out = apply_bounds(ds)
        assert not out.missing.any()  # exactly at hi / lo is retained

    def test_input_unmodified(self):
        specs = two_specs()
        X = np.array([[11.0, 5.0]])
        ds = Dataset(X, specs)
        out = apply_bounds(ds)
        assert ds.X[0, 0] == 11.0 and not ds.missing.any()
        assert out.missing[0, 0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        specs = [FeatureSpec("a", "", -1.0, 1.0), FeatureSpec("b", "", -2.0, 2.0)]
        X = rng.normal(scale=2.0, size=(8, 2))
        ds = Dataset(X, specs)
        once = apply_bounds(ds)
        twice = apply_bounds(once)
        assert np.array_equal(once.missing, twice.missing)
        assert np.array_equal(once.X, twice.X, equal_nan=True)


# ----------------------------------------------------- filter_missing_rate

class TestFilterMissingRate:
    def test_five_percent_rule_on_34_features(self):
        n_feat = 34
        X = np.ones((3, n_feat))
        missing = np.zeros_like(X, dtype=bool)
        missing[1, 0] = missing[1, 1] = True  # 2/34 = 5.88% > 5%
        missing[2, 0] = True                  # 1/34 = 2.94% <= 5%
        X[missing] = np.nan
        ds = Dataset(X, synthetic_feature_specs(n_feat), labels=np.array([0, 1, 1]))
        out = filter_missing_rate(ds, 0.05)
        assert out.n_samples == 2
        assert np.array_equal(out.labels, [0, 1])
        assert out.missing.sum() == 1

    def test_all_removed(self):
        X = np.array([[np.nan, 1.0], [2.0, np.nan]])
        ds = make_dataset(X)
        with pytest.raises(AllSamplesRemoved):
            filter_missing_rate(ds, 0.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_subset_and_missing_counts(self, seed, rate):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 6))
        mask = rng.random((10, 6)) < 0.3
        X[mask] = np.nan
        ds = make_dataset(X, mask)
        try:
            out = filter_missing_rate(ds, rate)
        except AllSamplesRemoved:
            assert ((mask.sum(axis=1) / 6) > rate).all()
            return
        assert out.n_samples <= ds.n_samples
        assert (out.missing.sum(axis=1) / 6 <= rate).all()


# ----------------------------------------------------------- impute_median

class TestImputeMedian:
    def test_hand_median(self):
        ds = make_dataset(np.array([[1.0], [2.0], [np.nan], [4.0]]))
        out = impute_median(ds)
        assert out.X[2, 0] == 2.0  # median of {1, 2, 4}
        assert not out.missing.any()

    def test_identity_without_missing(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]])
        out = impute_median(ds)
        assert np.array_equal(out.X, ds.X)

    def test_all_missing_feature(self):
        ds = make_dataset(np.array([[np.nan, 1.0], [np.nan, 2.0]]))
        with pytest.raises(AllMissingFeature) as exc:
            impute_median(ds)
        assert exc.value.name == "f00"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_observed_medians_preserved(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(9, 4))
        mask = rng.random((9, 4)) < 0.25
        mask[0] = False  # keep every feature observed at least once
        X[mask] = np.nan
        ds = make_dataset(X, mask)
        out = impute_median(ds)
        for j in range(4):
            observed = ds.X[~mask[:, j], j]
            assert np.isclose(np.median(observed), np.median(out.X[~mask[:, j], j]))


# ------------------------------------------------------------- standardize

class TestStandardize:
    def test_two_point_column(self):
        ds = make_dataset(np.array([[0.0], [2.0]]))
        out, params = standardize(ds)
        assert np.allclose(out.X, [[-1.0], [1.0]])
        assert params.mean[0] == 1.0 and params.std[0] == 1.0

    def test_already_standardized_fixed_point(self):
        ds = make_dataset(np.array([[-1.0], [1.0]]))
        out, _ = standardize(ds)
        assert np.allclose(out.X, ds.X, atol=1e-12)

    def test_constant_column(self):
        ds = make_dataset(np.array([[5.0], [5.0], [5.0]]))
        out, params = standardize(ds)
        assert np.array_equal(out.X, np.zeros((3, 1)))
        assert params.std[0] == 1.0

    @pytest.mark.parametrize("value, n", [(0.1, 3), (0.7, 1896), (123.456, 1000)])
    def test_constant_column_whose_mean_does_not_round_to_its_value(self, value, n):
        # the mean of n copies of these values is off by an ulp, so their std is ~1e-14, not 0
        X = np.column_stack([np.full(n, value), np.arange(n, dtype=float)])
        out, params = standardize(make_dataset(X))
        assert np.array_equal(out.X[:, 0], np.zeros(n))
        assert params.mean[0] == value and params.std[0] == 1.0
        assert np.array_equal(params.apply(np.full((2, 2), value))[:, 0], [0.0, 0.0])

    def test_requires_imputed(self):
        ds = make_dataset(np.array([[np.nan], [1.0]]))
        with pytest.raises(ConfigError):
            standardize(ds)

    @pytest.mark.parametrize("shape, order", [((5000, 33), "C"), ((5000, 33), "F"), ((70_001, 1), "C"),
                                              ((3, 40_000), "C")], ids=["blocks", "fortran", "column", "wide"])
    def test_bytes_of_numpy_mean_and_std(self, shape, order):
        # the squares are summed in blocks of rows, which must add up in numpy's own order
        rng = np.random.default_rng(1)
        X = np.asarray(rng.standard_normal(shape) * rng.uniform(0.1, 1e4, shape[1]) + 1e3, order=order)
        out, params = standardize(make_dataset(X))
        mean, std = X.mean(axis=0), X.std(axis=0)
        assert params.mean.tobytes() == mean.tobytes() and params.std.tobytes() == std.tobytes()
        assert np.array_equal(out.X, (X - mean) / std)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_moments(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(loc=rng.normal(scale=50), scale=rng.uniform(0.1, 30), size=(20, 3))
        out, _ = standardize(make_dataset(X))
        assert np.abs(out.X.mean(axis=0)).max() < 1e-10
        assert np.abs(out.X.std(axis=0) - 1).max() < 1e-10


# ------------------------------------------------------------- preprocess

CELLS = st.one_of(st.floats(-12.0, 12.0), st.sampled_from([np.nan, -10.0, 10.0, 0.1, 0.7, 123.456]))


class TestPreprocess:
    @given(st.data(), st.integers(1, 12), st.integers(1, 5), st.booleans(),
           st.one_of(st.sampled_from([0.0, 0.05, 0.25, 1.0]), st.floats(0.0, 1.0)))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_four_steps_in_turn(self, data, n, d, with_labels, rate):
        X = np.array(data.draw(st.lists(st.lists(CELLS, min_size=d, max_size=d), min_size=n, max_size=n)))
        labels = np.arange(n) % 3 if with_labels else None
        ds = Dataset(X.copy(), [FeatureSpec(f"f{j}", "", -10.0, 10.0) for j in range(d)], labels=labels)

        def outcome(run):
            try:
                out, params = run()
            except (AllSamplesRemoved, AllMissingFeature) as exc:
                return type(exc), str(exc)
            return (out.X.tobytes(), None if out.labels is None else out.labels.tobytes(),
                    params.mean.tobytes(), params.std.tobytes())

        assert outcome(lambda: preprocess(ds, rate)) == outcome(
            lambda: standardize(impute_median(filter_missing_rate(apply_bounds(ds), rate))))
        assert np.array_equal(ds.X, X, equal_nan=True)


# -------------------------------------------------- stratified_subsample

class TestStratifiedSubsample:
    def _cohort(self, n0=6000, n1=4000, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n0 + n1, 3))
        labels = np.concatenate([np.zeros(n0, int), np.ones(n1, int)])
        return make_dataset(X, labels=labels)

    def test_cohort_counts_at_exact_ratio(self):
        # 7,333 at the exact minority:majority ratio 2534:4799
        ds = self._cohort()
        out = stratified_subsample(ds, 7333, 2534 / 4799, seed=1)
        assert int(out.labels.sum()) == 2534
        assert out.n_samples == 7333

    def test_rounded_ratio_formula(self):
        # the same draw at the rounded ratio 1:1.9 gives round(7333/2.9)
        assert minority_count(7333, 1 / 1.9) == 2529

    def test_full_size_is_permutation(self):
        ds = self._cohort(n0=19, n1=10, seed=3)
        out = stratified_subsample(ds, 29, 10 / 19, seed=5)
        assert np.array_equal(np.sort(out.X[:, 0]), np.sort(ds.X[:, 0]))

    def test_insufficient(self):
        ds = self._cohort(n0=100, n1=50, seed=2)
        with pytest.raises(InsufficientClassSamples) as exc:
            stratified_subsample(ds, 200, 1.0, seed=0)
        assert exc.value.cls == 1 and exc.value.needed == 100 and exc.value.available == 50

    def test_deterministic(self):
        ds = self._cohort(n0=50, n1=30, seed=4)
        a = stratified_subsample(ds, 40, 0.5, seed=9)
        b = stratified_subsample(ds, 40, 0.5, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.labels, b.labels)


# ------------------------------------------------------ generate_synthetic

class TestGenerateSynthetic:
    def test_negative_seed_rejected_naming_the_seed(self):
        # a spec may hold one, since a benchmark config only derives its cohorts' seeds from it
        spec = SyntheticSpec(50, 4, 1.0, 2.0, seed=-1)
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            generate_synthetic(spec)

    def test_bitwise_determinism(self):
        spec = SyntheticSpec(100, 5, 0.5, 3.0, "correlated", 0.05, seed=42)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.X, b.X, equal_nan=True)
        assert np.array_equal(a.missing, b.missing)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_separation_unclusterable(self):
        spec = SyntheticSpec(600, 6, 1.0, 0.0, "spherical", 0.0, seed=1)
        ds = generate_synthetic(spec)
        km = kmeans_fit(ds.X, 2, seed=0)
        assert abs(ari(ds.labels, kmeans_predict(km, ds.X))) < 0.05

    def test_high_separation_recoverable(self):
        spec = SyntheticSpec(1000, 8, 1 / 1.9, 10.0, "spherical", 0.0, seed=2)
        ds = generate_synthetic(spec)
        km = kmeans_fit(ds.X, 2, seed=0)
        assert acc(ds.labels, kmeans_predict(km, ds.X)) >= 0.99

    def test_class_counts_and_missing_rate(self):
        spec = SyntheticSpec(2000, 10, 1 / 1.9, 2.0, "diagonal", 0.02, seed=3)
        ds = generate_synthetic(spec)
        assert int(ds.labels.sum()) == minority_count(2000, 1 / 1.9) == 690
        rate = ds.missing.mean()
        assert 0.01 < rate < 0.03

    @pytest.mark.parametrize("shape", ["spherical", "diagonal", "correlated"])
    def test_shapes_produce_finite_data(self, shape):
        ds = generate_synthetic(SyntheticSpec(50, 4, 0.8, 1.0, shape, 0.0, seed=7))
        assert np.isfinite(ds.X).all()

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(10, 1, 0.5, 1.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(10, 3, 0.0, 1.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(10, 3, 0.5, -1.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(10, 3, 0.5, 1.0, "banana")


# ----------------------------------------------------------------- schema

class TestFeatureSchema:
    def test_shipped_schema(self):
        specs = load_feature_schema()
        assert len(specs) == 33
        names = [s.name for s in specs]
        assert len(set(names)) == 33
        assert all(s.bound_lo < s.bound_hi for s in specs)
        age = specs[names.index("Age")]
        assert (age.bound_lo, age.bound_hi) == (18, 110)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSpec("x", "", 5.0, 5.0)

    def test_unit_may_be_left_out(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('[{"name": "a", "bound_lo": 0, "bound_hi": 1}]')
        assert load_feature_schema(p) == [FeatureSpec("a", "", 0.0, 1.0)]

    @pytest.mark.parametrize("text, error", [
        ("[]", ": expected a non-empty JSON list"),
        ('{"name": "a"}', ": expected a non-empty JSON list"),
        ('[{"name": "a", "bound_lo": 0, "bound_hi": 1, "colour": "red"}]', "[0].colour: unknown field"),
        ('[{"name": "a", "bound_lo": 0}]', "[0].bound_hi: required"),
        ('[{"name": "a", "bound_lo": 0, "bound_hi": 1}, {"name": "b", "bound_lo": 1, "bound_hi": 1}]',
         "[1]: feature 'b': bound_lo must be < bound_hi"),
        ('[{"name": "a", "bound_lo": 0, "bound_hi": 1}, {"name": "a", "bound_lo": 0, "bound_hi": 1}]',
         ": feature schema contains duplicate names"),
    ])
    def test_malformed_schema_names_the_file_and_entry(self, tmp_path, text, error):
        p = tmp_path / "s.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p) + error)}"):
            load_feature_schema(p)
