import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrcluster.data import SyntheticSpec, generate_synthetic
from ehrcluster.errors import DegenerateInput, DimensionMismatch
from ehrcluster.metrics import acc, ari
from ehrcluster.traditional import (
    GmmModel,
    KMeansModel,
    gmm_fit,
    gmm_predict,
    kmeans_fit,
    kmeans_predict,
)


def blob_pair(n=600, d=5, separation=8.0, seed=0, ratio=1.0):
    ds = generate_synthetic(
        SyntheticSpec(n, d, ratio, separation, "spherical", 0.0, seed=seed)
    )
    return ds.X, ds.labels


class TestKMeansFit:
    def test_exact_point_clusters(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
        km = kmeans_fit(X, 2, seed=0)
        assert km.inertia == 0.0
        got = {tuple(c) for c in km.centroids}
        assert got == {(0.0, 0.0), (10.0, 10.0)}

    def test_k_equals_n(self):
        X = np.array([[0.0], [1.0], [2.0], [5.0]])
        km = kmeans_fit(X, 4, seed=1)
        assert km.inertia == 0.0

    def test_blobs_recovered(self):
        X, y = blob_pair(separation=10.0, ratio=1 / 1.9)
        km = kmeans_fit(X, 2, seed=3)
        assert acc(y, kmeans_predict(km, X)) >= 0.99

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            kmeans_fit(np.ones((1, 2)), 2, seed=0)
        with pytest.raises(DegenerateInput):
            kmeans_fit(np.ones((5, 2)), 1, seed=0)
        with pytest.raises(DegenerateInput):
            kmeans_fit(np.array([[np.nan, 1.0], [0.0, 1.0]]), 2, seed=0)
        # finite, but its squared distances overflow to inf
        with pytest.raises(DegenerateInput, match="overflow"):
            kmeans_fit(np.array([[1e200, 1.0], [-1e200, 2.0], [3.0, 4.0]]), 2, seed=0)

    def test_zero_restarts_rejected(self):
        X, _ = blob_pair(n=40)
        with pytest.raises(DegenerateInput, match="n_init"):
            kmeans_fit(X, 2, seed=0, n_init=0)

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            X = rng.normal(size=(rng.integers(30, 80), rng.integers(2, 5)))
            km = kmeans_fit(X, int(rng.integers(2, 5)), seed=trial)
            assert np.all(np.diff(km.inertia_history) <= 1e-9)

    def test_deterministic(self):
        X, _ = blob_pair(n=120, separation=1.0, seed=7)
        a = kmeans_fit(X, 3, seed=11)
        b = kmeans_fit(X, 3, seed=11)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_row_permutation_invariance_up_to_relabeling(self):
        # with restarts on well-separated data, the recovered partition
        # does not depend on row order
        X, _ = blob_pair(n=200, separation=8.0, seed=9)
        perm = np.random.default_rng(0).permutation(len(X))
        a = kmeans_predict(kmeans_fit(X, 2, seed=4), X)
        b = kmeans_predict(kmeans_fit(X[perm], 2, seed=4), X[perm])
        assert ari(a[perm], b) == 1.0


class TestKMeansPredict:
    def test_point_at_centroid(self):
        km = KMeansModel(np.array([[0.0, 0.0], [5.0, 5.0]]), 0.0, 1, [0.0])
        assert kmeans_predict(km, np.array([[5.0, 5.0]]))[0] == 1

    def test_tie_breaks_low_index(self):
        km = KMeansModel(np.array([[0.0], [2.0]]), 0.0, 1, [0.0])
        assert kmeans_predict(km, np.array([[1.0]]))[0] == 0

    def test_fit_predict_consistency(self):
        X, _ = blob_pair(n=150, separation=2.0, seed=2)
        km = kmeans_fit(X, 3, seed=0)
        once = kmeans_predict(km, X)
        twice = kmeans_predict(km, X)
        assert np.array_equal(once, twice)

    def test_dimension_mismatch(self):
        km = KMeansModel(np.zeros((2, 3)), 0.0, 1, [0.0])
        with pytest.raises(DimensionMismatch):
            kmeans_predict(km, np.zeros((4, 2)))


class TestGmmFit:
    def test_recovers_blob_means(self):
        X, y = blob_pair(n=1000, d=4, separation=8.0, seed=1)
        gm = gmm_fit(X, 2, seed=0)
        true0 = X[y == 0].mean(axis=0)
        true1 = X[y == 1].mean(axis=0)
        err = min(
            max(np.linalg.norm(gm.means[0] - true0), np.linalg.norm(gm.means[1] - true1)),
            max(np.linalg.norm(gm.means[0] - true1), np.linalg.norm(gm.means[1] - true0)),
        )
        assert err < 0.1  # within 0.1 within-class stds

    def test_k_one_rejected(self):
        with pytest.raises(DegenerateInput):
            gmm_fit(np.random.default_rng(0).normal(size=(20, 2)), 1)

    def test_reg_covar_required(self):
        with pytest.raises(DegenerateInput):
            gmm_fit(np.random.default_rng(0).normal(size=(20, 2)), 2, reg_covar=0.0)

    @pytest.mark.parametrize("cov_type", ["full", "diagonal"])
    def test_log_likelihood_non_decreasing(self, cov_type):
        rng = np.random.default_rng(3)
        for trial in range(10):
            X = rng.normal(size=(rng.integers(40, 100), rng.integers(2, 4)))
            gm = gmm_fit(X, int(rng.integers(2, 4)), cov_type=cov_type, seed=trial)
            assert np.all(np.diff(gm.log_likelihood_history) >= -1e-9)

    def test_weights_sum_to_one(self):
        X, _ = blob_pair(n=100, separation=1.0, seed=4)
        gm = gmm_fit(X, 3, seed=0)
        assert abs(gm.weights.sum() - 1.0) < 1e-9
        assert (gm.weights > 0).all()

    def test_deterministic(self):
        X, _ = blob_pair(n=100, separation=1.5, seed=8)
        a = gmm_fit(X, 2, seed=5)
        b = gmm_fit(X, 2, seed=5)
        assert np.array_equal(a.means, b.means)
        assert a.log_likelihood_history == b.log_likelihood_history


class TestGmmPredict:
    def _separated_model(self):
        X, _ = blob_pair(n=800, d=3, separation=10.0, seed=6)
        return gmm_fit(X, 2, seed=0)

    def test_high_confidence_at_mean(self):
        gm = self._separated_model()
        labels, resp = gmm_predict(gm, gm.means[0][None, :])
        assert labels[0] == 0
        assert resp[0, 0] > 0.99

    def test_symmetric_midpoint(self):
        cov = np.array([np.eye(2), np.eye(2)])
        gm = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0, 0.0], [1.0, 0.0]]),
            covariances=cov,
            cov_type="full",
            log_likelihood_history=[],
        )
        labels, resp = gmm_predict(gm, np.array([[0.0, 0.0]]))
        assert resp[0, 0] == resp[0, 1]  # exact symmetry
        assert resp[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert labels[0] == 0  # tie resolves to the lowest index

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_responsibility_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        gm = gmm_fit(X, 2, seed=0)
        _, resp = gmm_predict(gm, rng.normal(size=(10, 3)))
        assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-9
        assert ((resp >= 0) & (resp <= 1)).all()

    def test_dimension_mismatch(self):
        gm = self._separated_model()
        with pytest.raises(DimensionMismatch):
            gmm_predict(gm, np.zeros((2, 7)))
