import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrcluster import traditional
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
from ehrcluster.util import rng_from


def blob_pair(n=600, d=5, separation=8.0, seed=0, ratio=1.0):
    ds = generate_synthetic(
        SyntheticSpec(n, d, ratio, separation, "spherical", 0.0, seed=seed)
    )
    return ds.X, ds.labels


def lloyd_inertias(X, k, seed):
    """One restart's fitted inertia at max_iter = 1 ... n_iter + 1: the inertia after each of
    Lloyd's steps, which must not increase."""
    n_iter = kmeans_fit(X, k, seed, n_init=1).n_iter
    return [kmeans_fit(X, k, seed, n_init=1, max_iter=m).inertia for m in range(1, n_iter + 2)]


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

    def test_inertia_non_increasing_in_max_iter(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            X = rng.normal(size=(rng.integers(30, 80), rng.integers(2, 5)))
            k = int(rng.integers(2, 5))
            assert np.all(np.diff(lloyd_inertias(X, k, trial)) <= 1e-9)

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
        km = KMeansModel(np.array([[0.0, 0.0], [5.0, 5.0]]), 0.0, 1)
        assert kmeans_predict(km, np.array([[5.0, 5.0]]))[0] == 1

    def test_tie_breaks_low_index(self):
        km = KMeansModel(np.array([[0.0], [2.0]]), 0.0, 1)
        assert kmeans_predict(km, np.array([[1.0]]))[0] == 0

    def test_fit_predict_consistency(self):
        X, _ = blob_pair(n=150, separation=2.0, seed=2)
        km = kmeans_fit(X, 3, seed=0)
        once = kmeans_predict(km, X)
        twice = kmeans_predict(km, X)
        assert np.array_equal(once, twice)

    def test_dimension_mismatch(self):
        km = KMeansModel(np.zeros((2, 3)), 0.0, 1)
        with pytest.raises(DimensionMismatch):
            kmeans_predict(km, np.zeros((4, 2)))

    def test_non_finite_rows_rejected(self):
        km = KMeansModel(np.array([[0.0, 0.0], [5.0, 5.0]]), 0.0, 1)
        Y = np.array([[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [5.0, 5.0]])
        with pytest.raises(DegenerateInput, match="X must be finite"):
            kmeans_predict(km, Y)


# A reference copy of the Lloyd step the column kernels replaced: a (n, k, d) difference block,
# argmin labels, fancy-indexed inertia and boolean-mask means. kmeans_fit must match it byte for
# byte. The forms could differ only in the sign of a centre coordinate whose sum is exactly zero:
# a numpy whose reduction starts from the first member rather than +0.0 keeps the -0.0 of a
# coordinate where every member is -0.0. The data below hold no -0.0, so the bytes must agree.

def ref_squared_distances(X, C):
    diff = X[:, None, :] - C[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def ref_kmeans_pp_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ref_squared_distances(X, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        idx = rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)
        centers[j] = X[idx]
        d2 = np.minimum(d2, ref_squared_distances(X, centers[j : j + 1]).ravel())
    return centers


def ref_fix_empty_clusters(X, centers, labels, d2):
    k = centers.shape[0]
    for _ in range(k):
        empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if empty.size == 0:
            break
        centers[empty[0]] = X[d2[np.arange(X.shape[0]), labels].argmax()]
        d2 = ref_squared_distances(X, centers)
        labels = d2.argmin(axis=1)
    return centers, labels, d2


def ref_kmeans_fit(X, k, seed, n_init, max_iter, tol, init=ref_kmeans_pp_init):
    """The best restart's model and its final assignment."""
    best = None
    for restart in range(n_init):
        centers = init(X, k, rng_from(seed, restart))
        n_iter = 0
        for _ in range(max_iter):
            d2 = ref_squared_distances(X, centers)
            centers, labels, d2 = ref_fix_empty_clusters(X, centers, d2.argmin(axis=1), d2)
            new_centers = centers.copy()
            for j in range(k):
                members = labels == j
                if members.any():
                    new_centers[j] = X[members].mean(axis=0)
            shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
            centers = new_centers
            n_iter += 1
            if shift < tol:
                break
        d2 = ref_squared_distances(X, centers)
        labels = d2.argmin(axis=1)
        model = KMeansModel(centers, float(d2[np.arange(X.shape[0]), labels].sum()), n_iter)
        if best is None or model.inertia < best[0].inertia:
            best = model, labels
    return best


def assert_matches_reference(got, want, X):
    model, labels = want
    assert got.centroids.tobytes() == model.centroids.tobytes()
    assert (got.inertia, got.n_iter) == (model.inertia, model.n_iter)
    assert np.array_equal(kmeans_predict(got, X), labels)


@st.composite
def lloyd_cases(draw):
    """(X, k, seed, n_init, max_iter): continuous rows, or rows on a coarse grid with duplicates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d, k = draw(st.integers(5, 80)), draw(st.integers(1, 8)), draw(st.sampled_from([2, 3, 5]))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    X[: n // 3] += draw(st.floats(0.0, 6.0))
    if draw(st.booleans()):
        X = np.floor(2.0 * X) / 2.0  # exact ties between rows and between centres
        X = X[rng.integers(0, n, size=n)]  # and duplicated rows
    X += 0.0  # no -0.0 anywhere (see above)
    n_init, max_iter = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 300]))
    return X, min(k, n), draw(st.integers(0, 2**31 - 1)), n_init, max_iter


class TestLloydMatchesReference:
    @given(lloyd_cases())
    @settings(max_examples=150, deadline=None)
    def test_fit_and_predict_bytes(self, case):
        X, k, seed, n_init, max_iter = case
        got = kmeans_fit(X, k, seed, n_init=n_init, max_iter=max_iter)
        assert_matches_reference(got, ref_kmeans_fit(X, k, seed, n_init, max_iter, 1e-4), X)
        grid = np.floor(2.0 * X) / 2.0 + 0.0  # other rows, with exact ties between centres
        for Y in (X, grid):
            want_labels = ref_squared_distances(Y, got.centroids).argmin(axis=1)
            got_labels = kmeans_predict(got, Y)
            assert got_labels.dtype == want_labels.dtype
            assert np.array_equal(got_labels, want_labels)

    def test_a_start_that_empties_a_cluster(self, monkeypatch):
        # two distinct rows and k = 3: k-means++ must repeat a centre, whose cluster stays empty
        X = np.array([[0.0, 1.0]] * 5 + [[4.0, -2.0]] * 3)
        emptied = []
        real = traditional._fix_empty_clusters

        def spy(X, centers, d2, labels, dmin, work):
            emptied.append(np.bincount(labels, minlength=len(centers)).min() == 0)
            return real(X, centers, d2, labels, dmin, work)

        monkeypatch.setattr(traditional, "_fix_empty_clusters", spy)
        for seed in range(5):
            assert_matches_reference(kmeans_fit(X, 3, seed), ref_kmeans_fit(X, 3, seed, 10, 300, 1e-4), X)
        assert any(emptied)

    def test_distances_match_the_difference_block(self):
        rng = np.random.default_rng(12)
        for n, d, k in [(1, 1, 1), (7, 2, 2), (256, 10, 2), (300, 33, 5), (64, 17, 3)]:
            X, C = rng.normal(size=(n, d)), rng.normal(size=(k, d))
            want = ref_squared_distances(X, C)
            assert traditional.squared_distances(X, C).tobytes() == want.tobytes()
            out, work = np.empty((n, k)), np.empty((n, d))
            assert traditional.squared_distances(X, C, out=out, work=work) is out
            assert out.tobytes() == want.tobytes()


def fixed_init(centers):
    """A stand-in for k-means++ (either fit's) that starts every restart from ``centers``."""
    return lambda X, k, rng, *scratch: np.array(centers, dtype=float)


# a (near-)converged centre moves far less than the gap between centres, so the bounds place most
# rows without their distances; these fits run long enough for that, on cohorts of the benchmark's
# sizes, where the reference test's few dozen rows are nearly all recomputed
class TestBoundedAssignment:
    @pytest.fixture(scope="class")
    def cohorts(self):
        big = generate_synthetic(SyntheticSpec(6000, 33, 0.3, 3.0, "correlated", 0.0, seed=7)).X
        small = generate_synthetic(SyntheticSpec(2000, 10, 0.5, 2.0, "spherical", 0.0, seed=3)).X
        return {"6000x33": big + 0.0, "2000x10": small + 0.0}

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("name,seeds", [("6000x33", (1, 2)), ("2000x10", (1, 2, 3))])
    def test_matches_the_reference(self, cohorts, name, seeds, k):
        X = cohorts[name]
        for seed in seeds:
            got = kmeans_fit(X, k, seed, n_init=2)
            assert_matches_reference(got, ref_kmeans_fit(X, k, seed, 2, 300, 1e-4), X)

    def test_evaluates_under_half_of_lloyds_rows(self, cohorts, monkeypatch):
        X = cohorts["6000x33"]
        evaluated = []
        real = traditional.squared_distances

        def spy(Y, C, **scratch):
            if len(C) > 1:  # an assignment pass; k-means++ measures one centre at a time
                evaluated.append(len(Y))
            return real(Y, C, **scratch)

        monkeypatch.setattr(traditional, "squared_distances", spy)
        lloyd = 0
        for seed in range(3):
            lloyd += len(X) * (kmeans_fit(X, 2, seed, n_init=1).n_iter + 1)  # a full pass per step
        assert sum(evaluated) < lloyd / 2

    def test_a_cluster_that_empties_after_the_first_step(self, monkeypatch):
        # the middle centre's two rows go to the outer centres once those move in, so the bounded
        # second step leaves it empty; the 40 rows on the far centre keep that step bounded
        X = np.array([[-1.6, 0.0]] * 10 + [[1.6, 0.0]] * 10 + [[-0.9, 0.0], [0.9, 0.0]]
                     + [[100.0, 0.0]] * 40)
        start = [[-3.0, 0.0], [3.0, 0.0], [0.0, 0.0], [100.0, 0.0]]
        steps = []
        reassign, fix = traditional._reassign, traditional._fix_empty_clusters

        def reassign_spy(*args):
            steps.append("bounded")
            return reassign(*args)

        def fix_spy(X, centers, d2, labels, dmin, work):
            steps.append("empty" if np.bincount(labels, minlength=len(centers)).min() == 0 else "full")
            return fix(X, centers, d2, labels, dmin, work)

        monkeypatch.setattr(traditional, "_reassign", reassign_spy)
        monkeypatch.setattr(traditional, "_fix_empty_clusters", fix_spy)
        monkeypatch.setattr(traditional, "_kmeans_pp_init", fixed_init(start))
        got = kmeans_fit(X, 4, 0, n_init=1)
        assert steps[:3] == ["full", "bounded", "empty"]
        assert_matches_reference(got, ref_kmeans_fit(X, 4, 0, 1, 300, 1e-4, init=fixed_init(start)), X)

    def test_a_row_on_the_bisector_goes_to_the_lower_index(self, monkeypatch):
        # the first step puts the row at 0 with the centre at 0.5 and then moves the centres to -1
        # and 1, so the bounded second step finds it exactly as far from both and must move it to
        # the first; the far rows keep that step bounded
        X = np.array([[-1.5, 0.0], [-0.5, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
                     + [[100.0, 0.0]] * 10)
        start = [[-1.0, 0.0], [0.5, 0.0], [100.0, 0.0]]
        tied = []
        reassign = traditional._reassign

        def spy(X, centers, rows, d2, labels, *bounds):
            reassign(X, centers, rows, d2, labels, *bounds)
            on_bisector = rows[d2[: rows.size, 0] == d2[: rows.size, 1]]
            tied.append((on_bisector.tolist(), labels[on_bisector].tolist()))

        monkeypatch.setattr(traditional, "_reassign", spy)
        monkeypatch.setattr(traditional, "_kmeans_pp_init", fixed_init(start))
        got = kmeans_fit(X, 3, 0, n_init=1)
        assert tied[0] == ([2], [0])
        assert_matches_reference(got, ref_kmeans_fit(X, 3, 0, 1, 300, 1e-4, init=fixed_init(start)), X)


class TestLogAddExpFold:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_the_reduction(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(500, k)) * np.array([1.0, 40.0, 800.0, 1e-3, 5.0])[:k]
        a[::7, 0] = -np.inf  # a component of weight zero
        a[::11] = -np.inf  # a row no component reaches
        a[3, :] = a[3, 0]  # exact ties
        want = np.logaddexp.reduce(a, axis=1)
        assert traditional._logaddexp_columns(a).tobytes() == want.tobytes()


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

    def test_non_finite_rows_rejected(self):
        gm = self._separated_model()
        Y = np.zeros((4, 3))
        Y[1, 0], Y[2, 2] = np.nan, np.inf
        with pytest.raises(DegenerateInput, match="X must be finite"):
            gmm_predict(gm, Y)
