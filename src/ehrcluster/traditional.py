"""K-means (k-means++ / Lloyd) and Gaussian mixture EM, on raw features or embeddings.

Both fitters are deterministic for a fixed (X, k, seed, config); k-means
restarts draw each restart's generator only from (seed, restart_index).
EM tracks the per-sample mean log-likelihood after every E-step, which is
non-decreasing up to the tiny covariance regularization.

The kernels work on whole columns, off numpy's per-row paths, and every
reduction keeps numpy's own summation order, so a faster form must
reproduce the one it replaces byte for byte: each distance is the per-row
einsum of a (n, k, d) difference block, each centre sum adds its members in
row order as their mean did, and each fold over k columns runs left to
right as ``argmin`` and ``logaddexp.reduce`` do. Lloyd's assignment step
recomputes only the rows whose label Hamerly's bounds cannot prove (Hamerly
2010; Elkan 2003), with that same expression, so it returns Lloyd's bytes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, SingularCovariance
from .util import rng_from


def squared_distances(X: np.ndarray, C: np.ndarray, *, out=None, work=None) -> np.ndarray:
    """Pairwise squared Euclidean distances (n x k), computed from direct
    differences so exact ties stay exact. Column j squares and sums X - C[j],
    held in ``work`` (n x d), along each row; ``out`` (n x k) takes the result.
    """
    d2 = np.empty((X.shape[0], C.shape[0]), np.result_type(X, C)) if out is None else out
    diff = np.empty(X.shape, d2.dtype) if work is None else work
    for j in range(C.shape[0]):
        np.subtract(X, C[j], out=diff)
        np.einsum("nd,nd->n", diff, diff, out=d2[:, j])
    return d2


# --------------------------------------------------------------------------
# k-means
# --------------------------------------------------------------------------

@dataclass
class KMeansModel:
    centroids: np.ndarray
    inertia: float
    n_iter: int


def _nearest(d2: np.ndarray, labels: np.ndarray, dmin: np.ndarray) -> np.ndarray:
    """Each row's nearest column into ``labels`` and its distance into ``dmin``: a left
    fold with strict <, so ties go to the lowest index, as ``argmin`` (without NaN)."""
    labels.fill(0)
    np.copyto(dmin, d2[:, 0])
    for j in range(1, d2.shape[1]):
        np.copyto(labels, j, where=d2[:, j] < dmin)
        np.minimum(dmin, d2[:, j], out=dmin)
    return labels


def _kmeans_pp_init(X, k, rng, closest, col, work) -> np.ndarray:
    """k-means++ seeding; ``closest`` and ``col`` (n,) and ``work`` (n x d) are scratch."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    squared_distances(X, centers[:1], out=closest[:, None], work=work)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            probs = closest / total
            idx = rng.choice(n, p=probs)
        else:  # all remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[j] = X[idx]
        squared_distances(X, centers[j : j + 1], out=col[:, None], work=work)
        np.minimum(closest, col, out=closest)
    return centers


def _fix_empty_clusters(X, centers, d2, labels, dmin, work) -> np.ndarray:
    """Re-seed each empty cluster at the point farthest from its own centroid,
    updating ``centers``, ``d2``, ``labels`` and ``dmin`` in place; returns the cluster sizes."""
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    for _ in range(k):
        if counts.all():
            break
        centers[np.flatnonzero(counts == 0)[0]] = X[dmin.argmax()]
        squared_distances(X, centers, out=d2, work=work)
        _nearest(d2, labels, dmin)
        counts = np.bincount(labels, minlength=k)
    return counts


def _bounds(d2, labels, dmin, upper, lower) -> None:
    """Exact bounds: a row's distance to its own centre into ``upper``, to the next into ``lower``."""
    np.sqrt(dmin, out=upper)
    lower.fill(np.inf)
    for j in range(d2.shape[1]):
        np.minimum(lower, d2[:, j], out=lower, where=labels != j)
    np.sqrt(lower, out=lower)


def _reassign(X, centers, rows, d2, labels, upper, lower, work, near, dist, other) -> None:
    """Exact distances, labels and bounds for ``rows`` alone: they are gathered into the leading
    rows of ``work`` and differenced in the ones after, so ``work`` holds at least twice as many;
    ``near``, ``dist`` and ``other`` are (n,) scratch."""
    m = rows.size
    gathered = np.take(X, rows, axis=0, out=work[:m], mode="clip")
    block = squared_distances(gathered, centers, out=d2[:m], work=work[m : 2 * m])
    near, dist, other = near[:m], dist[:m], other[:m]
    _nearest(block, near, dist)
    _bounds(block, near, dist, dist, other)
    labels[rows], upper[rows], lower[rows] = near, dist, other


def _check_iterations(max_iter: int, tol: float) -> None:
    if max_iter < 1:
        raise DegenerateInput(f"max_iter must be >= 1, got {max_iter}")
    if not (np.isfinite(tol) and tol >= 0):
        raise DegenerateInput(f"tol must be finite and >= 0, got {tol}")


def check_kmeans_params(n_init: int, max_iter: int, tol: float) -> None:
    """DegenerateInput if ``kmeans_fit`` would refuse these settings."""
    if n_init < 1:
        raise DegenerateInput(f"n_init must be >= 1, got {n_init}")
    _check_iterations(max_iter, tol)


def kmeans_fit(
    X: np.ndarray,
    k: int,
    seed: int,
    n_init: int = 10,
    max_iter: int = 300,
    tol: float = 1e-4,
) -> KMeansModel:
    """Lloyd's algorithm with k-means++ seeding, best of ``n_init`` restarts.

    Converges when the largest centroid shift drops below ``tol``. After a
    restart's first full assignment pass each row keeps Hamerly's bounds: an
    upper bound on its distance to its own centre, raised by that centre's
    move, and a lower bound on its distance to the nearest other one, cut by
    the largest move among the other centres. A row is recomputed, over all k
    centres, only where ``upper * (1 + 1e-9) >= lower * (1 - 1e-9)``; every
    other row's own centre is nearer than any other by far more than a
    distance's rounding, so its label is the one Lloyd's full pass gives.
    When more than half the rows are in doubt, or a cluster empties (its
    re-seeding reads every row's exact distance), the pass covers every row.
    Labels, centroids, ``n_iter`` and ``inertia`` equal Lloyd's bit for bit.
    """
    X = np.ascontiguousarray(X, dtype=float)  # the centre sums run along rows
    if X.ndim != 2:
        raise DimensionMismatch("X must be 2-dimensional")
    if k < 2:
        raise DegenerateInput("k must be >= 2")
    check_kmeans_params(n_init, max_iter, tol)
    if X.shape[0] < k:
        raise DegenerateInput(f"need at least k={k} samples, got {X.shape[0]}")
    # n times the summed squared ranges bounds every sum of squared distances
    with np.errstate(over="ignore", invalid="ignore"):
        bound = X.shape[0] * np.square(np.ptp(X, axis=0)).sum()
    if not np.isfinite(bound):
        raise DegenerateInput("X must be finite, and its squared distances must not overflow")

    # one fit's scratch: distances, differences, labels, the recomputed rows' labels, each row's
    # distance to its centre, weights, and its bounds on that distance and on the next centre's
    n, d = X.shape
    d2, work = np.empty((n, k)), np.empty((n, d))
    labels, near, dmin, w = np.empty(n, np.intp), np.empty(n, np.intp), np.empty(n), np.empty(n)
    upper, lower = np.empty(n), np.empty(n)
    best: KMeansModel | None = None
    for restart in range(n_init):
        rng = rng_from(seed, restart)
        centers = _kmeans_pp_init(X, k, rng, dmin, w, work)
        moves = None
        n_iter = 0
        for _ in range(max_iter):
            counts = None
            if moves is not None:
                second, top = np.sort(moves)[-2:]
                # mode "clip" takes straight into out, where "raise" would buffer
                upper += np.take(moves, labels, out=w, mode="clip")
                lower -= np.take(np.where(moves < top, top, second), labels, out=w, mode="clip")
                # a relative margin far wider than a distance's rounding (a few ulps)
                np.multiply(upper, 1 + 1e-9, out=w)
                doubt = np.flatnonzero(np.multiply(lower, 1 - 1e-9, out=dmin) <= w)
                if 2 * doubt.size <= n:
                    _reassign(X, centers, doubt, d2, labels, upper, lower, work, near, dmin, w)
                    counts = np.bincount(labels, minlength=k)
            if counts is None or not counts.all():
                squared_distances(X, centers, out=d2, work=work)
                _nearest(d2, labels, dmin)
                counts = _fix_empty_clusters(X, centers, d2, labels, dmin, work)
                _bounds(d2, labels, dmin, upper, lower)
            new_centers = centers.copy()
            for j in np.flatnonzero(counts):
                if d == 1:  # one column's mean sums pairwise, not in row order
                    new_centers[j] = X[labels == j].mean(axis=0)
                else:  # the same sum as exact 0/1-weighted rows; only an all -0.0 sum's sign
                    # could differ, on a numpy whose reduction starts from the first row, not +0.0
                    np.equal(labels, j, out=w)
                    new_centers[j] = np.einsum("i,ij->j", w, X) / counts[j]
            moves = np.sqrt(((new_centers - centers) ** 2).sum(axis=1))
            centers = new_centers
            n_iter += 1
            if moves.max() < tol:
                break
        squared_distances(X, centers, out=d2, work=work)
        _nearest(d2, labels, dmin)
        model = KMeansModel(centers, float(dmin.sum()), n_iter)
        if best is None or model.inertia < best.inertia:
            best = model
    return best


def kmeans_predict(model: KMeansModel, X: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels; ties go to the lowest centroid index."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.centroids.shape[1]:
        raise DimensionMismatch(
            f"X has {X.shape[-1] if X.ndim else 0} columns, centroids have {model.centroids.shape[1]}"
        )
    if not np.isfinite(X).all():
        raise DegenerateInput("X must be finite")
    n = X.shape[0]
    return _nearest(squared_distances(X, model.centroids), np.empty(n, np.intp), np.empty(n))


# --------------------------------------------------------------------------
# Gaussian mixture
# --------------------------------------------------------------------------

# the covariance floor: gmm_fit's default, and the one deep clustering's mixtures use
REG_COVAR = 1e-6


@dataclass
class GmmModel:
    """A Gaussian mixture, factored once at construction, so evaluating it only
    multiplies. The arrays are held, not copied: a changed mixture is a new model."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray  # (k, d, d) full or (k, d) diagonal variances
    cov_type: str = "full"
    log_likelihood_history: list[float] = field(default_factory=list)
    n_iter: int = 0
    # set by the constructor: (k, d, d) inv(cholesky(sigma_j)) and sigma_j^-1 (None if
    # diagonal), and (k,) 0.5 log det sigma_j
    prec_chol: np.ndarray | None = field(default=None, init=False, repr=False)
    precisions: np.ndarray | None = field(default=None, init=False, repr=False)
    half_logdet: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.cov_type == "diagonal":
            self.half_logdet = 0.5 * np.log(self.covariances).sum(axis=1)
            return
        try:
            L = np.linalg.cholesky(self.covariances)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("a component covariance is not positive definite") from exc
        self.prec_chol = np.linalg.inv(L)
        self.precisions = self.prec_chol.transpose(0, 2, 1) @ self.prec_chol
        self.half_logdet = np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)


def _logaddexp_columns(a: np.ndarray) -> np.ndarray:
    """``np.logaddexp.reduce(a, axis=1)``, as the same left fold over whole columns."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.logaddexp(out, a[:, j], out=out)
    return out


def gaussian_log_responsibilities(X: np.ndarray, model: GmmModel) -> tuple[np.ndarray, np.ndarray]:
    """Posterior log-responsibilities via log-sum-exp.

    Returns (log_resp (n x k), log_prob (n,)) where log_prob is the
    per-sample mixture log-density.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.means.shape[1]:
        raise DimensionMismatch(
            f"X has {X.shape[-1] if X.ndim else 0} columns, model expects {model.means.shape[1]}"
        )
    n, d = X.shape
    k = model.means.shape[0]
    log_gauss = np.empty((n, k))
    const = -0.5 * d * np.log(2.0 * np.pi)
    for j in range(k):
        diff = X - model.means[j]
        if model.cov_type == "diagonal":
            maha = ((diff * diff) / model.covariances[j]).sum(axis=1)
        else:
            y = diff @ model.prec_chol[j].T  # L_j^-1 (x - mu_j), row by row
            maha = (y * y).sum(axis=1)
        log_gauss[:, j] = const - model.half_logdet[j] - 0.5 * maha
    weighted = log_gauss + np.log(model.weights)
    log_prob = _logaddexp_columns(weighted)
    return weighted - log_prob[:, None], log_prob


def _gmm_m_step(X, resp, cov_type, reg_covar):
    n, d = X.shape
    nk = resp.sum(axis=0) + 10 * np.finfo(float).eps
    weights = nk / nk.sum()
    means = (resp.T @ X) / nk[:, None]
    k = means.shape[0]
    if cov_type == "diagonal":
        covs = np.empty((k, d))
        for j in range(k):
            diff = X - means[j]
            covs[j] = (resp[:, j] @ (diff * diff)) / nk[j] + reg_covar
    else:
        covs = np.empty((k, d, d))
        for j in range(k):
            diff = X - means[j]
            covs[j] = (resp[:, j, None] * diff).T @ diff / nk[j] + reg_covar * np.eye(d)
    return weights, means, covs


def check_gmm_params(cov_type: str, reg_covar: float, max_iter: int, tol: float) -> None:
    """DegenerateInput if ``gmm_fit`` would refuse these settings."""
    if cov_type not in ("full", "diagonal"):
        raise DegenerateInput(f"unknown cov_type {cov_type!r}")
    if not (np.isfinite(reg_covar) and reg_covar > 0):
        raise DegenerateInput(f"reg_covar must be finite and > 0, got {reg_covar}")
    _check_iterations(max_iter, tol)


def gmm_fit(
    X: np.ndarray,
    k: int,
    cov_type: str = "full",
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-3,
    reg_covar: float = REG_COVAR,
) -> GmmModel:
    """EM for a k-component Gaussian mixture, initialized from k-means.

    The E-step works in log space with log-sum-exp; the M-step adds
    ``reg_covar`` to covariance diagonals. Stops once the gain in mean
    log-likelihood falls below ``tol``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("X must be 2-dimensional")
    if k < 2:
        raise DegenerateInput("k must be >= 2")
    if X.shape[0] <= k:
        raise DegenerateInput(f"need more than k={k} samples, got {X.shape[0]}")
    check_gmm_params(cov_type, reg_covar, max_iter, tol)

    km = kmeans_fit(X, k, seed=seed)
    resp = np.eye(k)[kmeans_predict(km, X)]  # one-hot k-means labels
    model = GmmModel(*_gmm_m_step(X, resp, cov_type, reg_covar), cov_type)

    history: list[float] = []
    n_iter = 0
    for _ in range(max_iter):
        log_resp, log_prob = gaussian_log_responsibilities(X, model)
        history.append(float(log_prob.mean()))
        if len(history) >= 2 and history[-1] - history[-2] < tol:
            break
        model = GmmModel(*_gmm_m_step(X, np.exp(log_resp), cov_type, reg_covar), cov_type)
        n_iter += 1
    model.log_likelihood_history, model.n_iter = history, n_iter
    return model


def gmm_predict(model: GmmModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels (argmax posterior, ties to lowest index) and responsibilities."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():  # here, not in the E-step, which fine-tuning runs every step
        raise DegenerateInput("X must be finite")
    log_resp, _ = gaussian_log_responsibilities(X, model)
    resp = np.exp(log_resp)
    return resp.argmax(axis=1), resp
