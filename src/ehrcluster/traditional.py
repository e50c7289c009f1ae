"""K-means (k-means++ / Lloyd) and Gaussian mixture EM, on raw features or embeddings.

Both fitters are deterministic for a fixed (X, k, seed, config); k-means
restarts draw each restart's generator only from (seed, restart_index).
EM tracks the per-sample mean log-likelihood after every E-step, which is
non-decreasing up to the tiny covariance regularization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, SingularCovariance
from .util import rng_from


def squared_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances (n x k), computed from direct
    differences so exact ties stay exact."""
    diff = X[:, None, :] - C[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


# --------------------------------------------------------------------------
# k-means
# --------------------------------------------------------------------------

@dataclass
class KMeansModel:
    centroids: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: list[float]


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = squared_distances(X, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = rng.choice(n, p=probs)
        else:  # all remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[j] = X[idx]
        d2 = np.minimum(d2, squared_distances(X, centers[j : j + 1]).ravel())
    return centers


def _fix_empty_clusters(X, centers, labels, d2):
    """Re-seed each empty cluster at the point farthest from its own centroid."""
    k = centers.shape[0]
    for _ in range(k):
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        own = d2[np.arange(X.shape[0]), labels]
        centers[empty[0]] = X[own.argmax()]
        d2 = squared_distances(X, centers)
        labels = d2.argmin(axis=1)
    return centers, labels, d2


def kmeans_fit(
    X: np.ndarray,
    k: int,
    seed: int,
    n_init: int = 10,
    max_iter: int = 300,
    tol: float = 1e-4,
) -> KMeansModel:
    """Lloyd's algorithm with k-means++ seeding, best of ``n_init`` restarts.

    Converges when the largest centroid shift drops below ``tol``. The
    inertia history (one entry per assignment step, plus the final
    assignment) is non-increasing within a run.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("X must be 2-dimensional")
    if k < 2:
        raise DegenerateInput("k must be >= 2")
    if n_init < 1:
        raise DegenerateInput(f"n_init must be >= 1, got {n_init}")
    if X.shape[0] < k:
        raise DegenerateInput(f"need at least k={k} samples, got {X.shape[0]}")
    if not np.all(np.isfinite(X)):
        raise DegenerateInput("X must be finite")

    best: KMeansModel | None = None
    for restart in range(n_init):
        rng = rng_from(seed, restart)
        centers = _kmeans_pp_init(X, k, rng)
        history: list[float] = []
        n_iter = 0
        for _ in range(max_iter):
            d2 = squared_distances(X, centers)
            labels = d2.argmin(axis=1)
            centers, labels, d2 = _fix_empty_clusters(X, centers, labels, d2)
            history.append(float(d2[np.arange(X.shape[0]), labels].sum()))
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
        d2 = squared_distances(X, centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(X.shape[0]), labels].sum())
        history.append(inertia)
        model = KMeansModel(centers, inertia, n_iter, history)
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
    return squared_distances(X, model.centroids).argmin(axis=1)


# --------------------------------------------------------------------------
# Gaussian mixture
# --------------------------------------------------------------------------

@dataclass
class GmmModel:
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray  # (k, d, d) full or (k, d) diagonal variances
    cov_type: str
    reg_covar: float
    log_likelihood_history: list[float]
    n_iter: int = 0


def gaussian_log_responsibilities(
    X: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
    cov_type: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior log-responsibilities via log-sum-exp.

    Returns (log_resp (n x k), log_prob (n,)) where log_prob is the
    per-sample mixture log-density.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    k = means.shape[0]
    log_gauss = np.empty((n, k))
    const = -0.5 * d * np.log(2.0 * np.pi)
    for j in range(k):
        diff = X - means[j]
        if cov_type == "diagonal":
            var = covariances[j]
            maha = ((diff * diff) / var).sum(axis=1)
            half_logdet = 0.5 * np.log(var).sum()
        else:
            try:
                L = np.linalg.cholesky(covariances[j])
            except np.linalg.LinAlgError as exc:
                raise SingularCovariance(f"component {j} covariance not PD") from exc
            y = np.linalg.solve(L, diff.T)
            maha = (y * y).sum(axis=0)
            half_logdet = np.log(np.diag(L)).sum()
        log_gauss[:, j] = const - half_logdet - 0.5 * maha
    weighted = log_gauss + np.log(weights)
    log_prob = np.logaddexp.reduce(weighted, axis=1)
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


def gmm_fit(
    X: np.ndarray,
    k: int,
    cov_type: str = "full",
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-3,
    reg_covar: float = 1e-6,
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
    if cov_type not in ("full", "diagonal"):
        raise DegenerateInput(f"unknown cov_type {cov_type!r}")
    if reg_covar <= 0:
        raise DegenerateInput("reg_covar must be > 0")

    km = kmeans_fit(X, k, seed=seed)
    hard = kmeans_predict(km, X)
    resp = np.zeros((X.shape[0], k))
    resp[np.arange(X.shape[0]), hard] = 1.0
    weights, means, covs = _gmm_m_step(X, resp, cov_type, reg_covar)

    history: list[float] = []
    n_iter = 0
    for _ in range(max_iter):
        log_resp, log_prob = gaussian_log_responsibilities(X, weights, means, covs, cov_type)
        ll = float(log_prob.mean())
        history.append(ll)
        if len(history) >= 2 and history[-1] - history[-2] < tol:
            break
        weights, means, covs = _gmm_m_step(X, np.exp(log_resp), cov_type, reg_covar)
        n_iter += 1
    return GmmModel(weights, means, covs, cov_type, reg_covar, history, n_iter)


def gmm_predict(model: GmmModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels (argmax posterior, ties to lowest index) and responsibilities."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.means.shape[1]:
        raise DimensionMismatch(
            f"X has {X.shape[-1] if X.ndim else 0} columns, model expects {model.means.shape[1]}"
        )
    log_resp, _ = gaussian_log_responsibilities(
        X, model.weights, model.means, model.covariances, model.cov_type
    )
    resp = np.exp(log_resp)
    return resp.argmax(axis=1), resp
