"""Joint fine-tuning of a pretrained encoder with a clustering loss.

Two soft-assignment variants share one training loop:

* ``student_t``: s_ij propto (1 + ||z_i - mu_j||^2)^-1, centers updated by
  gradient alongside the network.
* ``gaussian``: s_ij is the posterior responsibility of a Gaussian mixture
  over the embedding; mixture parameters are refreshed by one EM step at
  each target refresh instead of by gradient (keeps covariances PD).

The target distribution T is the squared, frequency-normalized transform
of S, recomputed on the full dataset every ``target_update_interval``
epochs and held fixed between refreshes. The joint objective is

    recon_weight * mean_i ||x_i - xhat_i||^2 + gamma * KL(T || S) / M

with the KL term normalized per sample so gamma means the same thing at
any dataset size. gamma = 0 degenerates to the hybrid baseline: no
fine-tuning epochs run and the labels are exactly those of k-means / GMM
on the pretrained embedding.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autoencoder import (
    AutoencoderModel,
    TrainConfig,
    adam_step,
    backward,
    encode,
    forward,
    params_finite,
    reconstruction_loss,
    reset_adam,
)
from .data import Dataset
from .errors import DegenerateInput, DimensionMismatch, InvalidDimension, NonFiniteLoss
from .traditional import (
    _gmm_m_step,
    gaussian_log_responsibilities,
    gmm_fit,
    kmeans_fit,
    squared_distances,
)
from .util import derive_seed

VARIANTS = ("student_t", "gaussian")

_SHUFFLE_SALT = 0xF17E


@dataclass
class ClusterParams:
    """Cluster centers in embedding space; covariances and mixing weights
    are present only in the gaussian variant."""

    mu: np.ndarray
    sigma: np.ndarray | None = None  # (k, d, d)
    pi: np.ndarray | None = None     # (k,)

    @property
    def k(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class DeepClusterConfig:
    variant: str = "gaussian"
    gamma: float = 0.1
    embed_dim: int = 10
    finetune_epochs: int = 100
    target_update_interval: int = 10
    recon_weight: float = 1.0  # 0 trains the clustering loss alone (DEC-style)
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    reg_covar: float = 1e-6
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidDimension(f"variant must be one of {VARIANTS}")
        if self.gamma < 0:
            raise InvalidDimension("gamma must be >= 0")
        if self.recon_weight < 0:
            raise InvalidDimension("recon_weight must be >= 0")
        if self.target_update_interval < 1:
            raise InvalidDimension("target_update_interval must be >= 1")


@dataclass
class DeepClusterModel:
    network: AutoencoderModel
    params: ClusterParams
    variant: str
    n_clusters: int
    recon_history: list[float] = field(default_factory=list)
    kl_history: list[float] = field(default_factory=list)
    joint_history: list[float] = field(default_factory=list)
    collapse_events: list[tuple[int, int]] = field(default_factory=list)  # (epoch, cluster)


def init_clusters(Z: np.ndarray, k: int, variant: str, seed: int) -> ClusterParams:
    """Student-t: k-means centroids of Z. Gaussian: GMM fit on Z."""
    Z = np.asarray(Z, dtype=float)
    if variant == "student_t":
        km = kmeans_fit(Z, k, seed=seed)
        return ClusterParams(mu=km.centroids.copy())
    if variant == "gaussian":
        gm = gmm_fit(Z, k, cov_type="full", seed=seed)
        return ClusterParams(mu=gm.means.copy(), sigma=gm.covariances.copy(), pi=gm.weights.copy())
    raise InvalidDimension(f"unknown variant {variant!r}")


def soft_assign_student_t(Z: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Row-normalized t-kernel (one degree of freedom): (1 + ||z - mu||^2)^-1."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[1] != params.mu.shape[1]:
        raise DimensionMismatch(f"Z dim {Z.shape[1]} != centers dim {params.mu.shape[1]}")
    q = 1.0 / (1.0 + squared_distances(Z, params.mu))
    return q / q.sum(axis=1, keepdims=True)


def soft_assign_gaussian(Z: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Posterior responsibilities pi_j N(z; mu_j, sigma_j), log-sum-exp normalized."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if params.sigma is None or params.pi is None:
        raise DimensionMismatch("gaussian variant requires sigma and pi")
    if Z.shape[1] != params.mu.shape[1]:
        raise DimensionMismatch(f"Z dim {Z.shape[1]} != centers dim {params.mu.shape[1]}")
    log_resp, _ = gaussian_log_responsibilities(Z, params.pi, params.mu, params.sigma, "full")
    return np.exp(log_resp)


def soft_assign(Z: np.ndarray, params: ClusterParams, variant: str) -> np.ndarray:
    if variant == "student_t":
        return soft_assign_student_t(Z, params)
    return soft_assign_gaussian(Z, params)


def target_distribution(S: np.ndarray) -> np.ndarray:
    """T_ij = (S_ij^2 / f_j) normalized per row, f_j the soft cluster frequency."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    f = S.sum(axis=0)
    weighted = S * S / f
    return weighted / weighted.sum(axis=1, keepdims=True)


def kl_loss(T: np.ndarray, S: np.ndarray) -> float:
    """KL(T || S) summed over samples and clusters; 0 log(0/s) counts as 0."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if T.shape != S.shape:
        raise DimensionMismatch(f"shape {T.shape} vs {S.shape}")
    mask = T > 0
    return float((T[mask] * (np.log(T[mask]) - np.log(S[mask]))).sum())


def joint_loss(X, Xhat, T, S, gamma: float) -> float:
    """Reconstruction loss plus gamma times the per-sample mean KL term."""
    recon = reconstruction_loss(X, Xhat)
    m = np.atleast_2d(np.asarray(T)).shape[0]
    return recon + gamma * kl_loss(T, S) / m


def clustering_gradients(
    Z: np.ndarray, params: ClusterParams, T: np.ndarray, variant: str
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of KL(T || S)/M w.r.t. the embedding and the centers.

    T is treated as a constant, matching how training freezes it between
    refreshes.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    m = Z.shape[0]
    if variant == "student_t":
        q = 1.0 / (1.0 + squared_distances(Z, params.mu))
        S = q / q.sum(axis=1, keepdims=True)
        A = q * (T - S)
        dZ = (2.0 / m) * (A.sum(axis=1, keepdims=True) * Z - A @ params.mu)
        dMu = (-2.0 / m) * (A.T @ Z - A.sum(axis=0)[:, None] * params.mu)
        return dZ, dMu
    S = soft_assign_gaussian(Z, params)
    G = (S - T) / m  # dKL/d(log pi_j N_j) before normalization
    dZ = np.zeros_like(Z)
    dMu = np.zeros_like(params.mu)
    for j in range(params.k):
        diff = Z - params.mu[j]
        w = np.linalg.solve(params.sigma[j], diff.T).T  # sigma_j^-1 (z - mu_j)
        dZ -= G[:, j : j + 1] * w
        dMu[j] = w.T @ G[:, j]
    return dZ, dMu


def _em_refresh(Z: np.ndarray, params: ClusterParams, reg_covar: float) -> ClusterParams:
    """One EM step for the gaussian variant's mixture on the current embedding."""
    pi, mu, sigma = _gmm_m_step(Z, soft_assign_gaussian(Z, params), "full", reg_covar)
    return ClusterParams(mu=mu, sigma=sigma, pi=pi)


def _reseed_collapsed(
    Z: np.ndarray,
    params: ClusterParams,
    S: np.ndarray,
    epoch: int,
    reg_covar: float,
    events: list[tuple[int, int]],
    variant: str,
) -> tuple[ClusterParams, np.ndarray]:
    """Move any cluster with soft mass < 1 to the least-confident sample."""
    for _ in range(params.k):
        f = S.sum(axis=0)
        dead = np.flatnonzero(f < 1.0)
        if dead.size == 0:
            break
        j = int(dead[0])
        worst = int(S.max(axis=1).argmin())
        params.mu[j] = Z[worst]
        if variant == "gaussian":
            d = Z.shape[1]
            centered = Z - Z.mean(axis=0)
            params.sigma[j] = centered.T @ centered / Z.shape[0] + reg_covar * np.eye(d)
            params.pi[j] = 1.0 / params.k
            params.pi /= params.pi.sum()
        events.append((epoch, j))
        S = soft_assign(Z, params, variant)
    return params, S


def finetune(
    model: AutoencoderModel, ds: Dataset, k: int, config: DeepClusterConfig
) -> DeepClusterModel:
    """Alternate target refreshes with mini-batch joint gradient steps.

    Every ``target_update_interval`` epochs the full-data embedding is
    recomputed, the gaussian variant's mixture takes one EM step, collapsed
    clusters are reseeded, and T is frozen. Between refreshes each batch
    takes one Adam step on the joint objective, with the clustering
    gradient injected at the bottleneck (student-t centers get their own
    Adam update).
    """
    if ds.missing.any():
        raise DimensionMismatch("finetune requires a fully imputed dataset")
    if k < 2:
        raise DegenerateInput("k must be >= 2")
    if model.embed_dim != config.embed_dim:
        raise DimensionMismatch(
            f"model embed_dim {model.embed_dim} != config embed_dim {config.embed_dim}"
        )
    X = ds.X
    n = X.shape[0]
    seed = config.train.seed

    if config.gamma == 0.0:
        # hybrid baseline: cluster the pretrained embedding, no fine-tuning
        params = init_clusters(encode(model, X), k, config.variant, seed)
        return DeepClusterModel(model, params, config.variant, k)

    reset_adam(model)
    params = init_clusters(encode(model, X), k, config.variant, seed)
    rng = np.random.default_rng(derive_seed(seed, _SHUFFLE_SALT))
    dcm = DeepClusterModel(model, params, config.variant, k)

    mu_m = np.zeros_like(params.mu)
    mu_v = np.zeros_like(params.mu)
    mu_step = 0
    cfg_t = config.train
    T_full = None

    for epoch in range(config.finetune_epochs):
        if epoch % config.target_update_interval == 0:
            Z_full = encode(model, X)
            if config.variant == "gaussian":
                params = _em_refresh(Z_full, params, config.reg_covar)
                dcm.params = params
            S_full = soft_assign(Z_full, params, config.variant)
            params, S_full = _reseed_collapsed(
                Z_full, params, S_full, epoch, config.reg_covar, dcm.collapse_events, config.variant
            )
            T_full = target_distribution(S_full)

        perm = rng.permutation(n)
        for start in range(0, n, cfg_t.batch_size):
            idx = perm[start : start + cfg_t.batch_size]
            xb = X[idx]
            zb, xhat, cache = forward(model, xb)
            d_xhat = config.recon_weight * 2.0 * (xhat - xb) / xb.shape[0]
            dZ, dMu = clustering_gradients(zb, params, T_full[idx], config.variant)
            grads = backward(model, cache, d_xhat, config.gamma * dZ)
            adam_step(model, grads, cfg_t)
            if config.variant == "student_t":
                g = config.gamma * dMu
                mu_step += 1
                mu_m = cfg_t.adam_beta1 * mu_m + (1 - cfg_t.adam_beta1) * g
                mu_v = cfg_t.adam_beta2 * mu_v + (1 - cfg_t.adam_beta2) * g * g
                mhat = mu_m / (1 - cfg_t.adam_beta1**mu_step)
                vhat = mu_v / (1 - cfg_t.adam_beta2**mu_step)
                params.mu -= cfg_t.learning_rate * mhat / (np.sqrt(vhat) + cfg_t.adam_eps)

        zf, xhatf, _ = forward(model, X)
        sf = soft_assign(zf, params, config.variant)
        recon = reconstruction_loss(X, xhatf)
        kl = kl_loss(T_full, sf) / n
        joint = config.recon_weight * recon + config.gamma * kl
        if not np.isfinite(joint) or not params_finite(model) or not np.all(np.isfinite(params.mu)):
            raise NonFiniteLoss(epoch)
        dcm.recon_history.append(recon)
        dcm.kl_history.append(kl)
        dcm.joint_history.append(joint)

    dcm.params = params
    return dcm


def assign(dcm: DeepClusterModel, X: np.ndarray) -> np.ndarray:
    """Encode X and return the per-row argmax of the variant's soft assignment."""
    Z = encode(dcm.network, np.asarray(X, dtype=float))
    S = soft_assign(Z, dcm.params, dcm.variant)
    return S.argmax(axis=1)
