"""Joint fine-tuning of a pretrained encoder with a clustering loss.

The clustering head is the fitted model itself, and its type says which
soft assignment applies; two heads share one training loop:

* ``student_t``: a (k, d) array of centers, s_ij propto
  (1 + ||z_i - mu_j||^2)^-1; the centers are updated in place by their own
  Adam step alongside the network.
* ``gaussian``: a full-covariance ``traditional.GmmModel``, s_ij its
  posterior responsibility. The initial head is ``gmm_fit``'s model; each
  target refresh takes one EM step into a new model instead of a gradient
  step (keeps covariances PD). A model is factored once when it is built,
  so no batch factors a covariance.

The target distribution T is the squared, frequency-normalized transform
of S, recomputed on the full dataset every ``target_update_interval``
epochs and held fixed between refreshes. The joint objective is

    recon_weight * mean_i ||x_i - xhat_i||^2 + gamma * KL(T || S) / M

with the KL term normalized per sample so gamma means the same thing at
any dataset size. ``kl_loss`` and ``joint_loss`` take log S, so the loss
stays finite where S underflows to 0 but log S does not. gamma = 0
degenerates to the hybrid baseline: no fine-tuning epochs run and the
labels are exactly those of k-means / GMM on the pretrained embedding.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autoencoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AutoencoderModel,
    TrainConfig,
    adam_step,
    backward,
    encode,
    forward,
    params_finite,
    reconstruction_loss,
    reset_adam,
    training_buffers,
)
from .data import Dataset
from .errors import DegenerateInput, DimensionMismatch, InvalidDimension, NonFiniteLoss
from .traditional import (
    REG_COVAR,
    GmmModel,
    _gmm_m_step,
    gaussian_log_responsibilities,
    gmm_fit,
    kmeans_fit,
    squared_distances,
)
from .util import derive_seed

VARIANTS = ("student_t", "gaussian")

_SHUFFLE_SALT = 0xF17E

# a clustering head: a full-covariance gaussian mixture, or the (k, d) student-t centers
Head = GmmModel | np.ndarray


@dataclass(frozen=True)
class DeepClusterConfig:
    variant: str = "gaussian"
    gamma: float = 0.1
    finetune_epochs: int = 100
    target_update_interval: int = 10
    recon_weight: float = 1.0  # 0 trains the clustering loss alone (DEC-style)
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidDimension(f"variant must be one of {VARIANTS}")
        if not 0 <= self.gamma < float("inf"):
            raise InvalidDimension("gamma must be >= 0 and finite")
        if not 0 <= self.recon_weight < float("inf"):
            raise InvalidDimension("recon_weight must be >= 0 and finite")
        if self.finetune_epochs < 0:
            raise InvalidDimension("finetune_epochs must be >= 0")
        if self.target_update_interval < 1:
            raise InvalidDimension("target_update_interval must be >= 1")


@dataclass
class DeepClusterModel:
    network: AutoencoderModel
    params: Head
    history: list[tuple[float, float, float]] = field(default_factory=list)  # (recon, kl, joint) per epoch
    collapse_events: list[tuple[int, int]] = field(default_factory=list)  # (epoch, cluster)


def init_clusters(Z: np.ndarray, k: int, variant: str, seed: int) -> Head:
    """The head fitted to Z: k-means centroids for student_t, gmm_fit's full-covariance model for gaussian."""
    Z = np.asarray(Z, dtype=float)
    if variant == "student_t":
        return kmeans_fit(Z, k, seed=seed).centroids
    if variant == "gaussian":
        return gmm_fit(Z, k, cov_type="full", seed=seed)
    raise InvalidDimension(f"unknown variant {variant!r}")


def _centers(head: Head) -> np.ndarray:
    return head.means if isinstance(head, GmmModel) else head


def soft_assign_student_t(Z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Row-normalized t-kernel (one degree of freedom): (1 + ||z - mu||^2)^-1."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[1] != mu.shape[1]:
        raise DimensionMismatch(f"Z dim {Z.shape[1]} != centers dim {mu.shape[1]}")
    q = 1.0 / (1.0 + squared_distances(Z, mu))
    return q / q.sum(axis=1, keepdims=True)


def soft_assign_gaussian(Z: np.ndarray, mixture: GmmModel) -> np.ndarray:
    """Posterior responsibilities pi_j N(z; mu_j, sigma_j), log-sum-exp normalized."""
    log_resp, _ = gaussian_log_responsibilities(np.atleast_2d(np.asarray(Z, dtype=float)), mixture)
    return np.exp(log_resp)


def soft_assign(Z: np.ndarray, head: Head) -> np.ndarray:
    if isinstance(head, GmmModel):
        return soft_assign_gaussian(Z, head)
    return soft_assign_student_t(Z, head)


def target_distribution(S: np.ndarray) -> np.ndarray:
    """T_ij = (S_ij^2 / f_j) normalized per row, f_j the soft cluster frequency."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    f = S.sum(axis=0)
    weighted = S * S / f
    return weighted / weighted.sum(axis=1, keepdims=True)


def kl_loss(T: np.ndarray, log_S: np.ndarray) -> float:
    """KL(T || S) summed over samples and clusters, from T and log S; 0 log(0/s) counts as 0."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    log_S = np.atleast_2d(np.asarray(log_S, dtype=float))
    if T.shape != log_S.shape:
        raise DimensionMismatch(f"shape {T.shape} vs {log_S.shape}")
    mask = T > 0
    return float((T[mask] * (np.log(T[mask]) - log_S[mask])).sum())


def joint_loss(X, Xhat, T, log_S, gamma: float, recon_weight: float = 1.0) -> float:
    """The loss ``finetune`` trains on and records: recon_weight times the reconstruction loss,
    plus gamma times the per-sample mean KL term."""
    recon = reconstruction_loss(X, Xhat)
    kl = kl_loss(T, log_S) / np.atleast_2d(np.asarray(T)).shape[0]
    return recon_weight * recon + gamma * kl  # finetune's own expression, term for term


def clustering_gradients(Z: np.ndarray, head: Head, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of KL(T || S)/M w.r.t. the embedding and the centers.

    T is treated as a constant, matching how training freezes it between
    refreshes.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    m = Z.shape[0]
    if not isinstance(head, GmmModel):
        q = 1.0 / (1.0 + squared_distances(Z, head))
        S = q / q.sum(axis=1, keepdims=True)
        A = q * (T - S)
        dZ = (2.0 / m) * (A.sum(axis=1, keepdims=True) * Z - A @ head)
        dMu = (-2.0 / m) * (A.T @ Z - A.sum(axis=0)[:, None] * head)
        return dZ, dMu
    if head.precisions is None:
        raise InvalidDimension(f"a gaussian head needs full covariances, got cov_type {head.cov_type!r}")
    G = (soft_assign_gaussian(Z, head) - T) / m  # dKL/d(log pi_j N_j) before normalization
    # W[j] = (Z - mu_j) sigma_j^-1, all components in one stacked matmul
    W = (Z[None, :, :] - head.means[:, None, :]) @ head.precisions
    return -np.einsum("mj,jmd->md", G, W), np.einsum("mj,jmd->jd", G, W)


def _reseed_collapsed(
    Z: np.ndarray, head: Head, S: np.ndarray, epoch: int, events: list[tuple[int, int]]
) -> tuple[Head, np.ndarray]:
    """Move any cluster with soft mass < 1 to the least-confident sample; the
    returned head is new, never the given one written over."""
    k = S.shape[1]
    for _ in range(k):
        dead = np.flatnonzero(S.sum(axis=0) < 1.0)
        if dead.size == 0:
            break
        j = int(dead[0])
        mu = _centers(head).copy()
        mu[j] = Z[int(S.max(axis=1).argmin())]
        if isinstance(head, GmmModel):
            centered = Z - Z.mean(axis=0)
            sigma, pi = head.covariances.copy(), head.weights.copy()
            sigma[j] = centered.T @ centered / Z.shape[0] + REG_COVAR * np.eye(Z.shape[1])
            pi[j] = 1.0 / k
            pi /= pi.sum()
            head = GmmModel(pi, mu, sigma)
        else:
            head = mu
        events.append((epoch, j))
        S = soft_assign(Z, head)
    return head, S


def finetune(
    model: AutoencoderModel, ds: Dataset, k: int, config: DeepClusterConfig
) -> DeepClusterModel:
    """Alternate target refreshes with mini-batch joint gradient steps.

    ``config.variant`` chooses the head (``init_clusters``). Every
    ``target_update_interval`` epochs the full-data embedding is recomputed,
    a gaussian head takes one EM step into a new mixture, collapsed clusters
    are reseeded, and T is frozen. Between refreshes each batch takes one
    Adam step on the joint objective, with the clustering gradient injected
    at the bottleneck (student-t centers get their own Adam update, in place).
    One batch cache and one set of gradients serve every step, and one
    pass cache every refresh encode and every epoch's full-data forward,
    all in one ``training_buffers`` buffer.
    """
    if ds.missing.any():
        raise DimensionMismatch("finetune requires a fully imputed dataset")
    if k < 2:
        raise DegenerateInput("k must be >= 2")
    X = ds.X
    n = X.shape[0]
    cfg_t = config.train
    seed = cfg_t.seed
    full, cache, grads = training_buffers(model, n, min(cfg_t.batch_size, n))
    head = init_clusters(encode(model, X, out=full), k, config.variant, seed)
    dcm = DeepClusterModel(model, head)
    if config.gamma == 0.0:
        # hybrid baseline: cluster the pretrained embedding, no fine-tuning
        return dcm

    reset_adam(model)
    rng = np.random.default_rng(derive_seed(seed, _SHUFFLE_SALT))

    gaussian = isinstance(head, GmmModel)
    mu_m = np.zeros_like(_centers(head))
    mu_v = np.zeros_like(_centers(head))
    mu_step = 0

    # a diverging network overflows; NonFiniteLoss, raised at the end of its epoch, is the one signal
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.finetune_epochs):
            if epoch % config.target_update_interval == 0:
                # a view into full, which this epoch's full-data forward overwrites, or for a
                # network in another dtype a copy, since the head computes in float64
                Z_full = np.asarray(encode(model, X, out=full), dtype=float)
                if gaussian:  # one EM step, into a new mixture, as in gmm_fit's loop
                    head = GmmModel(*_gmm_m_step(Z_full, soft_assign_gaussian(Z_full, head), "full", REG_COVAR))
                S_full = soft_assign(Z_full, head)
                head, S_full = _reseed_collapsed(Z_full, head, S_full, epoch, dcm.collapse_events)
                T_full = target_distribution(S_full)

            perm = rng.permutation(n)
            for start in range(0, n, cfg_t.batch_size):
                idx = perm[start : start + cfg_t.batch_size]
                xb = X[idx]
                zb, xhat, _ = forward(model, xb, out=cache)
                d_xhat = np.subtract(xhat, xb, out=xhat)  # recon_weight 2 (xhat - xb) / rows, over xhat
                d_xhat *= config.recon_weight * 2.0
                d_xhat /= xb.shape[0]
                dZ, dMu = clustering_gradients(zb, head, T_full[idx])
                backward(model, cache, d_xhat, config.gamma * dZ, out=grads)
                adam_step(model, grads, cfg_t)
                if not gaussian:  # the centers' own Adam step, in place
                    g = config.gamma * dMu
                    mu_step += 1
                    mu_m = ADAM_BETA1 * mu_m + (1 - ADAM_BETA1) * g
                    mu_v = ADAM_BETA2 * mu_v + (1 - ADAM_BETA2) * g * g
                    mhat = mu_m / (1 - ADAM_BETA1**mu_step)
                    vhat = mu_v / (1 - ADAM_BETA2**mu_step)
                    head -= cfg_t.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)

            zf, xhatf, _ = forward(model, X, out=full)
            if gaussian:
                log_sf, _ = gaussian_log_responsibilities(zf, head)
            else:
                log_sf = np.log(soft_assign_student_t(zf, head))
            recon = reconstruction_loss(X, xhatf)
            kl = kl_loss(T_full, log_sf) / n
            joint = config.recon_weight * recon + config.gamma * kl
            if not np.isfinite(joint) or not params_finite(model) or not np.all(np.isfinite(_centers(head))):
                raise NonFiniteLoss(epoch)
            dcm.history.append((recon, kl, joint))

    dcm.params = head
    return dcm


def assign(dcm: DeepClusterModel, X: np.ndarray) -> np.ndarray:
    """Encode X and return the per-row argmax of the head's soft assignment."""
    Z = encode(dcm.network, np.asarray(X, dtype=float))
    S = soft_assign(Z, dcm.params)
    return S.argmax(axis=1)
