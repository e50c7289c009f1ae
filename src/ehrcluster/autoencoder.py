"""Symmetric fully-connected autoencoder with explicit numpy forward/backward.

The network is input -> hidden... -> bottleneck -> mirrored hidden... ->
output. Hidden layers use relu or tanh; the bottleneck and the output
layer are linear. The reconstruction objective is the mean over samples
of the squared Euclidean reconstruction error (the 1/N factor of a
summed objective is absorbed into the learning rate).

``backward`` accepts an extra gradient injected at the bottleneck so a
clustering loss on the embedding can flow into the encoder alongside the
reconstruction gradient from the decoder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, InvalidDimension, NonFiniteLoss, StaleCache

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 200
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidDimension("learning_rate must be > 0")
        if self.batch_size < 1:
            raise InvalidDimension("batch_size must be >= 1")
        if self.epochs < 0:
            raise InvalidDimension("epochs must be >= 0")


@dataclass
class AdamState:
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    step: int = 0


@dataclass
class Gradients:
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]


@dataclass
class ForwardCache:
    activations: list[np.ndarray]  # a_0 (input) .. a_L (output)
    preacts: list[np.ndarray]      # u_1 .. u_L
    version: int


@dataclass
class AutoencoderModel:
    layer_dims: list[int]          # full chain: in, hidden..., d, mirrored hidden..., in
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str
    bottleneck: int                # index of the layer whose output is Z
    adam: AdamState
    version: int = 0

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def embed_dim(self) -> int:
        return self.layer_dims[self.bottleneck + 1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def _zero_adam(weights, biases) -> AdamState:
    return AdamState(
        m_w=[np.zeros_like(w) for w in weights],
        v_w=[np.zeros_like(w) for w in weights],
        m_b=[np.zeros_like(b) for b in biases],
        v_b=[np.zeros_like(b) for b in biases],
        step=0,
    )


def build(
    input_dim: int,
    embed_dim: int,
    hidden: list[int] | tuple[int, ...] = (),
    activation: str = "relu",
    seed: int = 0,
) -> AutoencoderModel:
    """He-uniform initialized weights, zero biases, mirrored decoder."""
    hidden = list(hidden)
    dims = [input_dim] + hidden + [embed_dim] + hidden[::-1] + [input_dim]
    if any(d < 1 for d in dims):
        raise InvalidDimension(f"all layer dims must be >= 1, got {dims}")
    if activation not in ACTIVATIONS:
        raise InvalidDimension(f"activation must be one of {ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return AutoencoderModel(
        layer_dims=dims,
        weights=weights,
        biases=biases,
        activation=activation,
        bottleneck=len(hidden),
        adam=_zero_adam(weights, biases),
    )


def _activate(u: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(u, 0.0) if kind == "relu" else np.tanh(u)


def _activate_grad(u: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    return (u > 0).astype(float) if kind == "relu" else 1.0 - a * a


def _is_linear(model: AutoencoderModel, layer: int) -> bool:
    return layer == model.bottleneck or layer == model.n_layers - 1


def forward(model: AutoencoderModel, batch: np.ndarray):
    """Full pass. Returns (Z, Xhat, cache); cache feeds ``backward``."""
    X = np.atleast_2d(np.asarray(batch, dtype=float))
    if X.shape[1] != model.input_dim:
        raise DimensionMismatch(f"batch width {X.shape[1]} != input dim {model.input_dim}")
    activations = [X]
    preacts = []
    a = X
    for l in range(model.n_layers):
        u = a @ model.weights[l] + model.biases[l]
        a = u if _is_linear(model, l) else _activate(u, model.activation)
        preacts.append(u)
        activations.append(a)
    Z = activations[model.bottleneck + 1]
    return Z, activations[-1], ForwardCache(activations, preacts, model.version)


def encode(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Encoder half only; cheaper than a full forward when Xhat is unused."""
    a = np.atleast_2d(np.asarray(X, dtype=float))
    if a.shape[1] != model.input_dim:
        raise DimensionMismatch(f"batch width {a.shape[1]} != input dim {model.input_dim}")
    for l in range(model.bottleneck + 1):
        u = a @ model.weights[l] + model.biases[l]
        a = u if _is_linear(model, l) else _activate(u, model.activation)
    return a


def reconstruction_loss(X: np.ndarray, Xhat: np.ndarray) -> float:
    """Mean over samples of the squared Euclidean reconstruction error."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xhat = np.atleast_2d(np.asarray(Xhat, dtype=float))
    if X.shape != Xhat.shape:
        raise DimensionMismatch(f"shape {X.shape} vs {Xhat.shape}")
    return float(((X - Xhat) ** 2).sum(axis=1).mean())


def backward(
    model: AutoencoderModel,
    cache: ForwardCache,
    dL_dXhat: np.ndarray,
    dL_dZ: np.ndarray | None = None,
) -> Gradients:
    """Reverse-mode gradients of a scalar loss.

    ``dL_dXhat`` is the upstream gradient at the output; ``dL_dZ``, when
    given, is added at the bottleneck so embedding losses reach the encoder.
    """
    if cache.version != model.version:
        raise StaleCache("cache was produced by an older parameter version")
    g = np.atleast_2d(np.asarray(dL_dXhat, dtype=float))
    if g.shape != cache.activations[-1].shape:
        raise DimensionMismatch("dL_dXhat shape does not match the forward output")
    if dL_dZ is not None:
        dL_dZ = np.atleast_2d(np.asarray(dL_dZ, dtype=float))
        if dL_dZ.shape != cache.activations[model.bottleneck + 1].shape:
            raise DimensionMismatch("dL_dZ shape does not match the embedding")
    d_w = [None] * model.n_layers
    d_b = [None] * model.n_layers
    for l in range(model.n_layers - 1, -1, -1):
        if not _is_linear(model, l):
            g = g * _activate_grad(cache.preacts[l], cache.activations[l + 1], model.activation)
        d_w[l] = cache.activations[l].T @ g
        d_b[l] = g.sum(axis=0)
        g = g @ model.weights[l].T
        # g is now dL/d(a_l); once a_l is the embedding, fold in the
        # clustering-loss gradient before continuing into the encoder.
        if l == model.bottleneck + 1 and dL_dZ is not None:
            g = g + dL_dZ
    return Gradients(d_w, d_b)


def adam_step(model: AutoencoderModel, grads: Gradients, config: TrainConfig) -> AutoencoderModel:
    """Standard Adam with bias correction; updates the model in place."""
    s = model.adam
    s.step += 1
    b1, b2, eps, lr = config.adam_beta1, config.adam_beta2, config.adam_eps, config.learning_rate
    c1 = 1.0 - b1**s.step
    c2 = 1.0 - b2**s.step
    for l in range(model.n_layers):
        for theta, g, m, v in (
            (model.weights[l], grads.d_weights[l], s.m_w[l], s.v_w[l]),
            (model.biases[l], grads.d_biases[l], s.m_b[l], s.v_b[l]),
        ):
            if g.shape != theta.shape:
                raise DimensionMismatch("gradient shape does not match parameter shape")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    model.version += 1
    return model


def reset_adam(model: AutoencoderModel) -> None:
    model.adam = _zero_adam(model.weights, model.biases)


def params_finite(model: AutoencoderModel) -> bool:
    return all(np.all(np.isfinite(w)) for w in model.weights) and all(
        np.all(np.isfinite(b)) for b in model.biases
    )


def pretrain(
    model: AutoencoderModel, ds: Dataset, config: TrainConfig
) -> tuple[AutoencoderModel, list[float]]:
    """Mini-batch reconstruction training over seeded shuffles.

    The history holds the full-dataset reconstruction loss after each
    epoch. The last incomplete mini-batch is used, not dropped. Raises
    ``NonFiniteLoss`` (training aborted) if the loss or any parameter
    stops being finite.
    """
    if ds.missing.any():
        raise DimensionMismatch("pretrain requires a fully imputed dataset")
    X = ds.X
    rng = np.random.default_rng(config.seed)
    n = X.shape[0]
    history: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            xb = X[idx]
            _, xhat, cache = forward(model, xb)
            d_xhat = 2.0 * (xhat - xb) / xb.shape[0]
            grads = backward(model, cache, d_xhat)
            adam_step(model, grads, config)
        _, xhat, _ = forward(model, X)
        loss = reconstruction_loss(X, xhat)
        if not np.isfinite(loss) or not params_finite(model):
            raise NonFiniteLoss(epoch)
        history.append(loss)
    return model, history
