"""Symmetric fully-connected autoencoder with explicit numpy forward/backward.

The network is input -> hidden... -> bottleneck -> mirrored hidden... ->
output. Hidden layers use relu or tanh; the bottleneck and the output
layer are linear. The reconstruction objective is the mean over samples
of the squared Euclidean reconstruction error (the 1/N factor of a
summed objective is absorbed into the learning rate).

Every weight and bias lives in one flat vector, ``model.theta``;
``model.weights`` and ``model.biases`` are views of it, and Adam's moments
share its layout, so ``adam_step`` updates all parameters in one pass.

``forward``'s cache holds one array per layer, the activations a_0 (input)
.. a_L (output), and ``backward`` reads both activation derivatives from
them. ``backward`` also accepts an extra gradient injected at the bottleneck
so a clustering loss on the embedding can flow into the encoder alongside
the reconstruction gradient from the decoder.

Training reuses its arrays: ``forward(model, batch, out=cache)`` writes into
a ``ForwardCache.for_model`` cache (a shorter batch uses leading rows), and
``backward(..., out=grads)`` into a ``Gradients.for_model``. ``backward``
writes each hidden layer's delta over its activation once that is read for
the last time, so the cache is then spent: a second ``backward`` on it
raises ``StaleCache`` until a forward refills it. ``backward`` never writes
over Z, Xhat or the input; with ``out=``, the next forward into the same
cache does. Without ``out=`` both functions return fresh arrays.

A model computes in the dtype it was built with (``build(..., dtype=)``,
float64 by default): theta, Adam's moments and scratch, every cache, the
gradients, each batch once cast on entry, and the upstream gradients
``backward`` receives. What is computed from its outputs stays float64:
the callers' heads, k-means, EM and metrics take Z cast to float64, and
``reconstruction_loss`` reduces in float64 whatever the dtype of Xhat.

A pass that no ``backward`` reads (the training loops' full-data history
forward, every ``encode``) uses a ``ForwardCache.for_pass`` cache instead:
Z and Xhat get their own arrays, and the hidden layers take turns in two
arenas, so it holds about half of what ``for_model`` does. A ``forward``
into a caller's pass cache is the one writer of ``model.last_pass``: it
leaves (``model.version``, its input, Z) there. ``encode(model, X)`` is the
one reader: for that same array object at that version it returns a copy of
that Z without running a layer, and otherwise runs the encoder half in a
fresh pass cache, so its Z is always the caller's own. So any write to theta
but ``adam_step``'s must bump ``model.version``, as ``backward``'s
``StaleCache`` check already assumes; nor may the input be written in
place, or a pass cache serve two models.

``pretrain`` and ``finetune`` run one training loop, ``_train``: the
seeded shuffles, every batch's forward, ``backward`` and ``adam_step``, and
each epoch's full-data forward, finite checks and ``NonFiniteLoss``.
``finetune`` hands it a target refresh, a bottleneck gradient and an epoch
loss. The loop takes its pass cache's hidden arenas, its batch cache and its
gradients from one ``training_buffers`` buffer, as large as the larger of
the arenas and the other two together. That is safe because a full-data pass
never overlaps a step: the batch cache is spent once ``backward`` has run,
``backward(out=)`` writes every gradient entry, and ``adam_step`` has read
them all before the next pass. Z and Xhat stay in arrays of their own, since
Z outlives the steps in ``model.last_pass``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, InvalidDimension, NonFiniteLoss, StaleCache

ACTIVATIONS = ("relu", "tanh")

# the dtype of every network a benchmark cell or run_dimension_sweep builds; build's default is float64
NETWORK_DTYPE = "float32"

# Adam's constants, for the network's step and for fine-tuning's student-t centres
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# parameters adam_step updates per pass, with two scratch rows of this length
ADAM_CHUNK = 32768


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < float("inf"):
            raise InvalidDimension("learning_rate must be > 0 and finite")
        if self.batch_size < 1:
            raise InvalidDimension("batch_size must be >= 1")
        if self.epochs < 0:
            raise InvalidDimension("epochs (pretrain_epochs) must be >= 0")
        if self.seed < 0:
            raise InvalidDimension("seed must be >= 0")


@dataclass
class AdamState:
    m: np.ndarray                  # first moments, in the model's flat parameter layout
    v: np.ndarray                  # second moments, same layout
    scratch: np.ndarray = field(repr=False)  # adam_step's two work rows, up to ADAM_CHUNK long
    step: int = 0


@dataclass
class Gradients:
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    flat: np.ndarray  # the one vector both lists view, in the model's flat parameter layout

    @classmethod
    def for_model(cls, model: AutoencoderModel, into: np.ndarray | None = None) -> Gradients:
        """Zero gradients laid out like the model's flat parameter vector, for ``backward(out=)``;
        with ``into``, views of its leading entries, whose values ``backward`` overwrites whole."""
        flat = np.zeros_like(model.theta) if into is None else into[: model.theta.size]
        return cls(*_layer_views(flat, model.layer_dims), flat)


@dataclass
class ForwardCache:
    buffers: list[np.ndarray]      # storage for a_1 .. a_L, as many rows as the cache holds
    activations: list[np.ndarray] = field(default_factory=list)  # a_0 (input) .. a_L of the last forward
    version: int = -1
    spent: bool = True             # no activations for backward: its deltas went over them, or none were kept
    for_backward: bool = True      # False for a pass cache, whose hidden layers overwrite each other

    @classmethod
    def for_model(cls, model: AutoencoderModel, rows: int, into: np.ndarray | None = None) -> ForwardCache:
        """Room for one forward pass of up to ``rows`` samples, for ``forward(out=)``: the layers
        laid end to end in one buffer, by default a fresh one, else the leading entries of ``into``."""
        widths = model.layer_dims[1:]
        ends = (rows * np.cumsum([0, *widths])).tolist()
        into = np.empty(ends[-1], model.dtype) if into is None else into
        return cls([into[a:b].reshape(rows, w) for a, b, w in zip(ends, ends[1:], widths)])

    @classmethod
    def for_pass(cls, model: AutoencoderModel, rows: int, into: np.ndarray | None = None) -> ForwardCache:
        """Room for a forward of up to ``rows`` samples that no ``backward`` reads.

        Z and Xhat get their own arrays. Encoder hidden layer i and its
        mirror in the decoder are written into arena i % 2, which is as long
        as the widest layer it holds, so a layer's input and output never
        share memory. The two arenas lie end to end in one buffer, by
        default a fresh one, else the leading entries of ``into``.
        """
        a, b = (rows * width for width in _arena_widths(model))
        into = np.empty(a + b, model.dtype) if into is None else into
        arenas = into[:a], into[a : a + b]
        return cls([
            np.empty((rows, w), model.dtype) if _is_linear(model, l)
            else arenas[min(l, model.n_layers - 2 - l) % 2][: rows * w].reshape(rows, w)
            for l, w in enumerate(model.layer_dims[1:])
        ], for_backward=False)


@dataclass
class AutoencoderModel:
    layer_dims: list[int]          # full chain: in, hidden..., d, mirrored hidden..., in
    theta: np.ndarray              # every parameter, layer by layer: W_0 row-major, b_0, W_1, b_1, ...
    activation: str
    bottleneck: int                # index of the layer whose output is Z
    adam: AdamState
    version: int = 0
    # (version, input, Z) of the last pass into a caller's pass cache, for encode to reuse
    last_pass: tuple = field(default=(-1, None, None), init=False, repr=False, compare=False)
    weights: list[np.ndarray] = field(init=False, repr=False)  # (fan_in, fan_out) views of theta
    biases: list[np.ndarray] = field(init=False, repr=False)   # (fan_out,) views of theta

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.theta, self.layer_dims)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def embed_dim(self) -> int:
        return self.layer_dims[self.bottleneck + 1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dtype(self) -> np.dtype:
        return self.theta.dtype


def _layer_views(flat: np.ndarray, dims: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's weight and bias as views of one flat vector, in ``AutoencoderModel.theta``'s layout."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def _arena_widths(model: AutoencoderModel) -> list[int]:
    """A pass cache's two arenas' widths: the widest encoder hidden layer of each parity, or 0."""
    hidden = model.layer_dims[1 : model.bottleneck + 1]
    return [max(hidden[i::2], default=0) for i in (0, 1)]


def mirrored_dims(input_dim: int, embed_dim: int, hidden, activation: str) -> list[int]:
    """``build``'s full chain of layer widths; InvalidDimension if a width or the activation is invalid."""
    hidden = list(hidden)
    dims = [input_dim] + hidden + [embed_dim] + hidden[::-1] + [input_dim]
    if any(d < 1 for d in dims):
        raise InvalidDimension(f"every layer dim, embed_dim included, must be >= 1, got {dims}")
    if activation not in ACTIVATIONS:
        raise InvalidDimension(f"activation must be one of {ACTIVATIONS}")
    return dims


def build(
    input_dim: int,
    embed_dim: int,
    hidden: list[int] | tuple[int, ...] = (),
    activation: str = "relu",
    seed: int = 0,
    dtype: str = "float64",
) -> AutoencoderModel:
    """He-uniform initialized weights, zero biases, mirrored decoder; the model computes in ``dtype``.

    The weights are drawn in float64 and rounded to ``dtype``, so one seed
    starts a float32 and a float64 model from the same point.
    """
    dims = mirrored_dims(input_dim, embed_dim, hidden, activation)
    if seed < 0:
        raise InvalidDimension(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    theta, scratch = np.zeros(size, dtype), np.empty((2, min(size, ADAM_CHUNK)), dtype)
    adam = AdamState(np.zeros_like(theta), np.zeros_like(theta), scratch)
    model = AutoencoderModel(dims, theta, activation, bottleneck=len(hidden), adam=adam)
    for w in model.weights:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


def _column_sums(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.sum(g, axis=0, out=out)`` byte for byte: einsum adds a C-ordered g's rows in the
    same order without the reduce iterator; one column sums pairwise, so it keeps np.sum."""
    if g.shape[1] > 1 and g.flags.c_contiguous:
        return np.einsum("ij->j", g, out=out)
    return np.sum(g, axis=0, out=out)


def _activate(u: np.ndarray, kind: str) -> np.ndarray:
    # writes over u, so callers pass their own a @ W + b, never an array they keep
    return np.maximum(u, 0.0, out=u) if kind == "relu" else np.tanh(u, out=u)


def _activate_grad(a: np.ndarray, kind: str) -> np.ndarray:
    # writes the derivative over a, read from it: a = max(u, 0) is > 0 exactly
    # where u is, NaN and -0.0 included; tanh' = 1 - a^2
    if kind == "relu":
        return np.greater(a, 0.0, out=a)
    np.multiply(a, a, out=a)
    return np.subtract(1.0, a, out=a)


def _is_linear(model: AutoencoderModel, layer: int) -> bool:
    return layer == model.bottleneck or layer == model.n_layers - 1


def _run_layers(model: AutoencoderModel, batch, out: ForwardCache | None, new_cache, layers: int):
    """a_0 = batch .. a_layers, each written into the leading rows of its buffer in ``out``
    (by default ``new_cache(model, rows)``); returns the activations and the cache. Only a
    pass into a caller's pass cache is left in ``model.last_pass``."""
    X = np.atleast_2d(np.asarray(batch, dtype=model.dtype))
    if X.shape[1] != model.input_dim:
        raise DimensionMismatch(f"batch width {X.shape[1]} != input dim {model.input_dim}")
    rows = X.shape[0]
    cache = new_cache(model, rows) if out is None else out
    if rows > len(cache.buffers[0]) or [b.shape[1] for b in cache.buffers] != model.layer_dims[1:]:
        raise DimensionMismatch(f"a {rows}-row batch does not fit the cache")
    activations = [X]
    for l, buffer in enumerate(cache.buffers[:layers]):
        u = np.matmul(activations[-1], model.weights[l], out=buffer[:rows])
        u += model.biases[l]
        activations.append(u if _is_linear(model, l) else _activate(u, model.activation))
    # only a full pass through a for_model cache leaves what backward reads
    cache.activations, cache.version = activations, model.version
    cache.spent = layers < model.n_layers or not cache.for_backward
    if out is not None and not out.for_backward:
        model.last_pass = (model.version, batch, activations[model.bottleneck + 1])
    return activations, cache


def forward(model: AutoencoderModel, batch: np.ndarray, *, out: ForwardCache | None = None):
    """Full pass. Returns (Z, Xhat, cache); cache feeds ``backward``.

    With ``out``, the activations are written into that cache, which must
    hold at least the batch's rows, and Z and Xhat are views into it. A
    ``ForwardCache.for_pass`` cache is spent after the pass.
    """
    activations, cache = _run_layers(model, batch, out, ForwardCache.for_model, model.n_layers)
    return activations[model.bottleneck + 1], activations[-1], cache


def encode(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Encoder half only: Z in the model's dtype, in an array nothing else holds: a copy of
    ``model.last_pass``'s Z if that pass read this same array object at the model's version,
    else computed in a fresh ``ForwardCache.for_pass``."""
    version, seen, Z = model.last_pass
    if version == model.version and seen is X:
        return Z.copy()
    return _run_layers(model, X, None, ForwardCache.for_pass, model.bottleneck + 1)[0][-1]


def reconstruction_loss(X: np.ndarray, Xhat: np.ndarray) -> float:
    """Mean over samples of the squared Euclidean reconstruction error, reduced in float64: the
    squared residuals go into a float64 copy of Xhat, whatever its dtype, so no input is written."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r = np.atleast_2d(np.array(Xhat, dtype=float))
    if X.shape != r.shape:
        raise DimensionMismatch(f"shape {X.shape} vs {r.shape}")
    np.subtract(X, r, out=r)
    return float(np.square(r, out=r).sum(axis=1).mean())


def backward(
    model: AutoencoderModel,
    cache: ForwardCache,
    dL_dXhat: np.ndarray,
    dL_dZ: np.ndarray | None = None,
    *,
    out: Gradients | None = None,
) -> Gradients:
    """Reverse-mode gradients of a scalar loss.

    ``dL_dXhat`` is the upstream gradient at the output; ``dL_dZ``, when
    given, is added at the bottleneck so embedding losses reach the encoder.
    With ``out`` (a ``Gradients.for_model``), the gradients are written into
    it. Each hidden delta is written over its activation, so the cache is
    spent afterwards. Of Xhat only the shape is read, so ``dL_dXhat`` may
    be written over it.
    """
    if cache.spent:
        raise StaleCache(
            "cache is spent: backward already ran on it, or forward never did" if cache.for_backward
            else "a pass cache (ForwardCache.for_pass) holds no activations for backward"
        )
    if cache.version != model.version:
        raise StaleCache("cache was produced by an older parameter version")
    g = np.atleast_2d(np.asarray(dL_dXhat, dtype=model.dtype))
    activations = cache.activations
    if g.shape != activations[-1].shape:
        raise DimensionMismatch("dL_dXhat shape does not match the forward output")
    if dL_dZ is not None:
        dL_dZ = np.atleast_2d(np.asarray(dL_dZ, dtype=model.dtype))
        if dL_dZ.shape != activations[model.bottleneck + 1].shape:
            raise DimensionMismatch("dL_dZ shape does not match the embedding")
    grads = Gradients.for_model(model) if out is None else out
    if grads.flat.shape != model.theta.shape or grads.flat.dtype != model.dtype:
        raise DimensionMismatch("out must be Gradients.for_model(model)")
    cache.spent = True
    for l in range(model.n_layers - 1, -1, -1):
        if not _is_linear(model, l):
            a = activations[l + 1]  # read for the last time: the delta goes over it
            g = np.multiply(g, _activate_grad(a, model.activation), out=a)
        np.matmul(activations[l].T, g, out=grads.d_weights[l])
        _column_sums(g, out=grads.d_biases[l])
        if l == 0:
            break  # nothing reads dL/dX
        g = g @ model.weights[l].T
        # g is now dL/d(a_l); once a_l is the embedding, fold in the
        # clustering-loss gradient before continuing into the encoder.
        if l == model.bottleneck + 1 and dL_dZ is not None:
            g += dL_dZ
    return grads


def adam_step(model: AutoencoderModel, grads: Gradients, config: TrainConfig) -> AutoencoderModel:
    """Standard Adam with bias correction; updates the model in place.

    One pass over the flat parameter vector, ``ADAM_CHUNK`` entries at a
    time, with the per-tensor update's operations in the same order.
    """
    if grads.flat.shape != model.theta.shape:
        raise DimensionMismatch("gradient shape does not match parameter shape")
    s = model.adam
    s.step += 1
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, config.learning_rate
    c1 = 1.0 - b1**s.step
    c2 = 1.0 - b2**s.step
    for start in range(0, grads.flat.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        theta, g, m, v = model.theta[chunk], grads.flat[chunk], s.m[chunk], s.v[chunk]
        t1, t2 = s.scratch[0, : g.size], s.scratch[1, : g.size]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=t1)  # m = b1 m + (1 - b1) g
        v *= b2
        np.multiply(g, g, out=t1)
        t1 *= 1.0 - b2
        v += t1  # v = b2 v + (1 - b2) g^2
        np.divide(v, c2, out=t1)
        np.sqrt(t1, out=t1)
        t1 += eps
        np.divide(m, c1, out=t2)
        t2 *= lr
        t2 /= t1
        theta -= t2  # theta -= lr (m / c1) / (sqrt(v / c2) + eps)
    model.version += 1
    return model


def reset_adam(model: AutoencoderModel) -> None:
    model.adam.m.fill(0.0)
    model.adam.v.fill(0.0)
    model.adam.step = 0


def params_finite(model: AutoencoderModel) -> bool:
    return bool(np.isfinite(model.theta).all())


def training_buffers(
    model: AutoencoderModel, rows: int, batch_rows: int
) -> tuple[ForwardCache, ForwardCache, Gradients]:
    """A training loop's pass cache for ``rows`` samples, batch cache for ``batch_rows`` and
    gradients, in one buffer of the model's dtype: the pass cache's arenas over its leading
    entries, the batch cache and then the gradients laid end to end over them. Z and Xhat of
    the pass cache keep their own arrays, since Z outlives the steps in ``model.last_pass``."""
    batch = batch_rows * sum(model.layer_dims[1:])
    arenas = rows * sum(_arena_widths(model))
    buffer = np.empty(max(arenas, batch + model.theta.size), model.dtype)
    return (
        ForwardCache.for_pass(model, rows, into=buffer),
        ForwardCache.for_model(model, batch_rows, into=buffer),
        Gradients.for_model(model, into=buffer[batch:]),
    )


def _train(model: AutoencoderModel, X: np.ndarray, config: TrainConfig, seed: int, epochs: int,
           epoch_loss, recon_weight: float = 1.0, refresh=None, bottleneck=None) -> list:
    """The training loop of ``pretrain`` and ``finetune``: ``epochs`` passes over X, each in a
    shuffle drawn from ``seed``, the last short batch kept. ``refresh(epoch)`` runs before an
    epoch's steps. Each step trains on recon_weight times the batch's reconstruction loss, plus
    what ``bottleneck(idx, Z)`` returns, the gradient at the batch's embedding. After each
    epoch, ``epoch_loss(Z, Xhat)`` of a full-data pass gives the history entry and the values
    that must be finite; ``NonFiniteLoss`` if any is not, or a parameter. Returns the history."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    full, cache, grads = training_buffers(model, n, min(config.batch_size, n))
    history = []
    # a diverging network overflows; NonFiniteLoss, raised at the end of its epoch, is the one signal
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(epochs):
            if refresh is not None:
                refresh(epoch)
            perm = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                xb = X[idx]
                zb, xhat, _ = forward(model, xb, out=cache)
                d_xhat = np.subtract(xhat, xb, out=xhat)  # recon_weight 2 (xhat - xb) / rows, over xhat
                d_xhat *= recon_weight * 2.0
                d_xhat /= xb.shape[0]
                backward(model, cache, d_xhat, None if bottleneck is None else bottleneck(idx, zb), out=grads)
                adam_step(model, grads, config)
            entry, finite = epoch_loss(*forward(model, X, out=full)[:2])
            if not np.isfinite(finite).all() or not params_finite(model):
                raise NonFiniteLoss(epoch)
            history.append(entry)
    return history


def pretrain(
    model: AutoencoderModel, ds: Dataset, config: TrainConfig
) -> tuple[AutoencoderModel, list[float]]:
    """Mini-batch reconstruction training over seeded shuffles, in ``_train``'s loop.

    The history holds the full-dataset reconstruction loss after each
    epoch. The last incomplete mini-batch is used, not dropped. Raises
    ``NonFiniteLoss`` (training aborted) if the loss or any parameter
    stops being finite. The loop's one ``training_buffers`` buffer holds
    its batch cache, its gradients and the hidden layers of every
    full-data pass; ``encode(model, ds.X)`` then copies the last pass's Z.
    """
    if ds.missing.any():
        raise DimensionMismatch("pretrain requires a fully imputed dataset")
    return model, _train(model, ds.X, config, config.seed, config.epochs,
                         lambda Z, Xhat: (reconstruction_loss(ds.X, Xhat),) * 2)
