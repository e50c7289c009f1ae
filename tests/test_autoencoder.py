import numpy as np
import pytest

from ehrcluster.autoencoder import (
    TrainConfig,
    adam_step,
    backward,
    build,
    encode,
    forward,
    pretrain,
    reconstruction_loss,
)
from ehrcluster.data import SyntheticSpec, generate_synthetic, standardize
from ehrcluster.errors import (
    DimensionMismatch,
    InvalidDimension,
    NonFiniteLoss,
    StaleCache,
)


def kink_safe_model_and_data(hidden, activation, seed0, D=5, d=3, M=8, margin=1e-3):
    """Pick the first seed whose relu pre-activations all clear the margin,
    so a finite-difference probe cannot cross a kink."""
    for seed in range(seed0, seed0 + 60):
        model = build(D, d, hidden, activation, seed=seed)
        X = np.random.default_rng(seed + 1000).normal(size=(M, D))
        _, _, cache = forward(model, X)
        if activation == "tanh" or min(np.abs(u).min() for u in cache.preacts) > margin:
            return model, X
    raise AssertionError("no kink-safe seed found")


def fd_gradients(model, X, loss_fn, h=1e-5):
    fd = []
    for arr in model.weights + model.biases:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            fd.append((lp - lm) / (2 * h))
    return np.array(fd)


def max_rel_err(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return float((np.abs(analytic - fd) / denom).max())


class TestBuild:
    def test_ehr_architecture_dims(self):
        m = build(33, 10, [500, 500, 2000])
        assert m.layer_dims == [33, 500, 500, 2000, 10, 2000, 500, 500, 33]
        assert m.embed_dim == 10 and m.input_dim == 33

    def test_linear_bottleneck_only(self):
        m = build(33, 4, [])
        assert m.layer_dims == [33, 4, 33]

    def test_seed_reproducible(self):
        a = build(7, 3, [5], seed=9)
        b = build(7, 3, [5], seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            build(0, 3, [5])
        with pytest.raises(InvalidDimension):
            build(5, 3, [0])
        with pytest.raises(InvalidDimension):
            build(5, 3, [4], activation="sigmoid")

    def test_biases_zero(self):
        m = build(6, 2, [4], seed=1)
        assert all(not b.any() for b in m.biases)


class TestForward:
    def test_zero_weights_zero_output(self):
        m = build(4, 2, [3], seed=0)
        for w in m.weights:
            w[:] = 0.0
        _, xhat, _ = forward(m, np.random.default_rng(0).normal(size=(5, 4)))
        assert np.array_equal(xhat, np.zeros((5, 4)))

    def test_identity_network(self):
        m = build(3, 3, [], seed=0)
        m.weights[0][:] = np.eye(3)
        m.weights[1][:] = np.eye(3)
        X = np.random.default_rng(1).normal(size=(4, 3))
        z, xhat, _ = forward(m, X)
        assert np.array_equal(xhat, X)
        assert np.array_equal(z, X)

    def test_shape_contract(self):
        m = build(33, 10, [64], seed=0)
        X = np.random.default_rng(2).normal(size=(256, 33))
        z, xhat, _ = forward(m, X)
        assert z.shape == (256, 10) and xhat.shape == (256, 33)

    def test_dimension_mismatch(self):
        m = build(4, 2, [], seed=0)
        with pytest.raises(DimensionMismatch):
            forward(m, np.zeros((3, 5)))

    def test_encode_matches_forward(self):
        m = build(6, 3, [5], seed=3)
        X = np.random.default_rng(3).normal(size=(7, 6))
        z, _, _ = forward(m, X)
        assert np.array_equal(encode(m, X), z)


class TestReconstructionLoss:
    def test_zero_on_identity(self):
        X = np.random.default_rng(0).normal(size=(3, 4))
        assert reconstruction_loss(X, X) == 0.0

    def test_unit_residual(self):
        assert reconstruction_loss([[1.0, 0.0]], [[0.0, 0.0]]) == 1.0

    def test_quadratic_homogeneity(self):
        X = np.random.default_rng(1).normal(size=(5, 3))
        Xhat = X + np.random.default_rng(2).normal(size=(5, 3))
        base = reconstruction_loss(X, Xhat)
        doubled = reconstruction_loss(X, X + 2 * (Xhat - X))
        assert doubled == pytest.approx(4 * base, rel=1e-12)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            reconstruction_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        m = build(4, 2, [3], seed=1)
        X = np.random.default_rng(0).normal(size=(5, 4))
        z, xhat, cache = forward(m, X)
        g = backward(m, cache, np.zeros_like(xhat), np.zeros_like(z))
        assert all(not gw.any() for gw in g.d_weights)
        assert all(not gb.any() for gb in g.d_biases)

    @pytest.mark.parametrize("hidden", [[], [6], [6, 7]])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, hidden, activation):
        model, X = kink_safe_model_and_data(hidden, activation, seed0=50)

        def loss():
            _, xhat, _ = forward(model, X)
            return reconstruction_loss(X, xhat)

        _, xhat, cache = forward(model, X)
        grads = backward(model, cache, 2.0 * (xhat - X) / X.shape[0])
        analytic = np.concatenate(
            [g.ravel() for g in grads.d_weights] + [g.ravel() for g in grads.d_biases]
        )
        assert max_rel_err(analytic, fd_gradients(model, X, loss)) < 1e-4

    def test_embedding_only_gradient_skips_decoder(self):
        m = build(5, 2, [4], seed=2)
        X = np.random.default_rng(1).normal(size=(6, 5))
        z, xhat, cache = forward(m, X)
        g = backward(m, cache, np.zeros_like(xhat), np.ones_like(z))
        decoder_layers = range(m.bottleneck + 1, m.n_layers)
        assert all(not g.d_weights[l].any() for l in decoder_layers)
        assert all(not g.d_biases[l].any() for l in decoder_layers)
        encoder_layers = range(0, m.bottleneck + 1)
        assert any(g.d_weights[l].any() for l in encoder_layers)

    def test_stale_cache(self):
        m = build(4, 2, [], seed=0)
        X = np.zeros((2, 4))
        _, xhat, cache = forward(m, X)
        adam_step(m, backward(m, cache, np.ones_like(xhat)), TrainConfig())
        with pytest.raises(StaleCache):
            backward(m, cache, np.ones_like(xhat))


class TestAdamStep:
    def test_zero_gradient_no_motion(self):
        m = build(4, 2, [3], seed=5)
        before = [w.copy() for w in m.weights]
        _, xhat, cache = forward(m, np.zeros((1, 4)))
        grads = backward(m, cache, np.zeros_like(xhat))
        adam_step(m, grads, TrainConfig())
        assert all(np.array_equal(a, b) for a, b in zip(before, m.weights))

    def test_constant_gradient_step_approaches_lr(self):
        # Adam's fixed point under a constant gradient moves each weight by
        # learning_rate * sign(g) per step
        m = build(2, 1, [], seed=0)
        cfg = TrainConfig(learning_rate=1e-3)
        g = [np.full_like(w, 0.01) for w in m.weights]
        gb = [np.zeros_like(b) for b in m.biases]
        from ehrcluster.autoencoder import Gradients

        prev = None
        for step in range(500):
            before = m.weights[0].copy()
            adam_step(m, Gradients([x.copy() for x in g], gb), cfg)
            prev = np.abs(m.weights[0] - before)
        assert np.allclose(prev, cfg.learning_rate, rtol=0.02)

    def test_identical_models_stay_identical(self):
        a = build(4, 2, [3], seed=7)
        b = build(4, 2, [3], seed=7)
        X = np.random.default_rng(0).normal(size=(5, 4))
        for m in (a, b):
            _, xhat, cache = forward(m, X)
            adam_step(m, backward(m, cache, 2 * (xhat - X) / 5), TrainConfig())
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


def small_training_set(n=500, seed=0):
    ds = generate_synthetic(SyntheticSpec(n, 10, 0.5, 3.0, "correlated", 0.0, seed=seed))
    ds, _ = standardize(ds)
    return ds


class TestPretrain:
    def test_zero_epochs_noop(self):
        ds = small_training_set(100)
        m = build(10, 3, [8], seed=1)
        before = [w.copy() for w in m.weights]
        m, history = pretrain(m, ds, TrainConfig(epochs=0))
        assert history == []
        assert all(np.array_equal(a, b) for a, b in zip(before, m.weights))

    def test_loss_halves_on_synthetic(self):
        ds = small_training_set(500)
        m = build(10, 3, [16], seed=2)
        _, xhat, _ = forward(m, ds.X)
        initial = reconstruction_loss(ds.X, xhat)
        m, history = pretrain(m, ds, TrainConfig(epochs=200, batch_size=128, seed=2))
        assert history[-1] < 0.5 * initial

    def test_seeded_history_identical(self):
        ds = small_training_set(200)
        cfg = TrainConfig(epochs=5, batch_size=64, seed=9)
        _, h1 = pretrain(build(10, 3, [8], seed=4), ds, cfg)
        _, h2 = pretrain(build(10, 3, [8], seed=4), ds, cfg)
        assert h1 == h2

    def test_smoothed_loss_decreases(self):
        # mean of the last 10 epochs under the mean of the first 10
        for seed in (0, 1):
            ds = small_training_set(150, seed=seed)
            m = build(10, 4, [12], seed=seed)
            _, history = pretrain(m, ds, TrainConfig(epochs=40, batch_size=64, seed=seed))
            assert np.mean(history[-10:]) < np.mean(history[:10])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_raises(self):
        # Adam steps are bounded by the learning rate, so only an absurd
        # rate can genuinely overflow the forward pass
        ds = small_training_set(100)
        m = build(10, 3, [8], seed=1)
        with pytest.raises(NonFiniteLoss):
            pretrain(m, ds, TrainConfig(epochs=30, learning_rate=1e200))
