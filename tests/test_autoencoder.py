import tracemalloc

import numpy as np
import pytest

from ehrcluster import autoencoder as ae
from ehrcluster import deepcluster as dc
from ehrcluster.autoencoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ForwardCache,
    Gradients,
    TrainConfig,
    adam_step,
    backward,
    build,
    encode,
    forward,
    params_finite,
    pretrain,
    reconstruction_loss,
    reset_adam,
    training_buffers,
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
        preacts = (a @ w + b for a, w, b in zip(cache.activations, model.weights, model.biases))
        if activation == "tanh" or min(np.abs(u).min() for u in preacts) > margin:
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

    def test_negative_train_seed_rejected(self):
        with pytest.raises(InvalidDimension, match="seed must be >= 0"):
            TrainConfig(seed=-1)

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

    @pytest.mark.parametrize("hidden", [[], [5], [5, 7], [5, 9, 4]])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_encode_matches_forward(self, hidden, activation):
        # fresh, into a pass cache, and into its leading rows; a pass cache's forward too
        m = build(6, 3, hidden, activation, seed=3)
        X = np.random.default_rng(3).normal(size=(7, 6))
        cache = ForwardCache.for_pass(m, 7)
        for rows in (7, 4, 7):
            z, xhat, _ = forward(m, X[:rows])
            assert same_bits(encode(m, X[:rows]), z)
            assert same_bits(encode(m, X[:rows], out=cache), z)
            zp, xhatp, got = forward(m, X[:rows], out=cache)
            assert got is cache and same_bits(zp, z) and same_bits(xhatp, xhat)

    @pytest.mark.parametrize("hidden", [[], [5], [5, 7]])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_input_is_left_unchanged(self, hidden, activation):
        # each activation is written over its pre-activation, never over the caller's array
        m = build(6, 3, hidden, activation, seed=3)
        X = np.random.default_rng(4).normal(size=(7, 6))
        before = X.copy()
        forward(m, X)
        encode(m, X)
        forward(m, X, out=ForwardCache.for_pass(m, 7))
        encode(m, X, out=ForwardCache.for_pass(m, 7))
        assert np.array_equal(X, before)


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

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_derivatives_of_the_pre_activations_bit_for_bit(self, activation):
        m = build(5, 2, [4, 3], activation, seed=6)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 5))
        X[[1, 4]] = 0.0  # zero rows through zero biases: every pre-activation of theirs is exactly 0
        z, xhat, cache = forward(m, X)
        d_xhat, d_z = 2.0 * (xhat - X) / 8, rng.normal(size=z.shape)
        got = backward(m, cache, d_xhat, d_z)

        # reference: keep every pre-activation u and take relu' as (u > 0) in floats
        acts, preacts = [X], []
        for l in range(m.n_layers):
            u = acts[-1] @ m.weights[l] + m.biases[l]
            linear = l in (m.bottleneck, m.n_layers - 1)
            preacts.append(u)
            acts.append(u if linear else np.maximum(u, 0.0) if activation == "relu" else np.tanh(u))
        assert any((u[[1, 4]] == 0.0).all() for u in preacts)
        g, want_w, want_b = d_xhat, [None] * m.n_layers, [None] * m.n_layers
        for l in range(m.n_layers - 1, -1, -1):
            if l not in (m.bottleneck, m.n_layers - 1):
                a = acts[l + 1]
                g = g * ((preacts[l] > 0).astype(float) if activation == "relu" else 1.0 - a * a)
            want_w[l] = acts[l].T @ g
            want_b[l] = g.sum(axis=0)
            g = g @ m.weights[l].T
            if l == m.bottleneck + 1:
                g = g + d_z
        assert all(np.array_equal(a, b) for a, b in zip(got.d_weights, want_w))
        assert all(np.array_equal(a, b) for a, b in zip(got.d_biases, want_b))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bias_sums_match_np_sum_bit_for_bit(self, dtype):
        rng = np.random.default_rng(21)
        for rows in (1, 2, 7, 8, 9, 255, 256, 2000):
            for width in (1, 2, 3, 10, 33, 500):
                g = rng.normal(size=(rows, width)).astype(dtype)
                for layout in (g, np.asfortranarray(g)):  # a Fortran-ordered g keeps np.sum
                    got, want = np.empty(width, dtype), np.empty(width, dtype)
                    assert ae._column_sums(layout, out=got) is got
                    np.sum(layout, axis=0, out=want)
                    assert got.tobytes() == want.tobytes(), (rows, width)

    @pytest.mark.parametrize("dims", [(1, 1, [4]), (5, 1, [3]), (1, 2, [])])
    def test_one_wide_layers_match_np_sum_bit_for_bit(self, dims):
        # an embedding or input of one column: those layers' bias sums keep np.sum
        m = build(*dims, seed=3)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(37, dims[0]))
        _, xhat, cache = forward(m, X)
        got = backward(m, cache, 2.0 * (xhat - X) / 37)
        acts = [X]
        for l in range(m.n_layers):
            u = acts[-1] @ m.weights[l] + m.biases[l]
            acts.append(u if l in (m.bottleneck, m.n_layers - 1) else np.maximum(u, 0.0))
        g = 2.0 * (acts[-1] - X) / 37
        for l in range(m.n_layers - 1, -1, -1):
            if l not in (m.bottleneck, m.n_layers - 1):
                g = g * (acts[l + 1] > 0)
            assert got.d_biases[l].tobytes() == np.sum(g, axis=0).tobytes()
            g = g @ m.weights[l].T

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
        grads = Gradients.for_model(m)
        for d_w in grads.d_weights:
            d_w[...] = 0.01

        prev = None
        for step in range(500):
            before = m.weights[0].copy()
            adam_step(m, grads, cfg)
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


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReusedBuffers:
    """forward(out=), backward(out=) and the flat Adam step against the fresh, per-tensor calls."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("with_dz", [False, True])
    def test_out_calls_equal_fresh_calls_bit_for_bit(self, activation, with_dz):
        m = build(6, 3, [5, 4], activation, seed=11)
        rng = np.random.default_rng(11)
        cache, grads = ForwardCache.for_model(m, 8), Gradients.for_model(m)
        for rows in (8, 5, 8):  # the 5-row batch runs through leading-row views of the cache
            X = rng.normal(size=(rows, 6))
            d_z = rng.normal(size=(rows, 3)) if with_dz else None
            z, xhat, fresh = forward(m, X)
            want = backward(m, fresh, 2.0 * (xhat - X) / rows, d_z)
            zo, xhato, _ = forward(m, X, out=cache)
            assert same_bits(zo, z) and same_bits(xhato, xhat)
            got = backward(m, cache, 2.0 * (xhato - X) / rows, d_z, out=grads)
            assert got is grads
            assert all(same_bits(a, b) for a, b in zip(got.d_weights, want.d_weights))
            assert all(same_bits(a, b) for a, b in zip(got.d_biases, want.d_biases))
            # backward writes deltas over hidden activations only, never over Z or Xhat
            assert same_bits(zo, z) and same_bits(xhato, xhat)

    def test_weights_and_gradients_are_views_of_one_flat_vector(self):
        m = build(4, 2, [3], seed=0)
        assert m.theta.size == sum(w.size + b.size for w, b in zip(m.weights, m.biases))
        m.theta[:] = 7.0
        assert all((w == 7.0).all() for w in m.weights) and all((b == 7.0).all() for b in m.biases)
        g = Gradients.for_model(m)
        g.flat[:] = 3.0
        assert all((w == 3.0).all() for w in g.d_weights) and all((b == 3.0).all() for b in g.d_biases)

    def test_flat_adam_equals_per_tensor_reference_bit_for_bit(self):
        cfg = TrainConfig(learning_rate=3e-3)
        m = build(5, 2, [4, 3], "tanh", seed=21)
        ref_w = [w.copy() for w in m.weights]
        ref_b = [b.copy() for b in m.biases]
        moments = [[np.zeros_like(t), np.zeros_like(t)] for t in ref_w + ref_b]
        grads = Gradients.for_model(m)
        rng = np.random.default_rng(21)
        for step in range(1, 21):
            grads.flat[:] = rng.normal(size=grads.flat.size) * 10.0 ** rng.integers(-6, 3)
            adam_step(m, grads, cfg)
            # the per-tensor update, operation for operation
            c1, c2 = 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step
            for theta, g, (mo, v) in zip(ref_w + ref_b, grads.d_weights + grads.d_biases, moments):
                mo *= ADAM_BETA1
                mo += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * (g * g)
                theta -= cfg.learning_rate * (mo / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        assert all(same_bits(a, b) for a, b in zip(m.weights, ref_w))
        assert all(same_bits(a, b) for a, b in zip(m.biases, ref_b))

    def test_gradients_of_another_model_are_refused(self):
        m, other = build(4, 2, [3], seed=8), build(4, 2, [5], seed=8)
        theta = m.theta.copy()
        _, xhat, cache = forward(m, np.random.default_rng(8).normal(size=(5, 4)))
        with pytest.raises(DimensionMismatch):
            backward(m, cache, xhat, out=Gradients.for_model(other))
        with pytest.raises(DimensionMismatch):
            adam_step(m, Gradients.for_model(other), TrainConfig())
        assert same_bits(m.theta, theta) and m.adam.step == 0

    def test_spent_cache_raises(self):
        m = build(4, 2, [3], seed=0)
        X = np.random.default_rng(0).normal(size=(5, 4))
        cache = ForwardCache.for_model(m, 5)
        _, xhat, _ = forward(m, X, out=cache)
        backward(m, cache, xhat - X)
        with pytest.raises(StaleCache, match="spent"):
            backward(m, cache, xhat - X)
        _, xhat, _ = forward(m, X, out=cache)  # a forward refills it
        backward(m, cache, xhat - X)

    def test_pass_cache_arenas_hold_the_widest_layer_of_each_parity(self):
        # 33-200-200-800-10: arena 0 holds the 200- and 800-wide layers and their mirrors,
        # arena 1 the other 200
        m = build(33, 10, [200, 200, 800], seed=0)
        cache = ForwardCache.for_pass(m, 4)
        arenas = {id(b.base): b.base for b in cache.buffers if b.base is not None}
        assert sorted(a.size for a in arenas.values()) == [4 * 200, 4 * 800]
        assert [b.shape for b in cache.buffers if b.base is None] == [(4, 10), (4, 33)]
        for a, b in zip(cache.buffers[:-1], cache.buffers[1:]):
            assert not np.shares_memory(a, b)  # a layer's input and output

    def test_backward_refuses_a_pass_cache(self):
        m = build(4, 2, [3], seed=0)
        X = np.random.default_rng(0).normal(size=(5, 4))
        cache = ForwardCache.for_pass(m, 5)
        _, xhat, _ = forward(m, X, out=cache)
        assert cache.spent
        with pytest.raises(StaleCache, match="holds no activations for backward"):
            backward(m, cache, xhat - X)
        # encode leaves a for_model cache spent too: its encoder layers were overwritten
        cache = ForwardCache.for_model(m, 5)
        forward(m, X, out=cache)
        encode(m, X, out=cache)
        with pytest.raises(StaleCache, match="spent"):
            backward(m, cache, xhat - X)

    def test_batch_larger_than_the_cache_is_refused(self):
        m = build(4, 2, [3], seed=0)
        with pytest.raises(DimensionMismatch):
            forward(m, np.zeros((6, 4)), out=ForwardCache.for_model(m, 5))
        with pytest.raises(DimensionMismatch):
            forward(m, np.zeros((2, 4)), out=ForwardCache.for_model(build(4, 2, [5], seed=0), 5))
        with pytest.raises(DimensionMismatch):
            encode(m, np.zeros((6, 4)), out=ForwardCache.for_pass(m, 5))
        with pytest.raises(DimensionMismatch):
            encode(m, np.zeros((2, 4)), out=ForwardCache.for_pass(build(4, 2, [5], seed=0), 5))

    def test_reconstruction_loss_of_float32_is_that_of_its_float64_cast_and_writes_no_input(self):
        rng = np.random.default_rng(3)
        X, Xhat = rng.normal(size=(40, 7)), rng.normal(size=(40, 7)).astype(np.float32)
        X_before, Xhat_before = X.copy(), Xhat.copy()
        cast = Xhat.astype(float)
        want = float(((X - cast) ** 2).sum(axis=1).mean())
        assert reconstruction_loss(X, Xhat) == want
        assert reconstruction_loss(X, cast) == want
        assert np.array_equal(X, X_before) and np.array_equal(Xhat, Xhat_before)
        assert np.array_equal(cast, Xhat_before)

    def test_reset_adam_and_params_finite_act_on_the_flat_vectors(self):
        m = build(4, 2, [3], seed=0)
        grads = Gradients.for_model(m)
        grads.flat[:] = 1.0
        adam_step(m, grads, TrainConfig())
        reset_adam(m)
        assert m.adam.step == 0 and not m.adam.m.any() and not m.adam.v.any()
        assert params_finite(m)
        m.biases[-1][0] = np.nan
        assert not params_finite(m)

    def test_warm_batch_step_allocates_under_two_hidden_activations(self):
        # pretrain's step on the desk network: 33-64-64-10-64-64-33, 256-row batches
        m = build(33, 10, [64, 64], seed=0)
        X = np.random.default_rng(0).normal(size=(2000, 33))
        perm = np.random.default_rng(1).permutation(2000)
        cache, grads, cfg = ForwardCache.for_model(m, 256), Gradients.for_model(m), TrainConfig()

        def step(idx):
            xb = X[idx]
            _, xhat, _ = forward(m, xb, out=cache)
            d_xhat = np.subtract(xhat, xb, out=xhat)
            d_xhat *= 2.0
            d_xhat /= xb.shape[0]
            backward(m, cache, d_xhat, out=grads)
            adam_step(m, grads, cfg)

        step(perm[:256])
        tracemalloc.start()
        try:
            step(perm[256:512])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 256 * 64 * 8


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFullDataPassMemory:
    """Traced peaks of ``encode`` and a one-epoch ``pretrain`` against the arrays they need.

    Network 33-200-200-800-10 on 1000 rows in 256-row batches. Each bound is
    8 bytes per float times the sizes of the arrays the call must hold at
    once, plus ``SCRATCH``: one numpy ufunc buffer (``np.getbufsize()``
    floats) and 16 KiB for the interpreter's own small objects.
    """

    D, d, HIDDEN, N, BATCH = 33, 10, [200, 200, 800], 1000, 256
    SCRATCH = 8 * np.getbufsize() + 16 * 1024

    @pytest.fixture(autouse=True)
    def numpy_is_traced(self):
        if traced_peak(lambda: np.empty(1 << 20)) < 8 << 20:
            pytest.skip("tracemalloc sees no numpy buffer allocation on this Python and numpy")

    def pass_cache_bytes(self) -> int:
        # Z, Xhat, and one arena per parity of hidden layer, as wide as its widest layer
        h = self.HIDDEN
        return 8 * self.N * (self.d + self.D + max(h[0::2]) + max(h[1::2]))

    def test_encode_holds_only_its_pass_cache(self):
        m = build(self.D, self.d, self.HIDDEN, seed=0)
        X = np.random.default_rng(0).normal(size=(self.N, self.D))
        assert traced_peak(lambda: encode(m, X)) <= self.pass_cache_bytes() + self.SCRATCH
        cache = ForwardCache.for_pass(m, self.N)
        assert traced_peak(lambda: encode(m, X, out=cache)) <= self.SCRATCH

    def test_pretrain_epoch_holds_one_pass_cache_beside_its_step_buffers(self):
        # theta and Adam's moments exist before the trace starts
        m = build(self.D, self.d, self.HIDDEN, seed=0)
        spec = SyntheticSpec(self.N, self.D, 0.5, 3.0, "correlated", 0.0, seed=0)
        ds, _ = standardize(generate_synthetic(spec))
        widths = m.layer_dims[1:]
        bound = (
            m.theta.nbytes                       # gradients
            + 8 * self.BATCH * sum(widths)       # the batch cache
            + 2 * 8 * self.BATCH * max(widths)   # backward's dL/da, at most two alive at once
            + 8 * self.BATCH * self.D            # the batch's rows of X
            + 8 * self.N                         # the epoch's permutation, then the per-row losses
            + self.pass_cache_bytes()
            + self.SCRATCH
        )
        cfg = TrainConfig(epochs=1, batch_size=self.BATCH, seed=0)
        assert traced_peak(lambda: pretrain(m, ds, cfg)) <= bound

    def training_loop_bound(self, m) -> int:
        # one training_buffers buffer: the pass cache's arenas, or the batch cache and the
        # gradients, whichever is larger; Z and Xhat of the pass cache beside it
        h, widths = self.HIDDEN, m.layer_dims[1:]
        arenas = 8 * self.N * (max(h[0::2]) + max(h[1::2]))
        return (
            max(arenas, 8 * self.BATCH * sum(widths) + m.theta.nbytes)
            + 8 * self.N * (self.d + self.D)     # Z and Xhat
            + 2 * 8 * self.BATCH * max(widths)   # backward's dL/da, at most two alive at once
            + 8 * self.BATCH * self.D            # the batch's rows of X
            + 8 * self.N                         # the epoch's permutation, then the per-row losses
            + self.SCRATCH
        )

    def test_pretrain_epoch_holds_one_training_buffer(self):
        m = build(self.D, self.d, self.HIDDEN, seed=0)
        spec = SyntheticSpec(self.N, self.D, 0.5, 3.0, "correlated", 0.0, seed=0)
        ds, _ = standardize(generate_synthetic(spec))
        cfg = TrainConfig(epochs=1, batch_size=self.BATCH, seed=0)
        assert traced_peak(lambda: pretrain(m, ds, cfg)) <= self.training_loop_bound(m)

    @pytest.mark.parametrize("variant", ["student_t", "gaussian"])
    def test_finetune_epoch_holds_one_training_buffer(self, variant):
        k = 2
        m = build(self.D, self.d, self.HIDDEN, seed=0)
        spec = SyntheticSpec(self.N, self.D, 0.5, 3.0, "correlated", 0.0, seed=0)
        ds, _ = standardize(generate_synthetic(spec))
        train = TrainConfig(epochs=1, batch_size=self.BATCH, seed=0)
        pretrain(m, ds, train)
        cfg = dc.DeepClusterConfig(variant=variant, finetune_epochs=1, train=train)
        bound = (
            self.training_loop_bound(m)
            + 8 * self.N * 2 * self.d            # the head's Z, and one temporary as wide
            + 8 * self.N * 4 * k                 # S, T, log S, and one temporary as wide
        )
        assert traced_peak(lambda: dc.finetune(m, ds, k, cfg)) <= bound


class TestTrainingBuffers:
    """``pretrain`` and ``finetune`` take their pass cache's arenas, their batch cache and their
    gradients from one ``training_buffers`` buffer; 5 inputs, d = 2, 300 rows."""

    N = 300
    # (hidden, batch_size, whether the batch cache and the gradients set the buffer's size)
    SHAPES = [
        ([8, 6], 16, False),   # the arenas, 300 x (8 + 6), outgrow 16 x 35 + 235
        ([], 16, True),        # no hidden layer, so no arenas
        ([8, 6], 1000, True),  # a batch larger than the cohort takes all 300 rows
    ]

    @pytest.mark.parametrize("hidden, batch_size, step_sets_size", SHAPES)
    def test_buffer_is_the_larger_of_the_pass_and_the_step(self, hidden, batch_size, step_sets_size):
        m = build(5, 2, hidden, seed=0, dtype="float32")
        batch_rows = min(batch_size, self.N)
        full, cache, grads = training_buffers(m, self.N, batch_rows)
        buffer = grads.flat.base
        step = batch_rows * sum(m.layer_dims[1:]) + m.theta.size
        arenas = self.N * sum(hidden[:2])
        assert buffer.dtype == m.dtype and buffer.size == max(step, arenas)
        assert (buffer.size == step) == step_sets_size
        # the batch cache's layers and the gradients lie end to end; Z and Xhat of the pass own theirs
        step_arrays = cache.buffers + [grads.flat]
        assert all(b.base is buffer for b in step_arrays)
        for i, a in enumerate(step_arrays):
            assert not any(np.shares_memory(a, b) for b in step_arrays[i + 1 :])
        z, xhat = full.buffers[m.bottleneck], full.buffers[-1]
        assert not np.shares_memory(z, buffer) and not np.shares_memory(xhat, buffer)
        assert all(b.base is buffer for b in full.buffers if b is not z and b is not xhat)

    @staticmethod
    def train(hidden, batch_size, variant):
        spec = SyntheticSpec(300, 5, 0.5, 3.0, "correlated", 0.0, seed=4)
        ds, _ = standardize(generate_synthetic(spec))
        m = build(5, 2, hidden, "tanh", seed=4, dtype="float32")
        train = TrainConfig(epochs=2, batch_size=batch_size, seed=4)
        _, history = pretrain(m, ds, train)
        cfg = dc.DeepClusterConfig(variant, finetune_epochs=3, target_update_interval=2, train=train)
        dcm = dc.finetune(m, ds, 2, cfg)
        return m.theta.tobytes(), history, dcm.history

    @pytest.mark.parametrize("variant", ["student_t", "gaussian"])
    @pytest.mark.parametrize("hidden, batch_size, step_sets_size", SHAPES)
    def test_a_nan_filled_buffer_trains_as_separate_buffers_do(
        self, monkeypatch, variant, hidden, batch_size, step_sets_size
    ):
        def separate(model, rows, batch_rows):
            full = ForwardCache.for_pass(model, rows)
            return full, ForwardCache.for_model(model, batch_rows), Gradients.for_model(model)

        with monkeypatch.context() as patch:
            for module in (ae, dc):
                patch.setattr(module, "training_buffers", separate)
            want = self.train(hidden, batch_size, variant)

        # every forward and encode, the start of each step and of each full-data pass,
        # finds the loop's buffer filled with NaN
        buffers = []

        def shared(model, rows, batch_rows):
            full, cache, grads = training_buffers(model, rows, batch_rows)
            buffers.append(grads.flat.base)
            return full, cache, grads

        def nan_first(fn):
            def call(*args, **kwargs):
                buffers[-1].fill(np.nan)
                return fn(*args, **kwargs)
            return call

        for module in (ae, dc):
            monkeypatch.setattr(module, "training_buffers", shared)
            monkeypatch.setattr(module, "forward", nan_first(module.forward))
            monkeypatch.setattr(module, "encode", nan_first(module.encode))
        got = self.train(hidden, batch_size, variant)
        assert len(buffers) == 2
        assert got[0] == want[0]
        assert all(same_bits(np.asarray(a), np.asarray(b)) for a, b in zip(got[1:], want[1:]))


class TestEncodeReuse:
    """``encode`` of the array the model's last pass-cache pass read, at the same version,
    reuses that pass's Z instead of running a layer."""

    N = 40

    @pytest.fixture
    def layer_runs(self, monkeypatch):
        # the number of layers of every pass through the layer loop, in call order
        runs = []
        run_layers = ae._run_layers

        def spy(model, batch, out, new_cache, layers):
            runs.append(layers)
            return run_layers(model, batch, out, new_cache, layers)

        monkeypatch.setattr(ae, "_run_layers", spy)
        return runs

    def model_and_pass(self, hidden=(5, 7), activation="relu"):
        # a model, its input, and the pass cache its full-data forward just wrote
        m = build(6, 3, list(hidden), activation, seed=3)
        X = np.random.default_rng(3).normal(size=(self.N, 6))
        full = ForwardCache.for_pass(m, self.N)
        forward(m, X, out=full)
        return m, X, full

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(), (5, 7)])
    def test_reused_z_equals_a_fresh_computation_bit_for_bit(self, layer_runs, activation, hidden):
        m, X, full = self.model_and_pass(hidden, activation)
        fresh = encode(m, X.copy())
        del layer_runs[:]
        other = ForwardCache.for_pass(m, self.N)
        for z in (encode(m, X), encode(m, X, out=full), encode(m, X, out=other)):
            assert same_bits(z, fresh)
        assert layer_runs == []

    def test_an_adam_step_between_makes_it_compute(self, layer_runs):
        m, X, full = self.model_and_pass()
        before = encode(m, X)
        grads = Gradients.for_model(m)
        grads.flat[:] = 1.0
        adam_step(m, grads, TrainConfig())
        del layer_runs[:]
        z = encode(m, X, out=full)
        assert layer_runs == [m.bottleneck + 1]
        assert same_bits(z, encode(m, X.copy())) and not np.array_equal(z, before)

    def test_an_equal_array_of_another_identity_computes(self, layer_runs):
        m, X, _ = self.model_and_pass()
        del layer_runs[:]
        encode(m, X.copy())
        assert layer_runs == [m.bottleneck + 1]

    def test_a_hit_without_out_is_the_callers_to_write(self):
        m, X, full = self.model_and_pass()
        want = full.buffers[m.bottleneck].copy()
        z = encode(m, X)
        assert not np.shares_memory(z, full.buffers[m.bottleneck])
        z[...] = 99.0
        assert same_bits(encode(m, X), want)

    def test_a_hit_with_out_is_a_view_into_out(self, layer_runs):
        m, X, full = self.model_and_pass()
        other, batch = ForwardCache.for_pass(m, self.N), ForwardCache.for_model(m, self.N)
        forward(m, X, out=batch)  # leaves batch what backward reads, until the encode copies Z in
        del layer_runs[:]
        for cache in (full, other, batch):
            z = encode(m, X, out=cache)
            assert z.base is cache.buffers[m.bottleneck] and cache.spent
        assert layer_runs == []
        with pytest.raises(StaleCache):
            backward(m, batch, np.zeros((self.N, 6)))
        with pytest.raises(DimensionMismatch):
            encode(m, X, out=ForwardCache.for_pass(m, self.N - 1))

    def test_batch_forwards_and_fresh_encodes_record_nothing(self, layer_runs):
        m = build(6, 3, [5, 7], seed=3)
        X = np.random.default_rng(3).normal(size=(self.N, 6))
        forward(m, X, out=ForwardCache.for_model(m, self.N))
        forward(m, X)
        encode(m, X)
        assert m.last_pass[1] is None
        del layer_runs[:]
        encode(m, X)
        assert layer_runs == [m.bottleneck + 1]


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


class TestDtype:
    def test_a_float32_model_computes_in_float32_throughout(self):
        model = build(6, 2, [8, 4], seed=0, dtype="float32")
        X = np.random.default_rng(0).normal(size=(10, 6))  # float64, cast on entry
        cache, grads = ForwardCache.for_model(model, 10), Gradients.for_model(model)
        Z, Xhat, _ = forward(model, X, out=cache)
        # before backward writes its deltas over the hidden activations
        assert [a.dtype for a in cache.activations] == [np.float32] * (model.n_layers + 1)
        backward(model, cache, Xhat - X, np.ones(Z.shape), out=grads)  # float64 upstream gradients
        adam_step(model, grads, TrainConfig())
        arrays = [model.theta, model.adam.m, model.adam.v, model.adam.scratch, grads.flat]
        assert [a.dtype for a in arrays + cache.buffers] == [np.float32] * (len(arrays) + len(cache.buffers))
        full = ForwardCache.for_pass(model, 10)
        assert encode(model, X).dtype == encode(model, X, out=full).dtype == np.float32
        assert {b.dtype for b in full.buffers} == {np.dtype(np.float32)}

    def test_float32_gradients_match_float64_of_the_same_theta(self):
        m32 = build(6, 3, [16, 8], "tanh", seed=1, dtype="float32")
        m64 = build(6, 3, [16, 8], "tanh", seed=1)
        m64.theta[...] = m32.theta
        rng = np.random.default_rng(2)
        X, dZ = rng.normal(size=(32, 6)), rng.normal(size=(32, 3))
        flat = {}
        for model in (m32, m64):
            _, Xhat, cache = forward(model, X)
            flat[model.dtype] = backward(model, cache, 2.0 * (Xhat - X) / 32, dZ).flat
        g32, g64 = flat[np.dtype(np.float32)], flat[np.dtype(np.float64)]
        assert np.linalg.norm(g32 - g64) <= 1e-4 * np.linalg.norm(g64)
        np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-4 * np.abs(g64).max())

    def test_each_profile_builds_its_dtype_and_the_embedding_is_float64(self, monkeypatch):
        import ehrcluster.ensemble as ensemble
        import ehrcluster.experiment as experiment
        from ehrcluster.deepcluster import DeepClusterConfig
        from ehrcluster.experiment import PROFILES, MethodSpec, run_method
        from test_acceptance import _kink_safe_instance

        built = []
        for module in (experiment, ensemble):
            monkeypatch.setattr(module, "build", lambda *a, **kw: built.append(build(*a, **kw)) or built[-1])
        ds = small_training_set(40)
        params = {"hidden": (8,), "embed_dim": 2, "pretrain_epochs": 2}
        for profile in ("desk", "paper"):
            result = run_method(MethodSpec("m", "kmeans_z", params), ds, 2, 0, PROFILES[profile])
            assert result.embedding.dtype == np.float64
            assert all(np.isfinite(result.pretrain_history))
        assert [m.dtype for m in built] == [np.float32, np.float32]
        assert experiment.NETWORK_DTYPE == ensemble.NETWORK_DTYPE == "float32"
        # build's own default stays float64
        assert build(6, 2, [4]).dtype == np.float64
        # the library sweep is the grid's sweep, so it builds what a cell builds
        built.clear()
        config = DeepClusterConfig(variant="gaussian", finetune_epochs=1, train=TrainConfig(epochs=1, seed=0))
        ensemble.run_dimension_sweep(ds, [1, 2], config, hidden=(8,))
        assert [m.dtype for m in built] == [np.float32, np.float32]
        # so criterion 3's finite-difference checks keep full precision
        for hidden, activation, variant in [([], "relu", "student_t"), ([4, 6], "tanh", "gaussian")]:
            model, X, _ = _kink_safe_instance(hidden, activation, variant, 300)
            assert model.dtype == X.dtype == np.float64
