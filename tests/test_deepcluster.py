import copy

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ehrcluster.autoencoder import TrainConfig, build, encode, pretrain
from ehrcluster.data import SyntheticSpec, generate_synthetic
from ehrcluster.deepcluster import (
    DeepClusterConfig,
    _reseed_collapsed,
    assign,
    clustering_gradients,
    finetune,
    init_clusters,
    joint_loss,
    kl_loss,
    soft_assign,
    soft_assign_gaussian,
    soft_assign_student_t,
    target_distribution,
)
from ehrcluster.errors import DimensionMismatch, InvalidDimension
from ehrcluster.metrics import acc
from ehrcluster.traditional import GmmModel, gmm_fit, gmm_predict, kmeans_fit, kmeans_predict

row_strategy = arrays(
    float, (4, 3),
    elements=st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False),
)


def normalize_rows(m):
    return m / m.sum(axis=1, keepdims=True)


class TestSoftAssignStudentT:
    def test_equidistant_row(self):
        mu = np.array([[-1.0, 0.0], [1.0, 0.0]])
        s = soft_assign_student_t(np.array([[0.0, 5.0]]), mu)
        assert s[0, 0] == s[0, 1] == 0.5

    def test_kernel_values_at_center(self):
        # distance 0 to mu0 and squared distance 3 to mu1:
        # q = (1, 1/4), normalized (0.8, 0.2)
        mu = np.array([[0.0, 0.0], [np.sqrt(3.0), 0.0]])
        s = soft_assign_student_t(np.array([[0.0, 0.0]]), mu)
        assert s[0] == pytest.approx([0.8, 0.2], abs=1e-12)

    @given(arrays(float, (5, 2), elements=st.floats(-3, 3)))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, Z):
        mu = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        s = soft_assign_student_t(Z, mu)
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-9
        assert (s > 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            soft_assign_student_t(np.zeros((2, 3)), np.zeros((2, 2)))


class TestSoftAssignGaussian:
    def symmetric_mixture(self):
        return GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0, 0.0], [1.0, 0.0]]),
            covariances=np.array([np.eye(2), np.eye(2)]),
        )

    def test_midpoint_symmetry(self):
        s = soft_assign_gaussian(np.array([[0.0, 0.0]]), self.symmetric_mixture())
        assert s[0, 0] == s[0, 1]
        assert s[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_confident_at_center(self):
        mixture = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [10.0, 0.0]]),
            covariances=np.array([np.eye(2), np.eye(2)]),
        )
        s = soft_assign_gaussian(np.array([[0.0, 0.0]]), mixture)
        assert s[0, 0] > 0.99

    def test_shared_sigma_scaling_keeps_argmax(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(20, 3))
        mu = rng.normal(size=(2, 3))
        base = np.eye(3)
        for scale in (0.5, 1.0, 4.0):
            mixture = GmmModel(
                weights=np.array([0.5, 0.5]),
                means=mu,
                covariances=np.array([scale * base, scale * base]),
            )
            s = soft_assign_gaussian(Z, mixture)
            if scale == 0.5:
                ref = s.argmax(axis=1)
            else:
                assert np.array_equal(s.argmax(axis=1), ref)


class TestTargetDistribution:
    def test_single_row_fixed_point(self):
        T = target_distribution(np.array([[0.8, 0.2]]))
        assert T[0] == pytest.approx([0.8, 0.2], abs=1e-12)

    def test_uniform_fixed_point(self):
        S = np.full((6, 3), 1 / 3)
        assert target_distribution(S) == pytest.approx(S, abs=1e-12)

    def test_two_row_hand_values(self):
        # S = [[.9,.1],[.6,.4]]; f = (1.5, .5)
        # row 1: (.54, .02) -> (27/28, 1/28); row 2: (.24, .32) -> (3/7, 4/7)
        S = np.array([[0.9, 0.1], [0.6, 0.4]])
        T = target_distribution(S)
        assert np.abs(T.sum(axis=1) - 1.0).max() < 1e-9
        assert T[0] == pytest.approx([27 / 28, 1 / 28], abs=1e-12)
        assert T[1] == pytest.approx([3 / 7, 4 / 7], abs=1e-12)
        # the frequency division pulls row 2 toward the rarer cluster
        assert T[1, 1] > S[1, 1]

    @given(row_strategy)
    @settings(max_examples=40, deadline=None)
    def test_rows_stochastic(self, raw):
        T = target_distribution(normalize_rows(raw))
        assert np.abs(T.sum(axis=1) - 1.0).max() < 1e-9

    @given(row_strategy)
    @settings(max_examples=40, deadline=None)
    def test_sharpens_under_equal_frequencies(self, raw):
        S = normalize_rows(raw)
        # stacking all cyclic column shifts puts each original column in
        # every position once, so the cluster frequencies come out equal
        S = np.vstack([S, S[:, [1, 2, 0]], S[:, [2, 0, 1]]])
        T = target_distribution(S)
        assert (T.max(axis=1) >= S.max(axis=1) - 1e-12).all()


class TestKlLoss:
    def test_identity_zero(self):
        S = normalize_rows(np.random.default_rng(0).uniform(0.1, 1, (5, 3)))
        assert abs(kl_loss(S, np.log(S))) < 1e-12

    def test_ln_two(self):
        assert kl_loss([[1.0, 0.0]], np.log([[0.5, 0.5]])) == pytest.approx(np.log(2), abs=1e-12)

    def test_zero_entry_convention(self):
        assert np.isfinite(kl_loss([[0.0, 1.0]], np.log([[0.3, 0.7]])))

    def test_finite_where_s_underflows(self):
        # S = exp(log_S) is exactly 0 where T > 0; the loss is still 1e-300 * (800 + log 1e-300)
        T = [[1 - 1e-300, 1e-300]]
        with np.errstate(all="raise"):
            loss = kl_loss(T, [[0.0, -800.0]])
        assert np.isfinite(loss) and loss > 0

    @given(row_strategy, row_strategy)
    @settings(max_examples=40, deadline=None)
    def test_gibbs_inequality(self, a, b):
        T, S = normalize_rows(a), normalize_rows(b)
        assert kl_loss(T, np.log(S)) >= -1e-12


class TestJointLoss:
    def test_gamma_zero_equals_reconstruction(self):
        rng = np.random.default_rng(0)
        X, Xhat = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        T = normalize_rows(rng.uniform(0.1, 1, (4, 2)))
        S = normalize_rows(rng.uniform(0.1, 1, (4, 2)))
        from ehrcluster.autoencoder import reconstruction_loss

        assert joint_loss(X, Xhat, T, np.log(S), 0.0) == reconstruction_loss(X, Xhat)

    def test_identity_zero(self):
        X = np.ones((3, 2))
        S = normalize_rows(np.random.default_rng(1).uniform(0.1, 1, (3, 2)))
        assert joint_loss(X, X, S, np.log(S), 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_arithmetic(self):
        # recon 1.0, per-sample-mean kl 0.5, gamma 0.1 -> 1.05
        X, Xhat = np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])
        s00 = np.exp(-0.5)
        T, S = np.array([[1.0, 0.0]]), np.array([[s00, 1 - s00]])
        assert joint_loss(X, Xhat, T, np.log(S), 0.1) == pytest.approx(1.05, abs=1e-12)


class TestInitClusters:
    def test_exact_point_clusters(self):
        Z = np.array([[0.0, 0.0]] * 4 + [[6.0, 6.0]] * 4)
        head = init_clusters(Z, 2, "student_t", seed=0)
        assert {tuple(m) for m in head} == {(0.0, 0.0), (6.0, 6.0)}
        assert not isinstance(head, GmmModel)

    def test_gaussian_covariance_close_to_truth(self):
        ds = generate_synthetic(SyntheticSpec(1500, 3, 1.0, 10.0, "spherical", 0.0, seed=4))
        head = init_clusters(ds.X, 2, "gaussian", seed=0)
        for j in range(2):
            err = np.linalg.norm(head.covariances[j] - np.eye(3)) / np.linalg.norm(np.eye(3))
            assert err < 0.2

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(60, 4))
        a = init_clusters(Z, 3, "gaussian", seed=5)
        b = init_clusters(Z, 3, "gaussian", seed=5)
        assert np.array_equal(a.means, b.means) and np.array_equal(a.covariances, b.covariances)

    def test_gaussian_factors_only_in_its_gmm_fit(self, monkeypatch):
        # the initial head is gmm_fit's model, so no covariance is factored a second time
        Z = np.random.default_rng(2).normal(size=(60, 4))
        cholesky = np.linalg.cholesky
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        gmm_fit(Z, 3, cov_type="full", seed=5)
        fit_calls = len(calls)
        init_clusters(Z, 3, "gaussian", seed=5)
        assert len(calls) - fit_calls == fit_calls > 0


class TestClusteringGradients:
    @pytest.mark.parametrize("variant", ["student_t", "gaussian"])
    def test_matches_finite_differences(self, variant):
        # a T decoupled from the current S keeps the gradients O(1), well
        # above finite-difference roundoff
        rng = np.random.default_rng(3)
        M, d, K = 6, 3, 2
        Z0 = rng.normal(size=(M, d))
        if variant == "student_t":
            head = centers = rng.normal(size=(K, d))
        else:
            A = rng.normal(size=(K, d, d)) * 0.2
            sigma = np.einsum("kij,klj->kil", A, A) + 0.5 * np.eye(d)
            head = GmmModel(np.array([0.3, 0.7]), rng.normal(size=(K, d)), sigma)
            # the model holds its means without copying, and its factors do not read
            # them, so perturbing them in place moves the soft assignment
            centers = head.means
        T = normalize_rows(rng.uniform(0.05, 1.0, size=(M, K)))

        def loss():
            return kl_loss(T, np.log(soft_assign(Z0, head))) / M

        dZ, dMu = clustering_gradients(Z0, head, T)
        h = 1e-6
        for arr, grad in ((Z0, dZ), (centers, dMu)):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss()
                flat[i] = orig - h
                lm = loss()
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(gflat[i]), 1e-6)
                assert abs(fd - gflat[i]) / denom < 1e-4

    def test_diagonal_mixture_head_is_refused(self):
        Z = np.random.default_rng(0).normal(size=(40, 3))
        head = gmm_fit(Z, 2, cov_type="diagonal", seed=0)
        with pytest.raises(InvalidDimension, match="full covariances"):
            clustering_gradients(Z, head, soft_assign(Z, head))


def pretrained_on_blobs(blobs, seed=9):
    cfg = TrainConfig(epochs=100, batch_size=128, seed=seed)
    model = build(blobs.n_features, 4, (16,), "relu", seed=seed)
    model, _ = pretrain(model, blobs, cfg)
    return model, cfg


class TestFinetune:
    def base_config(self, seed=9, **overrides):
        cfg = DeepClusterConfig(
            variant="student_t", gamma=0.1, finetune_epochs=100,
            train=TrainConfig(epochs=100, batch_size=128, seed=seed),
        )
        return replace(cfg, **overrides) if overrides else cfg

    def test_gamma_zero_is_hybrid_kmeans(self, blobs):
        model, _ = pretrained_on_blobs(blobs)
        Z = encode(model, blobs.X)
        km = kmeans_fit(Z, 2, seed=77)
        dcm = finetune(model, blobs, 2, self.base_config(gamma=0.0, train=TrainConfig(seed=77)))
        assert np.array_equal(assign(dcm, blobs.X), kmeans_predict(km, Z))
        assert dcm.history == []

    def test_gamma_zero_is_hybrid_gmm(self, blobs):
        model, _ = pretrained_on_blobs(blobs)
        Z = encode(model, blobs.X)
        gm = gmm_fit(Z, 2, seed=77)
        dcm = finetune(
            model, blobs, 2,
            self.base_config(variant="gaussian", gamma=0.0, train=TrainConfig(seed=77)),
        )
        hybrid, _ = gmm_predict(gm, Z)
        assert np.array_equal(assign(dcm, blobs.X), hybrid)

    def test_student_t_blobs_high_accuracy(self, blobs):
        model, _ = pretrained_on_blobs(blobs)
        dcm = finetune(model, blobs, 2, self.base_config())
        assert acc(blobs.labels, assign(dcm, blobs.X)) >= 0.95

    def test_deterministic_end_to_end(self, blobs):
        labels = []
        for _ in range(2):
            model, _ = pretrained_on_blobs(blobs)
            dcm = finetune(model, blobs, 2, self.base_config(finetune_epochs=12))
            labels.append(assign(dcm, blobs.X))
        assert np.array_equal(labels[0], labels[1])

    def test_histories_recorded(self, blobs):
        model, _ = pretrained_on_blobs(blobs)
        dcm = finetune(model, blobs, 2, self.base_config(finetune_epochs=8, variant="gaussian"))
        assert len(dcm.history) == 8 and all(len(losses) == 3 for losses in dcm.history)
        assert all(np.isfinite(joint) for _, _, joint in dcm.history)

    def test_gaussian_factors_no_covariance_per_batch(self, blobs, monkeypatch):
        # the mixture is factored at its fit, at each refresh and at each reseed,
        # so 50 batches per epoch factor no more often than 7 do
        model, _ = pretrained_on_blobs(blobs)
        cholesky = np.linalg.cholesky
        counts = []
        for batch_size in (8, 64):
            calls = []
            monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
            cfg = self.base_config(
                variant="gaussian", finetune_epochs=4, target_update_interval=2,
                train=TrainConfig(batch_size=batch_size, seed=9),
            )
            dcm = finetune(copy.deepcopy(model), blobs, 2, cfg)
            assert dcm.collapse_events == []
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_config_validation(self):
        with pytest.raises(InvalidDimension):
            DeepClusterConfig(variant="banana")
        with pytest.raises(InvalidDimension):
            DeepClusterConfig(gamma=-0.1)


class TestCollapseReseed:
    def test_dead_cluster_moved_to_least_confident_point(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(40, 2))
        # second center far away from every sample: soft mass ~ 0
        centers = np.array([[0.0, 0.0], [1e6, 1e6]])
        S = soft_assign(Z, centers)
        assert S.sum(axis=0)[1] < 1.0
        events = []
        head, S = _reseed_collapsed(Z, centers, S, epoch=3, events=events)
        assert events and events[0][0] == 3 and events[0][1] == 1
        assert (S.sum(axis=0) >= 1.0).all()
        assert any(np.array_equal(head[1], z) for z in Z)
        # the given centers are left as they were
        assert np.array_equal(centers, [[0.0, 0.0], [1e6, 1e6]])

    def test_gaussian_reseed_leaves_no_stale_factor(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(40, 2))
        sigma, pi = np.array([np.eye(2), np.eye(2)]), np.array([0.5, 0.5])
        head = GmmModel(pi, np.array([[0.0, 0.0], [1e3, 1e3]]), sigma)
        S = soft_assign(Z, head)
        events = []
        head, S = _reseed_collapsed(Z, head, S, epoch=0, events=events)
        assert events == [(0, 1)]
        fresh = GmmModel(head.weights.copy(), head.means.copy(), head.covariances.copy())
        assert np.array_equal(soft_assign(Z, head), soft_assign(Z, fresh))
        assert np.array_equal(S, soft_assign(Z, fresh))
        # the given covariances and weights are left as they were
        assert np.array_equal(sigma, [np.eye(2), np.eye(2)]) and np.array_equal(pi, [0.5, 0.5])


class TestAssign:
    def test_fit_time_consistency(self, blobs):
        model, _ = pretrained_on_blobs(blobs)
        dcm = finetune(model, blobs, 2, DeepClusterConfig(
            variant="gaussian", gamma=0.1, finetune_epochs=10,
            train=TrainConfig(batch_size=128, seed=9),
        ))
        Z = encode(dcm.network, blobs.X)
        fit_time = soft_assign(Z, dcm.params).argmax(axis=1)
        assert np.array_equal(assign(dcm, blobs.X), fit_time)

    def test_point_at_center_gets_its_label(self):
        model = build(3, 2, [], seed=0)
        centers = np.array([[0.0, 0.0], [4.0, 4.0]])
        from ehrcluster.deepcluster import DeepClusterModel

        dcm = DeepClusterModel(model, centers)
        # craft an input that encodes exactly onto mu_1
        W = model.weights[0]
        x = np.linalg.lstsq(W.T, centers[1], rcond=None)[0]
        assert assign(dcm, x[None, :])[0] == 1

    def test_duplicate_rows_same_label(self, blobs):
        model, _ = pretrained_on_blobs(blobs)
        dcm = finetune(model, blobs, 2, DeepClusterConfig(
            variant="student_t", gamma=0.1, finetune_epochs=5,
            train=TrainConfig(batch_size=128, seed=9),
        ))
        x = blobs.X[:1]
        doubled = np.vstack([x, x])
        labels = assign(dcm, doubled)
        assert labels[0] == labels[1]
