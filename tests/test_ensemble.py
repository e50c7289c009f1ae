import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ehrcluster.autoencoder import TrainConfig
from ehrcluster.data import SyntheticSpec, generate_synthetic, standardize
from ehrcluster.deepcluster import DeepClusterConfig
from ehrcluster.ensemble import (
    align_labels,
    dimension_ensemble,
    majority_vote,
    run_dimension_sweep,
    sweep_dims,
)
from ehrcluster.errors import EmptyRuns, LengthMismatch, UnsupportedK

binary_labels = arrays(int, st.integers(4, 20), elements=st.integers(0, 1))


def agreement(a, b):
    return int((np.asarray(a) == np.asarray(b)).sum())


class TestAlignLabels:
    def test_flip(self):
        got = align_labels([0, 0, 1, 1], [1, 1, 0, 0])
        assert np.array_equal(got, [0, 0, 1, 1])

    def test_identity(self):
        got = align_labels([0, 0, 1, 1], [0, 0, 1, 1])
        assert np.array_equal(got, [0, 0, 1, 1])

    def test_full_tie_keeps_candidate(self):
        # both 2-permutations agree on exactly 2 samples; the lexicographic
        # tie-break keeps the identity mapping
        got = align_labels([0, 0, 1, 1], [0, 1, 0, 1])
        assert np.array_equal(got, [0, 1, 0, 1])

    def test_three_cluster_rotation(self):
        ref = np.array([0, 0, 1, 1, 2, 2])
        cand = np.array([1, 1, 2, 2, 0, 0])
        assert np.array_equal(align_labels(ref, cand), ref)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            align_labels([0, 1], [0, 1, 1])

    @given(binary_labels, st.data())
    @settings(max_examples=50, deadline=None)
    def test_agreement_never_decreases(self, ref, data):
        cand = data.draw(arrays(int, len(ref), elements=st.integers(0, 1)))
        aligned = align_labels(ref, cand)
        assert agreement(ref, aligned) >= agreement(ref, cand)

    @given(binary_labels, st.data())
    @settings(max_examples=50, deadline=None)
    def test_binary_alignment_is_pure_relabeling(self, ref, data):
        cand = data.draw(arrays(int, len(ref), elements=st.integers(0, 1)))
        aligned = align_labels(ref, cand)
        # only a permutation was applied: identity or the full flip, whose
        # second application restores the original labels (involution)
        assert np.array_equal(aligned, cand) or np.array_equal(aligned, 1 - cand)
        # an aligned candidate is already optimal, so re-aligning is a no-op
        assert np.array_equal(align_labels(ref, aligned), aligned)


class TestDimensionEnsemble:
    def test_majority_votes(self):
        runs = np.array([
            [1, 1, 0, 0],
            [1, 0, 0, 1],
            [0, 1, 0, 1],
        ])
        # per-sample averages: 2/3, 2/3, 0, 2/3
        assert np.array_equal(dimension_ensemble(runs), [1, 1, 0, 1])

    def test_inclusive_threshold_tie_goes_to_one(self):
        runs = np.array([[1, 0, 1], [0, 0, 1]])
        # sample 0 averages exactly 0.5 -> 1
        assert np.array_equal(dimension_ensemble(runs), [1, 0, 1])

    def test_identical_runs_identity(self):
        run = np.array([0, 1, 1, 0, 1])
        assert np.array_equal(dimension_ensemble([run, run, run]), run)

    def test_flipped_run_is_aligned_first(self):
        base = np.array([0, 0, 0, 1, 1, 1])
        flipped = 1 - base
        assert np.array_equal(dimension_ensemble([base, flipped, base]), base)

    def test_order_invariant_in_agreement_regime(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 2, size=30)
        runs = [base.copy() for _ in range(5)]
        for i, run in enumerate(runs[1:], start=1):
            idx = rng.choice(30, size=4, replace=False)
            run[idx] = 1 - run[idx]
        runs[2] = 1 - runs[2]  # plus a polarity flip alignment must undo
        expected = dimension_ensemble(runs)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(runs))
            got = dimension_ensemble([runs[i] for i in perm])
            assert np.array_equal(got, expected)

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedK):
            dimension_ensemble(np.array([[0, 1, 2]]))

    def test_empty_runs(self):
        with pytest.raises(EmptyRuns):
            dimension_ensemble([])

    def test_ragged_runs(self):
        with pytest.raises(LengthMismatch):
            dimension_ensemble([np.array([0, 1]), np.array([0, 1, 1])])


class TestMajorityVote:
    def test_two_to_one(self):
        # sample 5 collects votes (1, 1, 0); the strict majority wins
        voters = np.array([
            [0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1, 0],
        ])
        assert np.array_equal(majority_vote(voters), [0, 0, 0, 1, 1, 1])

    def test_disjoint_error_sets_recover_truth(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 2, size=30)
        voters = []
        for k in range(3):
            v = truth.copy()
            idx = np.arange(10 * k, 10 * k + 3)  # pairwise-disjoint error sets
            v[idx] = 1 - v[idx]
            voters.append(v)
        assert np.array_equal(majority_vote(voters), truth)

    def test_single_voter_identity(self):
        v = np.array([0, 1, 0, 1, 1])
        assert np.array_equal(majority_vote([v]), v)

    @given(binary_labels)
    @settings(max_examples=40, deadline=None)
    def test_triple_identity(self, v):
        assert np.array_equal(majority_vote([v, v, v]), v)


class TestSweepDims:
    def test_full_ehr_span(self):
        dims = sweep_dims(33)
        assert dims == [2, 5, 8, 11, 14, 17, 20, 23, 26, 29, 32]
        assert len(dims) == 11

    def test_small_feature_count(self):
        assert sweep_dims(6) == [2, 5]


@pytest.fixture(scope="module")
def tiny_cohort():
    ds = generate_synthetic(SyntheticSpec(150, 6, 1.0, 6.0, "spherical", 0.0, seed=12))
    ds, _ = standardize(ds)
    return ds


def tiny_config(seed=3):
    return DeepClusterConfig(
        variant="gaussian", gamma=0.1, embed_dim=2, finetune_epochs=6,
        target_update_interval=3, hidden=(8,),
        train=TrainConfig(epochs=10, batch_size=64, seed=seed),
    )


class TestRunDimensionSweep:
    def test_deterministic_label_matrix(self, tiny_cohort):
        a = run_dimension_sweep(tiny_cohort, [2, 3], tiny_config())
        b = run_dimension_sweep(tiny_cohort, [2, 3], tiny_config())
        assert a.shape == (2, tiny_cohort.n_samples)
        assert np.array_equal(a, b)

    def test_single_dim_matches_direct_pipeline(self, tiny_cohort):
        from ehrcluster.autoencoder import build, pretrain
        from ehrcluster.deepcluster import assign, finetune
        from ehrcluster.util import derive_seed

        cfg = tiny_config()
        runs = run_dimension_sweep(tiny_cohort, [3], cfg)

        seed_d = derive_seed(cfg.train.seed, 3)
        direct_cfg = replace(cfg, embed_dim=3, train=replace(cfg.train, seed=seed_d))
        model = build(tiny_cohort.n_features, 3, cfg.hidden, cfg.activation, seed=seed_d)
        pretrain(model, tiny_cohort, replace(direct_cfg.train, epochs=cfg.train.epochs))
        dcm = finetune(model, tiny_cohort, 2, direct_cfg)
        assert np.array_equal(runs[0], assign(dcm, tiny_cohort.X))

    def test_dims_validation(self, tiny_cohort):
        with pytest.raises(EmptyRuns):
            run_dimension_sweep(tiny_cohort, [], tiny_config())
        with pytest.raises(UnsupportedK):
            run_dimension_sweep(tiny_cohort, [99], tiny_config())

    def test_failure_tagged_with_dim(self, tiny_cohort):
        cfg = replace(tiny_config(), train=TrainConfig(epochs=10, batch_size=64,
                                                       seed=3, learning_rate=1e200))
        with pytest.raises(RuntimeError, match="embed_dim=2"):
            with np.errstate(all="ignore"):
                run_dimension_sweep(tiny_cohort, [2], cfg)
