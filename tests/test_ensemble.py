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
    majority_vote,
    run_dimension_sweep,
    sweep_dims,
)
from ehrcluster.errors import EmptyRuns, InvalidDimension, LengthMismatch, UnsupportedK

binary_labels = arrays(int, st.integers(4, 20), elements=st.integers(0, 1))


class TestDimensionEnsemble:
    def test_majority_votes(self):
        runs = np.array([
            [1, 1, 0, 0],
            [1, 0, 0, 1],
            [0, 1, 0, 1],
        ])
        # per-sample averages: 2/3, 2/3, 0, 2/3
        assert np.array_equal(majority_vote(runs), [1, 1, 0, 1])

    def test_inclusive_threshold_tie_goes_to_one(self):
        runs = np.array([[1, 0, 1], [0, 0, 1]])
        # sample 0 averages exactly 0.5 -> 1
        assert np.array_equal(majority_vote(runs), [1, 0, 1])

    def test_identical_runs_identity(self):
        run = np.array([0, 1, 1, 0, 1])
        assert np.array_equal(majority_vote([run, run, run]), run)

    def test_flipped_run_is_aligned_first(self):
        base = np.array([0, 0, 0, 1, 1, 1])
        flipped = 1 - base
        assert np.array_equal(majority_vote([base, flipped, base]), base)

    def test_order_invariant_in_agreement_regime(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 2, size=30)
        runs = [base.copy() for _ in range(5)]
        for i, run in enumerate(runs[1:], start=1):
            idx = rng.choice(30, size=4, replace=False)
            run[idx] = 1 - run[idx]
        runs[2] = 1 - runs[2]  # plus a polarity flip alignment must undo
        expected = majority_vote(runs)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(runs))
            got = majority_vote([runs[i] for i in perm])
            assert np.array_equal(got, expected)

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedK):
            majority_vote(np.array([[0, 1, 2]]))

    def test_empty_runs(self):
        with pytest.raises(EmptyRuns):
            majority_vote([])

    def test_ragged_runs(self):
        with pytest.raises(LengthMismatch):
            majority_vote([np.array([0, 1]), np.array([0, 1, 1])])

    def test_a_fractional_label_is_refused_not_truncated(self):
        for runs in (np.array([[0.9, 0.2, 1.0], [1.0, 0.0, 1.0]]), [[0.9, 0.2, 1.0], [1, 0, 1]]):
            with pytest.raises(UnsupportedK, match="labels must be integers"):
                majority_vote(runs)
        with pytest.raises(UnsupportedK, match="labels must be integers"):
            majority_vote(np.array([[np.nan, 0.0, 1.0], [1.0, 0.0, 1.0]]))
        # whole numbers stored as floats are labels
        assert np.array_equal(majority_vote(np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])), [1, 0, 1])

    def test_a_negative_label_is_refused_not_wrapped(self):
        # -1 would disagree with 0 and 1 alike, and a flip would make it 2
        for runs in (np.array([[-1, 0, 1], [0, 0, 1]]), [[0, 0, 1], [1, -1, 0]]):
            with pytest.raises(UnsupportedK, match="labels must be non-negative"):
                majority_vote(runs)

    @staticmethod
    def reference_vote(runs):
        """The vote in plain Python: anchor on the smallest run, flip each run agreeing with it on
        fewer than half the samples, then 1 wins each sample it holds at least half of."""
        anchor = min(runs)
        aligned = [
            [1 - x for x in run] if 2 * sum(a == x for a, x in zip(anchor, run)) < len(run) else run
            for run in runs
        ]
        return [int(2 * sum(column) >= len(aligned)) for column in zip(*aligned)]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_reference_vote(self, data):
        n = data.draw(st.integers(1, 11))
        run = st.one_of(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.sampled_from([[0] * n, [1] * n]),  # constant runs
        )
        runs = data.draw(st.lists(run, min_size=1, max_size=7))
        assert majority_vote(runs).tolist() == self.reference_vote(runs)
        assert majority_vote(np.array(runs)).tolist() == self.reference_vote(runs)

    def test_equals_the_reference_vote_on_ties(self):
        # run 1 agrees with the anchor on exactly half the samples, so it is kept; the vote on
        # sample 1 is then one 1 against one 0, which goes to 1
        runs = [[0, 0, 1, 1], [0, 1, 0, 1]]
        assert majority_vote(runs).tolist() == self.reference_vote(runs) == [0, 1, 1, 1]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_permutation_of_the_runs_votes_the_same(self, data):
        n = data.draw(st.integers(1, 11))
        run = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        runs = data.draw(st.lists(run, min_size=1, max_size=7))
        permuted = data.draw(st.permutations(runs))
        assert np.array_equal(majority_vote(permuted), majority_vote(runs))

    def test_a_flat_label_vector_is_refused_not_read_as_one_sample_runs(self):
        for flat in ([0, 1, 1, 0, 1], np.array([0, 1, 1, 0, 1])):
            with pytest.raises(LengthMismatch, match="not a single label"):
                majority_vote(flat)

    def test_column_runs_vote_as_flat_runs(self):
        runs = [np.array([0, 1, 1, 0]), np.array([1, 0, 0, 1]), np.array([0, 1, 0, 0])]
        columns = [run.reshape(-1, 1) for run in runs]
        assert np.array_equal(majority_vote(columns), majority_vote(runs))
        assert np.array_equal(majority_vote(columns), [0, 1, 1, 0])


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
        variant="gaussian", gamma=0.1, finetune_epochs=6,
        target_update_interval=3,
        train=TrainConfig(epochs=10, batch_size=64, seed=seed),
    )


class TestRunDimensionSweep:
    def test_deterministic_label_matrix(self, tiny_cohort):
        a = run_dimension_sweep(tiny_cohort, [2, 3], tiny_config(), hidden=(8,))
        b = run_dimension_sweep(tiny_cohort, [2, 3], tiny_config(), hidden=(8,))
        assert a.shape == (2, tiny_cohort.n_samples)
        assert np.array_equal(a, b)

    def test_single_dim_matches_direct_pipeline(self, tiny_cohort):
        from ehrcluster.autoencoder import NETWORK_DTYPE, build, pretrain
        from ehrcluster.deepcluster import assign, finetune
        from ehrcluster.util import derive_seed

        cfg = tiny_config()
        runs = run_dimension_sweep(tiny_cohort, [3], cfg, hidden=(8,))

        seed_d = derive_seed(cfg.train.seed, 3)
        direct_cfg = replace(cfg, train=replace(cfg.train, seed=seed_d))
        model = build(tiny_cohort.n_features, 3, (8,), "relu", seed=seed_d, dtype=NETWORK_DTYPE)
        pretrain(model, tiny_cohort, replace(direct_cfg.train, epochs=cfg.train.epochs))
        dcm = finetune(model, tiny_cohort, 2, direct_cfg)
        assert np.array_equal(runs[0], assign(dcm, tiny_cohort.X))

    def test_a_sweep_stacks_the_rows_of_one_sweep_per_size(self, tiny_cohort):
        # the benchmark grid fits a sweep as one job per size, then stacks their rows
        whole = run_dimension_sweep(tiny_cohort, [2, 3, 5], tiny_config(), hidden=(8,))
        each = [run_dimension_sweep(tiny_cohort, [d], tiny_config(), hidden=(8,)) for d in (2, 3, 5)]
        assert whole.dtype == np.vstack(each).dtype
        assert whole.tobytes() == np.vstack(each).tobytes()

    def test_dims_validation(self, tiny_cohort):
        with pytest.raises(EmptyRuns):
            run_dimension_sweep(tiny_cohort, [], tiny_config(), hidden=(8,))
        with pytest.raises(UnsupportedK):
            run_dimension_sweep(tiny_cohort, [99], tiny_config(), hidden=(8,))
        # a repeated size would train the same run twice and vote it twice
        with pytest.raises(InvalidDimension, match="embed dim 2 is repeated"):
            run_dimension_sweep(tiny_cohort, [2, 3, 2], tiny_config(), hidden=(8,))

    def test_failure_tagged_with_dim(self, tiny_cohort):
        cfg = replace(tiny_config(), train=TrainConfig(epochs=10, batch_size=64,
                                                       seed=3, learning_rate=1e200))
        with pytest.raises(RuntimeError, match="embed_dim=2"):
            with np.errstate(all="ignore"):
                run_dimension_sweep(tiny_cohort, [2], cfg, hidden=(8,))
