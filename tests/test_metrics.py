import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrcluster.errors import IncompleteGrid, LengthMismatch, NonNumericCell, NonSquare, TooFewSamples
from ehrcluster.metrics import (
    ScoreReport,
    _assignment_value,
    _average_ranks,
    acc,
    ari,
    average_rank,
    contingency,
    hungarian_max,
    nmi,
    read_score_reports,
    write_score_reports_csv,
)

labels_strategy = st.lists(st.integers(0, 2), min_size=2, max_size=12)


def brute_force_max_assignment(W):
    """First maximizer in lexicographic permutation order."""
    K = W.shape[0]
    best_val, best_perm = -np.inf, None
    for perm in itertools.permutations(range(K)):
        val = sum(W[i, perm[i]] for i in range(K))
        if val > best_val:
            best_val, best_perm = val, perm
    return np.array(best_perm)


class TestContingency:
    def test_diagonal(self):
        assert np.array_equal(contingency([0, 0, 1, 1], [0, 0, 1, 1]), [[2, 0], [0, 2]])

    def test_all_ones(self):
        assert np.array_equal(contingency([0, 0, 1, 1], [0, 1, 0, 1]), [[1, 1], [1, 1]])

    def test_empty(self):
        assert contingency([], []).shape == (0, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            contingency([0, 1], [0])

    def test_a_fractional_label_is_refused_not_truncated(self):
        with pytest.raises(LengthMismatch, match="labels must be integers"):
            contingency([0, 1, 1], [0, 0.9, 1])
        with pytest.raises(LengthMismatch, match="labels must be integers"):
            ari([0, 1, 1], np.array([0.0, np.nan, 1.0]))
        # whole numbers stored as floats are labels
        assert np.array_equal(contingency([0.0, 1.0], [1, 0]), [[0, 1], [1, 0]])

    def test_a_negative_label_is_refused_not_wrapped_into_the_last_row(self):
        with pytest.raises(LengthMismatch, match="labels must be non-negative"):
            contingency([-1, 0, 0], [0, 0, 1])
        for metric in (acc, ari, nmi):
            with pytest.raises(LengthMismatch, match="labels must be non-negative"):
                metric([0, 1, 1], [0, -1, 1])


class TestHungarianMax:
    def test_two_by_two(self):
        assert np.array_equal(hungarian_max([[4, 1], [2, 3]]), [0, 1])

    def test_identity_dominant(self):
        W = np.eye(4) * 10 + 1
        assert np.array_equal(hungarian_max(W), [0, 1, 2, 3])

    def test_antidiagonal(self):
        assert np.array_equal(hungarian_max([[0, 5], [5, 0]]), [1, 0])

    def test_non_square(self):
        with pytest.raises(NonSquare):
            hungarian_max(np.ones((2, 3)))

    def test_matches_brute_force_small_sweep(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            K = int(rng.integers(1, 7))
            if trial % 2 == 0:
                W = rng.uniform(size=(K, K))
            else:
                W = rng.integers(0, 4, size=(K, K)).astype(float)  # integer ties
            assert np.array_equal(hungarian_max(W), brute_force_max_assignment(W)), W

    def test_tie_break_lexicographic(self):
        W = np.ones((3, 3))
        assert np.array_equal(hungarian_max(W), [0, 1, 2])


class TestAssignmentValue:
    def test_matches_brute_force_up_to_k7(self):
        # integer weights make every sum exact, so the values must be equal
        rng = np.random.default_rng(31)
        for trial in range(120):
            K = int(rng.integers(1, 8))
            high = 4 if trial % 2 else 1000  # small range forces ties
            W = rng.integers(-high, high, size=(K, K)).astype(float)
            best = max(sum(W[i, p[i]] for i in range(K)) for p in itertools.permutations(range(K)))
            assert _assignment_value(W) == best, W

    def test_empty(self):
        assert _assignment_value(np.zeros((0, 0))) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            _assignment_value(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestAcc:
    def test_perfect(self):
        assert acc([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_flip_invariant(self):
        assert acc([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_three_quarters(self):
        # identity mapping matches rows 0, 2, 3; the flip only row 1
        assert acc([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_constant_prediction_gives_majority_share(self):
        g = [0, 0, 0, 1, 1]
        assert acc(g, [0, 0, 0, 0, 0]) == 0.6

    def test_unequal_cluster_counts(self):
        assert acc([0, 1, 2, 2], [0, 0, 1, 1]) == 0.75


class TestNmi:
    def test_perfect(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_conventions(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert nmi([0, 1, 2], [0, 0, 0]) == 0.0

    @given(labels_strategy, labels_strategy)
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert nmi(a, b) == nmi(b, a)


class TestAri:
    def test_perfect(self):
        assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_minus_half(self):
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_single_cluster_identical(self):
        assert ari([0, 0, 0], [0, 0, 0]) == 1.0
        assert ari([0, 1, 2], [2, 1, 0]) == 1.0  # all-singletons, identical partition

    def test_chance_level_monte_carlo(self):
        # permutation resampling matches the chance model exactly, so the
        # mean ARI over many draws must sit near 0
        rng = np.random.default_rng(0)
        g = np.repeat([0, 1], [40, 20])
        p0 = np.repeat([0, 1, 2], 20)
        vals = [ari(g, rng.permutation(p0)) for _ in range(1000)]
        assert abs(np.mean(vals)) < 0.02

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            ari([0], [0])


@pytest.mark.parametrize(
    "score, too_few, least", [(acc, [], "one sample"), (nmi, [], "one sample"), (ari, [0], "two samples")]
)
def test_each_score_refuses_mismatched_or_too_few_labels_with_its_message(score, too_few, least):
    with pytest.raises(LengthMismatch) as exc:
        score([0, 1, 1], [0, 1])
    assert str(exc.value) == "length 3 vs 2"
    with pytest.raises(TooFewSamples) as exc:
        score(too_few, too_few)
    assert str(exc.value) == f"{score.__name__} requires at least {least}"


@given(labels_strategy, labels_strategy, st.permutations([0, 1, 2]), st.permutations([0, 1, 2]))
@settings(max_examples=60, deadline=None)
def test_scores_invariant_to_label_renaming(a, b, perm_a, perm_b):
    n = min(len(a), len(b))
    a = np.array(a[:n])
    b = np.array(b[:n])
    pa = np.array(perm_a)[a]
    pb = np.array(perm_b)[b]
    assert acc(a, b) == pytest.approx(acc(pa, pb), abs=1e-12)
    assert nmi(a, b) == pytest.approx(nmi(pa, pb), abs=1e-12)
    assert ari(a, b) == pytest.approx(ari(pa, pb), abs=1e-12)


class TestAverageRank:
    def test_strictly_best(self):
        reports = []
        for cohort in ("c1", "c2"):
            reports.append(ScoreReport("winner", cohort, 0.9, 0.9, 0.9))
            reports.append(ScoreReport("loser", cohort, 0.1, 0.1, 0.1))
        ranks = average_rank(reports)
        assert ranks["winner"] == (1.0, 0.0)
        assert ranks["loser"] == (2.0, 0.0)

    def test_tie_gets_mid_rank(self):
        reports = [
            ScoreReport("a", "c", 0.5, 0.5, 0.5),
            ScoreReport("b", "c", 0.5, 0.5, 0.5),
        ]
        ranks = average_rank(reports)
        assert ranks["a"] == (1.5, 0.0) and ranks["b"] == (1.5, 0.0)

    def test_three_methods_two_cells_hand_ranked(self):
        # acc is the only metric that varies; ari/nmi tie everywhere so each
        # contributes mid-rank 2.0 to every method
        reports = [
            ScoreReport("a", "c1", 0.9, 0.0, 0.0),
            ScoreReport("b", "c1", 0.5, 0.0, 0.0),
            ScoreReport("c", "c1", 0.1, 0.0, 0.0),
            ScoreReport("a", "c2", 0.2, 0.0, 0.0),
            ScoreReport("b", "c2", 0.8, 0.0, 0.0),
            ScoreReport("c", "c2", 0.8, 0.0, 0.0),
        ]
        ranks = average_rank(reports)
        # acc ranks: a: 1, 3; b: 2, 1.5; c: 3, 1.5; other four cells: 2.0 each
        assert ranks["a"][0] == pytest.approx(np.mean([1, 3, 2, 2, 2, 2]))
        assert ranks["b"][0] == pytest.approx(np.mean([2, 1.5, 2, 2, 2, 2]))
        assert ranks["c"][0] == pytest.approx(np.mean([3, 1.5, 2, 2, 2, 2]))
        assert ranks["a"][1] == pytest.approx(np.std([1, 3, 2, 2, 2, 2]))

    def test_three_tied_for_second(self):
        reports = [ScoreReport(m, "c", s, s, s) for m, s in
                   [("a", 0.9), ("b", 0.5), ("c", 0.5), ("d", 0.5), ("e", 0.1)]]
        ranks = average_rank(reports)
        assert ranks["a"] == (1.0, 0.0)
        assert ranks["b"] == ranks["c"] == ranks["d"] == (3.0, 0.0)
        assert ranks["e"] == (5.0, 0.0)

    def test_incomplete_grid(self):
        reports = [
            ScoreReport("a", "c1", 0.9, 0.9, 0.9),
            ScoreReport("b", "c1", 0.5, 0.5, 0.5),
            ScoreReport("a", "c2", 0.9, 0.9, 0.9),
        ]
        with pytest.raises(IncompleteGrid, match=r"method 'b' has no score for cell \(c2, acc\)"):
            average_rank(reports)
        with pytest.raises(IncompleteGrid, match="method 'a' has more than one score for cohort 'c1'"):
            average_rank(reports + [ScoreReport("b", "c2", 0.5, 0.5, 0.5), ScoreReport("a", "c1", 0.1, 0.1, 0.1)])


class TestAverageRanks:
    def test_ties_share_mean_of_their_ranks(self):
        assert _average_ranks([0.3, 0.1, 0.3, 0.2, 0.3]).tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]

    def test_nan_propagates_to_every_rank(self):
        assert np.isnan(_average_ranks([0.1, np.nan, 0.3])).all()

    def test_empty(self):
        assert _average_ranks([]).shape == (0,)


def test_scores_read_only_the_labels_that_occur():
    # a table sized by the label's value would need 10**12 columns
    g, p = [0, 0, 1, 1, 1], [3, 3, 10**12, 10**12, 3]
    dense = [0, 0, 1, 1, 0]
    assert (acc(g, p), ari(g, p), nmi(g, p)) == (acc(g, dense), ari(g, dense), nmi(g, dense))


def test_score_report_csv_roundtrip(tmp_path):
    reports = [ScoreReport("m", "c", 0.5, 0.25, 0.125)]
    write_score_reports_csv(reports, tmp_path / "s.csv")
    text = (tmp_path / "s.csv").read_text()
    assert text.splitlines()[0] == "cohort,method,acc,ari,nmi"
    assert "c,m,0.5,0.25,0.125" in text


def test_score_reports_read_back(tmp_path):
    reports = [ScoreReport("m", "c", 0.5, 0.25, 0.125), ScoreReport("n", "c", 1.0, 1.0, 1.0)]
    write_score_reports_csv(reports, tmp_path / "s.csv")
    assert read_score_reports(tmp_path / "s.csv") == reports


@pytest.mark.parametrize("cell", ["x", "", "nan", "inf"])
def test_score_that_is_not_a_finite_number_names_file_row_and_column(tmp_path, cell):
    p = tmp_path / "s.csv"
    p.write_text(f"cohort,method,acc,ari,nmi\nc,m,1,1,1\nc,n,1,{cell},1\n")
    with pytest.raises(NonNumericCell, match=f"^{p}: data row 1: column 'ari' is not a finite number$"):
        read_score_reports(p)
