"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its pinned tolerance.

The benchmark criteria (7 and 9) run the frozen config in
configs/benchmark.json end to end; everything else is oracle-based:
brute-force enumeration, direct pair counting, from-scratch entropy
computations, and central finite differences.
"""
import itertools
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ehrcluster.autoencoder import TrainConfig, backward, build, encode, forward, pretrain, reconstruction_loss
from ehrcluster.data import generate_synthetic, load_feature_schema
from ehrcluster.deepcluster import (
    ClusterParams,
    DeepClusterConfig,
    assign,
    clustering_gradients,
    finetune,
    joint_loss,
    kl_loss,
    soft_assign,
    target_distribution,
)
from ehrcluster.ensemble import dimension_ensemble, majority_vote
from ehrcluster.experiment import load_config, run_experiment
from ehrcluster.metrics import acc, ari, hungarian_max, nmi
from ehrcluster.traditional import gmm_fit, gmm_predict, kmeans_fit, kmeans_predict

REPO = Path(__file__).resolve().parents[1]
BENCHMARK_CONFIG = REPO / "configs" / "benchmark.json"
BENCHMARK_BUDGET_SECONDS = 600.0


@contextmanager
def criterion(number, name, detail=""):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS{suffix}")


# --------------------------------------------------------------- oracles

def brute_force_acc(g, p):
    g, p = np.asarray(g), np.asarray(p)
    size = int(max(g.max(), p.max())) + 1
    best = 0
    for perm in itertools.permutations(range(size)):
        best = max(best, int((g == np.asarray(perm)[p]).sum()))
    return best / g.size


def pair_enumeration_ari(g, p):
    n = len(g)
    tp = together_g = together_p = 0
    for i in range(n):
        for j in range(i + 1, n):
            sg, sp = g[i] == g[j], p[i] == p[j]
            together_g += sg
            together_p += sp
            tp += sg and sp
    total = n * (n - 1) / 2
    expected = together_g * together_p / total
    max_index = (together_g + together_p) / 2
    if max_index == expected:
        return 1.0
    return (tp - expected) / (max_index - expected)


def from_scratch_nmi(g, p):
    n = len(g)
    cg, cp, cj = Counter(g), Counter(p), Counter(zip(g, p))

    def entropy(counts):
        return -sum((v / n) * math.log(v / n) for v in counts.values())

    hg, hp = entropy(cg), entropy(cp)
    if hg + hp == 0:
        return 1.0
    if hg == 0 or hp == 0:
        return 0.0
    mi = sum(
        (v / n) * math.log((v / n) / ((cg[a] / n) * (cp[b] / n)))
        for (a, b), v in cj.items()
    )
    return 2 * mi / (hg + hp)


def brute_force_assignment(W):
    best_val, best_perm = -np.inf, None
    for perm in itertools.permutations(range(W.shape[0])):
        val = sum(W[i, perm[i]] for i in range(W.shape[0]))
        if val > best_val:  # first maximum in lexicographic order
            best_val, best_perm = val, perm
    return np.array(best_perm)


# ------------------------------------------------------------- criterion 1

def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence", "200 pairs, max |diff| < 1e-12, < 5 s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 9))
            kg = int(rng.integers(1, 4))
            kp = int(rng.integers(1, 4))
            g = rng.integers(0, kg, size=n)
            p = rng.integers(0, kp, size=n)
            assert abs(acc(g, p) - brute_force_acc(g, p)) < 1e-12
            assert abs(ari(g, p) - pair_enumeration_ari(g.tolist(), p.tolist())) < 1e-12
            assert abs(nmi(g, p) - from_scratch_nmi(g.tolist(), p.tolist())) < 1e-12
        assert time.perf_counter() - start < 5.0


# ------------------------------------------------------------- criterion 2

def test_criterion_2_hungarian_brute_force():
    with criterion(2, "Hungarian correctness", "200 matrices, exact tie-break, < 5 s"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for trial in range(200):
            k = int(rng.integers(1, 7))
            if trial % 2 == 0:
                W = rng.uniform(-1, 1, size=(k, k))
            else:
                W = rng.integers(0, 4, size=(k, k)).astype(float)  # forces ties
            assert np.array_equal(hungarian_max(W), brute_force_assignment(W))
        assert time.perf_counter() - start < 5.0


# ------------------------------------------------------------- criterion 3

def _kink_safe_instance(hidden, activation, variant, base_seed, D=5, d=3, K=2, M=8):
    """Model, batch, and cluster parameters whose relu pre-activations all
    clear a margin, so finite differences never straddle a kink."""
    for seed in range(base_seed, base_seed + 60):
        model = build(D, d, hidden, activation, seed=seed)
        rng = np.random.default_rng(seed + 9000)
        X = rng.normal(size=(M, D))
        if variant == "student_t":
            params = ClusterParams(mu=rng.normal(size=(K, d)))
        else:
            A = rng.normal(size=(K, d, d)) * 0.2
            sigma = np.einsum("kij,klj->kil", A, A) + 0.5 * np.eye(d)
            params = ClusterParams(
                mu=rng.normal(size=(K, d)), sigma=sigma, pi=np.array([0.4, 0.6])
            )
        _, _, cache = forward(model, X)
        if activation == "tanh" or min(np.abs(u).min() for u in cache.preacts) > 1e-3:
            return model, X, params
    raise AssertionError("no kink-safe seed found")


def _max_rel_err(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return float((np.abs(analytic - fd) / denom).max())


def _joint_gradient_check(hidden, activation, variant, gamma, base_seed):
    model, X, params = _kink_safe_instance(hidden, activation, variant, base_seed)
    M = X.shape[0]
    Z0, _, _ = forward(model, X)
    T = target_distribution(soft_assign(Z0, params, variant))  # then held fixed

    def loss():
        Z, Xhat, _ = forward(model, X)
        return joint_loss(X, Xhat, T, soft_assign(Z, params, variant), gamma)

    Z, Xhat, cache = forward(model, X)
    dZ, dMu = clustering_gradients(Z, params, T, variant)
    grads = backward(model, cache, 2.0 * (Xhat - X) / M, gamma * dZ)
    analytic = np.concatenate(
        [g.ravel() for g in grads.d_weights]
        + [g.ravel() for g in grads.d_biases]
        + [(gamma * dMu).ravel()]
    )
    h = 1e-5
    fd = []
    for arr in model.weights + model.biases + [params.mu]:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd.append((lp - lm) / (2 * h))
    return _max_rel_err(analytic, np.array(fd))


def test_criterion_3_gradient_fidelity():
    with criterion(3, "gradient fidelity", "h=1e-5, max rel err < 1e-4, < 30 s"):
        start = time.perf_counter()
        worst = 0.0
        base = 300
        for hidden in ([], [4], [4, 6]):
            for activation in ("relu", "tanh"):
                # reconstruction loss alone (gamma 0 silences the KL term)
                worst = max(worst, _joint_gradient_check(hidden, activation, "student_t", 0.0, base))
                # joint loss with fixed target, both assignment variants
                for variant in ("student_t", "gaussian"):
                    worst = max(
                        worst, _joint_gradient_check(hidden, activation, variant, 0.3, base)
                    )
                base += 60
        assert worst < 1e-4
        assert time.perf_counter() - start < 30.0


# ------------------------------------------------------------- criterion 4

def test_criterion_4_em_lloyd_monotonicity():
    with criterion(4, "EM/Lloyd monotonicity", "50 datasets, tolerance 1e-9, < 30 s"):
        rng = np.random.default_rng(404)
        start = time.perf_counter()
        for trial in range(50):
            n = int(rng.integers(40, 121))
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            X = rng.normal(size=(n, d))
            if trial % 2 == 0:  # half the datasets get real cluster structure
                X[: n // 2] += rng.normal(scale=3.0, size=d)
            km = kmeans_fit(X, k, seed=trial)
            assert np.all(np.diff(km.inertia_history) <= 1e-9)
            gm = gmm_fit(X, k, cov_type="full" if trial % 2 else "diagonal", seed=trial)
            assert np.all(np.diff(gm.log_likelihood_history) >= -1e-9)
        assert time.perf_counter() - start < 30.0


# ------------------------------------------------------------- criterion 5

def test_criterion_5_loss_identities():
    with criterion(5, "loss identities", "kl 1e-12, rows 1e-9, gamma-0 exact"):
        rng = np.random.default_rng(505)
        for _ in range(20):
            raw = rng.uniform(0.05, 1.0, size=(6, 3))
            S = raw / raw.sum(axis=1, keepdims=True)
            assert abs(kl_loss(S, S)) < 1e-12
            T = target_distribution(S)
            assert np.abs(T.sum(axis=1) - 1.0).max() < 1e-9

        X = rng.normal(size=(5, 4))
        Xhat = rng.normal(size=(5, 4))
        raw = rng.uniform(0.05, 1.0, size=(5, 2))
        S = raw / raw.sum(axis=1, keepdims=True)
        T = target_distribution(S)
        assert joint_loss(X, Xhat, T, S, 0.0) == reconstruction_loss(X, Xhat)

        # finetune at gamma 0 must output the hybrid-baseline labels exactly
        from ehrcluster.data import SyntheticSpec, standardize

        ds = generate_synthetic(SyntheticSpec(300, 8, 1 / 1.9, 6.0, "spherical", 0.0, seed=55))
        ds, _ = standardize(ds)
        cfg = DeepClusterConfig(
            variant="student_t", gamma=0.0, embed_dim=3, finetune_epochs=50,
            hidden=(12,),
            train=TrainConfig(epochs=60, batch_size=128, seed=550),
        )
        model = build(8, 3, (12,), "relu", seed=550)
        model, _ = pretrain(model, ds, cfg.train)
        Z = encode(model, ds.X)

        km = kmeans_fit(Z, 2, seed=550)
        dcm = finetune(model, ds, 2, cfg)
        assert np.array_equal(assign(dcm, ds.X), kmeans_predict(km, Z))

        gm = gmm_fit(Z, 2, seed=550)
        hybrid, _ = gmm_predict(gm, Z)
        dcm_g = finetune(model, ds, 2, replace(cfg, variant="gaussian"))
        assert np.array_equal(assign(dcm_g, ds.X), hybrid)


# ------------------------------------------------------------- criterion 6

def test_criterion_6_ensemble_correctness():
    with criterion(6, "ensemble correctness", "votes, ties, disjoint errors, run order"):
        # per-sample votes (1,1,0) -> 1 on a matrix whose alignment is identity
        runs = np.array([
            [0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1, 0],
        ])
        assert np.array_equal(dimension_ensemble(runs), [0, 0, 0, 1, 1, 1])
        assert np.array_equal(majority_vote(runs), [0, 0, 0, 1, 1, 1])

        # the inclusive >= 0.5 threshold sends an exact (1,0) tie to 1
        tie_runs = np.array([[1, 0, 1, 0], [0, 0, 1, 1]])
        assert np.array_equal(dimension_ensemble(tie_runs), [1, 0, 1, 1])

        # three voters with pairwise-disjoint error sets recover the truth
        rng = np.random.default_rng(606)
        truth = rng.integers(0, 2, size=30)
        voters = []
        for k in range(3):
            v = truth.copy()
            v[np.arange(10 * k, 10 * k + 3)] ^= 1
            voters.append(v)
        assert np.array_equal(majority_vote(voters), truth)
        assert np.array_equal(dimension_ensemble(voters), truth)

        # outputs cannot depend on run order, even with a flipped-polarity run
        base = rng.integers(0, 2, size=40)
        noisy = [base.copy() for _ in range(5)]
        for run in noisy[1:]:
            idx = rng.choice(40, size=5, replace=False)
            run[idx] ^= 1
        noisy[2] = 1 - noisy[2]
        expected = dimension_ensemble(noisy)
        for seed in range(6):
            order = np.random.default_rng(seed).permutation(5)
            assert np.array_equal(dimension_ensemble([noisy[i] for i in order]), expected)
            assert np.array_equal(majority_vote([noisy[i] for i in order]), expected)


# --------------------------------------------------- criteria 7 and 9

@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("benchmark_run")
    config = replace(load_config(BENCHMARK_CONFIG), output_dir=str(out))
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    return result, elapsed, out


@pytest.mark.slow
def test_criterion_7_protocol_benchmark(benchmark_run):
    with criterion(7, "protocol-faithful synthetic benchmark", "< 10 min, complete files, KGG >= median voter"):
        result, elapsed, out = benchmark_run
        assert elapsed < BENCHMARK_BUDGET_SECONDS
        assert result.failures == []

        by_method = {r.method: r for r in result.scores}
        methods = [m.name for m in load_config(BENCHMARK_CONFIG).methods]
        assert sorted(by_method) == sorted(methods)

        # frozen moderate-separation window for raw k-means
        assert 0.2 <= by_method["kmeans_x"].ari <= 0.8

        for name in ("scores.csv", "ranks.csv", "timings.csv", "manifest.json"):
            assert (out / name).exists(), name
        ranks_lines = (out / "ranks.csv").read_text().strip().splitlines()
        assert len(ranks_lines) == len(methods) + 1
        timings_lines = (out / "timings.csv").read_text().strip().splitlines()
        assert len(timings_lines) == len(methods) + 1
        assert all(
            float(line.rsplit(",", 1)[1]) > 0 for line in timings_lines[1:]
        )

        voters = ("kmeans_x", "gmm_x", "gceals_ensemble")
        voter_acc = [by_method[v].acc for v in voters]
        assert by_method["kgg"].acc >= float(np.median(voter_acc))

        # the KGG labels on disk are the majority vote of its voters' files
        def labels_of(name):
            lines = (out / "labels" / f"combined__{name}.csv").read_text().strip().splitlines()[1:]
            return np.array([int(l.split(",")[1]) for l in lines])

        recomputed = majority_vote([labels_of(v) for v in voters])
        assert np.array_equal(recomputed, labels_of("kgg"))


# ------------------------------------------------------------- criterion 8

def _fixture_csv_and_expected():
    """20-row cohort over the shipped schema with hand-computed expectations.

    Row 1 carries two empty cells (6.06% missing -> filtered); row 18's age
    115 breaches the 18-110 bound and row 3's glucose 10 breaches 20-1250,
    so both are masked and imputed. Hand-computed medians: age 67.5 over
    the 18 surviving observed ages, K 4.0, Glu 100.0.
    """
    specs = load_feature_schema()
    names = [s.name for s in specs]
    baseline = {
        "Age": None, "Cl": 100, "Na": 140, "Ca": 9, "K": 4, "BUN": 15,
        "Glu": 100, "Height": 170, "Cr": 1, "Weight": 80, "TP": 7,
        "DBP": 80, "Hb": 140, "HR": 70, "SBP": 120, "MCV": 90, "ALP": 100,
        "AST": 30, "MCH": 30, "RDW": 13, "CO2": 25, "HCT": 42, "PLT#": 250,
        "WBC#": 7, "ALT": 30, "RBC#": 5, "RR": 16, "LYMPH%": 30, "BASO%": 1,
        "MONO%": 8, "TG": 150, "EOS%": 3, "HDL-C": 50,
    }
    ages = [25 + 5 * r for r in range(18)] + [115, 50]
    cells = [[str(baseline[n]) if n != "Age" else str(ages[r]) for n in names] for r in range(20)]

    def put(row, name, value):
        cells[row][names.index(name)] = value

    put(0, "K", "3.5")
    put(1, "Cl", "")
    put(1, "Na", "")
    put(2, "K", "")
    put(3, "Glu", "10")
    put(4, "K", "4.5")
    put(5, "Glu", "120")
    put(6, "Glu", "80")
    csv_text = ",".join(names) + "\n" + "\n".join(",".join(row) for row in cells) + "\n"

    surviving = [r for r in range(20) if r != 1]
    expected = np.array(
        [[float(baseline[n]) if n != "Age" else float(ages[r]) for n in names] for r in surviving]
    )

    def set_expected(orig_row, name, value):
        expected[surviving.index(orig_row), names.index(name)] = value

    set_expected(0, "K", 3.5)
    set_expected(4, "K", 4.5)
    set_expected(5, "Glu", 120.0)
    set_expected(6, "Glu", 80.0)
    set_expected(2, "K", 4.0)      # median of {3.5, 4.5, 16 x 4.0}
    set_expected(3, "Glu", 100.0)  # median of {80, 120, 16 x 100}
    set_expected(18, "Age", 67.5)  # median of the 18 observed ages
    return csv_text, expected, specs


def test_criterion_8_preprocessing_fidelity(tmp_path):
    with criterion(8, "preprocessing fidelity", "bounds + 5% filter + median impute, exact"):
        from ehrcluster.data import apply_bounds, filter_missing_rate, impute_median, load_csv

        csv_text, expected, specs = _fixture_csv_and_expected()
        p = tmp_path / "fixture.csv"
        p.write_text(csv_text)
        ds = load_csv(p, specs)
        ds = apply_bounds(ds)
        ds = filter_missing_rate(ds, 0.05)
        ds = impute_median(ds)
        assert ds.n_samples == 19
        assert not ds.missing.any()
        assert np.array_equal(ds.X, expected)  # exact, no tolerance


# ------------------------------------------------------------- criterion 9

@pytest.mark.slow
def test_criterion_9_end_to_end_determinism(benchmark_run, tmp_path_factory):
    with criterion(9, "end-to-end determinism", "byte-identical scores.csv"):
        _, _, first_out = benchmark_run
        second_out = tmp_path_factory.mktemp("benchmark_rerun")
        config = replace(load_config(BENCHMARK_CONFIG), output_dir=str(second_out))
        run_experiment(config)
        first = (first_out / "scores.csv").read_bytes()
        second = (second_out / "scores.csv").read_bytes()
        assert first == second
