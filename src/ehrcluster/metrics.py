"""Cluster-evaluation metrics (ACC, NMI, ARI) and cross-method average ranking.

All three scores are computed from the contingency table of true versus
predicted labels, so each is invariant to renaming clusters on either
side. ACC maximizes agreement over label mappings with the Hungarian
algorithm; NMI normalizes mutual information by the arithmetic mean of
the two label entropies (natural logs); ARI is the pair-counting Rand
index adjusted for chance under the permutation model.

A ``ScoreReport`` holds one (cohort, method) pair's three scores and no
clock, so a scores file reads back to the reports that wrote it; how long
a cell took is the grid's record, not the score's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IncompleteGrid, LengthMismatch, NonNumericCell, NonSquare, TooFewSamples
from .util import column_index, read_csv_rows, write_csv

METRIC_NAMES = ("acc", "ari", "nmi")


def whole_labels(v, error: type) -> np.ndarray:
    """``v`` as an int array; ``error`` if a value in it is negative or not a whole number
    (1.0 is, 0.9 is not)."""
    a = np.asarray(v)
    if a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.round(a))):
        raise error("labels must be integers")
    a = a.astype(int)
    if (a < 0).any():
        raise error("labels must be non-negative")
    return a


def _as_labels(v) -> np.ndarray:
    a = np.asarray(v)
    if a.ndim != 1:
        raise LengthMismatch("label vectors must be 1-dimensional")
    return whole_labels(a, LengthMismatch)


def contingency(g, p) -> np.ndarray:
    """Count matrix C[a, b] = #{i : g_i == a and p_i == b} (K_true x K_pred)."""
    g, p = _as_labels(g), _as_labels(p)
    if g.shape != p.shape:
        raise LengthMismatch(f"length {g.size} vs {p.size}")
    if g.size == 0:
        return np.zeros((0, 0), dtype=np.int64)
    kg, kp = int(g.max()) + 1, int(p.max()) + 1
    table = np.zeros((kg, kp), dtype=np.int64)
    np.add.at(table, (g, p), 1)
    return table


def _table(g, p, least: int, name: str) -> tuple[np.ndarray, int]:
    """The contingency table of the labels that occur, and n; score ``name`` needs ``least`` (1 or 2)
    samples. The table is K x K, K the larger number of distinct labels, so no label's value sizes it
    and acc gets the square it assigns over; the all-zero rows or columns that pad it change no score."""
    g, p = _as_labels(g), _as_labels(p)
    if g.shape != p.shape:
        raise LengthMismatch(f"length {g.size} vs {p.size}")
    if g.size < least:
        raise TooFewSamples(f"{name} requires at least {('one sample', 'two samples')[least - 1]}")
    (gu, gi), (pu, pi) = (np.unique(v, return_inverse=True) for v in (g, p))
    k = max(gu.size, pu.size)
    return np.bincount(gi * k + pi, minlength=k * k).reshape(k, k), g.size


def _assignment_value(weight: np.ndarray) -> float:
    """Largest sum_i weight[i, p[i]] over permutations p of a square matrix.

    Shortest-augmenting-path Hungarian algorithm with dual potentials
    (Kuhn 1955; Jonker & Volgenant 1987), O(K^3): each row in turn is
    matched by growing a Dijkstra-like tree over reduced costs until it
    reaches a free column, then flipping the path. Columns are 1-based
    below; column 0 is the virtual root that holds the row being added.
    """
    n = weight.shape[0]
    if n == 0:
        return 0.0
    if not np.all(np.isfinite(weight)):
        raise ValueError("assignment weights must be finite")
    cost = -weight  # maximize weight == minimize cost
    u = np.zeros(n + 1)  # row potentials
    v = np.zeros(n + 1)  # column potentials
    match = np.zeros(n + 1, dtype=int)  # match[j]: row (1-based) on column j, 0 if free
    for i in range(1, n + 1):
        match[0] = i
        way = np.zeros(n + 1, dtype=int)  # predecessor column on the shortest path
        minv = np.full(n + 1, np.inf)  # tentative path length to each column
        used = np.zeros(n + 1, dtype=bool)  # columns already in the tree
        j0 = 0
        while True:
            used[j0] = True
            i0 = match[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            closer = ~used[1:] & (reduced < minv[1:])
            minv[1:][closer] = reduced[closer]
            way[1:][closer] = j0
            free = np.flatnonzero(~used)
            j1 = int(free[np.argmin(minv[free])])
            delta = minv[j1]
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:  # flip the augmenting path back to the root
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    cols = np.empty(n, dtype=int)
    cols[match[1:] - 1] = np.arange(n)
    return float(weight[np.arange(n), cols].sum())


def hungarian_max(weight) -> np.ndarray:
    """Permutation p maximizing sum_i weight[i, p[i]]; ties break to the
    lexicographically smallest permutation.

    The optimum value comes from a linear-assignment solve; the returned
    permutation is then built row by row, keeping the smallest column whose
    optimal completion still attains that value.
    """
    W = np.asarray(weight, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {W.shape}")
    K = W.shape[0]
    if K == 0:
        return np.zeros(0, dtype=int)
    best = _assignment_value(W)
    tol = 1e-9 * max(1.0, abs(best))
    chosen: list[int] = []
    free = list(range(K))
    fixed = 0.0
    for i in range(K):
        candidates = []
        for c in free:
            rest_cols = [x for x in free if x != c]
            completion = _assignment_value(W[np.ix_(range(i + 1, K), rest_cols)])
            candidates.append((c, fixed + W[i, c] + completion))
        pick = next((c for c, total in candidates if total >= best - tol), None)
        if pick is None:  # numeric fallback; keeps progress on pathological floats
            pick = max(candidates, key=lambda t: t[1])[0]
        chosen.append(pick)
        fixed += W[i, pick]
        free.remove(pick)
    return np.array(chosen, dtype=int)


def acc(g, p) -> float:
    """Best-mapping clustering accuracy: max over label mappings of agreement / n."""
    table, n = _table(g, p, 1, "acc")
    # every optimal label mapping matches the same count, and the counts are
    # integers, so the optimum's value is exact whichever mapping attains it
    return _assignment_value(table.astype(float)) / n


def _entropy(counts: np.ndarray) -> float:
    n = counts.sum()
    pk = counts[counts > 0] / n
    return float(-(pk * np.log(pk)).sum())


def nmi(g, p) -> float:
    """Normalized mutual information, 2 I(G,P) / (H(G) + H(P)), natural logs.

    Degenerate conventions: both partitions single-cluster -> 1.0 (perfect
    agreement); exactly one single-cluster -> 0.0.
    """
    table, n = _table(g, p, 1, "nmi")
    table = table.astype(float)
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    hg, hp = _entropy(a), _entropy(b)
    if hg + hp == 0.0:
        return 1.0
    if hg == 0.0 or hp == 0.0:
        return 0.0

    def mi_terms(t: np.ndarray) -> float:
        rows = t.sum(axis=1)
        cols = t.sum(axis=0)
        nz = t > 0
        pij = t[nz] / n
        outer = np.outer(rows, cols)[nz] / (n * n)
        return float((pij * (np.log(pij) - np.log(outer))).sum())

    # averaging the table's and the transpose's term sums makes the float
    # result exactly invariant to swapping the arguments
    mi = 0.5 * (mi_terms(table) + mi_terms(table.T))
    return 2.0 * mi / (hg + hp)


def ari(g, p) -> float:
    """Adjusted Rand index via the contingency closed form, in [-0.5, 1].

    Identical partitions score 1.0, including when both are a single
    cluster (the chance-adjustment denominator vanishes only then).
    """
    table, n = _table(g, p, 2, "ari")

    def pairs(x: np.ndarray) -> float:
        x = x.astype(np.int64)
        return float((x * (x - 1) // 2).sum())

    index = pairs(table)
    a = pairs(table.sum(axis=1))
    b = pairs(table.sum(axis=0))
    total = n * (n - 1) / 2
    expected = a * b / total
    max_index = (a + b) / 2.0
    if max_index == expected:
        # only when both partitions are trivial and identical
        return 1.0
    return float((index - expected) / (max_index - expected))


@dataclass(frozen=True)
class ScoreReport:
    """One method's scores on one cohort; a row of a scores file."""

    method: str
    cohort: str
    acc: float
    ari: float
    nmi: float


def score(g, p, method: str = "", cohort: str = "") -> ScoreReport:
    return ScoreReport(method, cohort, acc(g, p), ari(g, p), nmi(g, p))


def _average_ranks(values) -> np.ndarray:
    """1-based ranks in ascending order; tied values share the mean of their
    ranks, and a NaN anywhere makes every rank NaN."""
    a = np.asarray(values, dtype=float)
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    _, group, counts = np.unique(a, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return ((last - counts + 1 + last) / 2.0)[group]


def average_rank(reports: list[ScoreReport]) -> dict[str, tuple[float, float]]:
    """Per-method (mean, std) of descending-score ranks over (cohort, metric) cells.

    Tied scores receive the mean of their tied ranks. Every method must be
    scored in every cell. Std is the population standard deviation.
    """
    methods: list[str] = []
    for r in reports:
        if r.method not in methods:
            methods.append(r.method)
    cohorts: list[str] = []
    for r in reports:
        if r.cohort not in cohorts:
            cohorts.append(r.cohort)
    by_key = {}
    for r in reports:
        if (r.method, r.cohort) in by_key:
            raise IncompleteGrid(f"method {r.method!r} has more than one score for cohort {r.cohort!r}")
        by_key[(r.method, r.cohort)] = r

    ranks: dict[str, list[float]] = {m: [] for m in methods}
    for cohort in cohorts:
        for metric in METRIC_NAMES:
            cell = f"({cohort}, {metric})"
            scores = []
            for m in methods:
                r = by_key.get((m, cohort))
                if r is None:
                    raise IncompleteGrid(f"method {m!r} has no score for cell {cell}")
                scores.append(getattr(r, metric))
            cell_ranks = _average_ranks([-s for s in scores])
            for m, rank in zip(methods, cell_ranks):
                ranks[m].append(float(rank))
    return {
        m: (float(np.mean(rs)), float(np.std(rs)))
        for m, rs in ranks.items()
    }


def write_ranks_csv(ranks: dict[str, tuple[float, float]], path: str | Path) -> list[tuple]:
    """Write ``method,mean_rank,std_rank``, best mean rank first, ties by name; return the rows."""
    ordered = sorted(ranks.items(), key=lambda kv: (kv[1][0], kv[0]))
    rows = [(m, mean, std) for m, (mean, std) in ordered]
    write_csv(path, ["method", "mean_rank", "std_rank"], rows)
    return rows


def write_score_reports_csv(reports: list[ScoreReport], path: str | Path) -> None:
    """Write the ``cohort,method,acc,ari,nmi`` file that ``read_score_reports`` reads back."""
    rows = [(r.cohort, r.method, r.acc, r.ari, r.nmi) for r in reports]
    write_csv(path, ["cohort", "method", *METRIC_NAMES], rows)


def read_score_reports(path: str | Path) -> list[ScoreReport]:
    """The ``cohort,method,acc,ari,nmi`` rows of a scores file, such as
    ``write_score_reports_csv`` writes; other columns are ignored.

    Every score must be a finite number; an error names the file, row and column.
    """
    header, rows = read_csv_rows(path)
    col = column_index(path, header, ["cohort", "method", *METRIC_NAMES])
    reports = []
    for i, row in enumerate(rows):
        cells = {name: row[j] if j < len(row) else "" for name, j in col.items()}
        values = []
        for name in METRIC_NAMES:
            try:
                value = float(cells[name])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise NonNumericCell(path, i, name)
            values.append(value)
        reports.append(ScoreReport(cells["method"], cells["cohort"], *values))
    return reports
