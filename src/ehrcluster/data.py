"""Tabular cohort loading, preprocessing, subsampling, and synthesis.

The preprocessing pipeline used throughout the toolkit is:

    plausibility bounds -> per-sample missing-rate filter
    -> per-feature median imputation -> z-score standardization

Every operation is pure: it returns a new :class:`Dataset` and never
mutates its input (``preprocess`` runs every step in place on its own copy
of the rows it keeps). A missing cell is ``NaN`` in the value matrix and
nothing else; ``Dataset.missing`` is derived from it.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    AllMissingFeature,
    AllSamplesRemoved,
    ConfigError,
    InsufficientClassSamples,
    NonNumericCell,
)
from .util import _build, _cast, _float, column_index, read_csv_rows, read_json, write_csv

MISSING_TOKENS = ("", "NA")

CLUSTER_SHAPES = ("spherical", "diagonal", "correlated")


@dataclass(frozen=True)
class FeatureSpec:
    """One feature's name, measurement unit, and inclusive plausibility bounds."""

    name: str
    unit: str
    bound_lo: float
    bound_hi: float

    def __post_init__(self):
        if not self.bound_lo < self.bound_hi:
            raise ConfigError(f"feature {self.name!r}: bound_lo must be < bound_hi")


@dataclass
class Dataset:
    """A numeric cohort: values (``NaN`` where missing), schema, and optional truth labels.

    ``labels`` are ground-truth class assignments used only for evaluation;
    they are deliberately kept outside ``X`` so no fit can touch them.
    """

    X: np.ndarray
    feature_specs: list[FeatureSpec]
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[1] == 0:
            raise ConfigError("X must be 2-dimensional, with at least one feature column")
        if self.X.shape[1] != len(self.feature_specs):
            raise ConfigError("n_features does not match len(feature_specs)")
        names = [s.name for s in self.feature_specs]
        if len(set(names)) != len(names):
            raise ConfigError("feature names must be unique")
        if np.isinf(self.X).any():
            raise ConfigError("X must not hold +-inf (NaN marks a missing cell)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (self.X.shape[0],):
                raise ConfigError("labels length does not match n_samples")
            if not np.issubdtype(self.labels.dtype, np.integer):
                raise ConfigError("labels must be integers")
            if self.labels.size and self.labels.min() < 0:
                raise ConfigError("labels must be non-negative")

    @property
    def missing(self) -> np.ndarray:
        """Boolean mask of the missing cells, ``np.isnan(X)``; computed on each read."""
        return np.isnan(self.X)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a two-class Gaussian-mixture cohort.

    ``class_ratio`` is minority:majority (e.g. 1/1.9); ``separation`` is the
    distance between class means in units of the average within-class
    standard deviation.
    """

    n_samples: int
    n_features: int
    class_ratio: float
    separation: float
    cluster_shape: str = "spherical"
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.n_features < 2:
            raise ConfigError("n_features must be >= 2")
        if not 0 < self.class_ratio <= 1:
            raise ConfigError("class_ratio must be in (0, 1]")
        if not 0 <= self.separation < float("inf"):
            raise ConfigError("separation must be >= 0 and finite")
        if not 0 <= self.missing_rate < 1:
            raise ConfigError("missing_rate must be in [0, 1)")
        if self.cluster_shape not in CLUSTER_SHAPES:
            raise ConfigError(f"cluster_shape must be one of {CLUSTER_SHAPES}")


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature means and stds frozen by :func:`standardize` for reuse."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.std


def load_feature_schema(path: str | Path | None = None) -> list[FeatureSpec]:
    """Read a JSON feature schema; defaults to the shipped 33-feature EHR panel.

    The schema is a non-empty list of ``{name, unit, bound_lo, bound_hi}``
    objects (``unit`` may be left out); an error names the file and the entry.
    """
    if path is None:
        path = Path(__file__).parent / "resources" / "feature_specs.json"
    raw = read_json(path)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a non-empty JSON list of features")
    specs = [_build(FeatureSpec, entry, f"{path}[{i}]", unit="") for i, entry in enumerate(raw)]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: feature schema contains duplicate names")
    return specs


def load_csv(path: str | Path, specs: list[FeatureSpec], label_column: str | None = None) -> Dataset:
    """Load a header-bearing CSV into a Dataset, column order following ``specs``.

    Cells equal to one of ``MISSING_TOKENS`` (after stripping whitespace)
    become ``NaN``; anything else must parse as a finite float. The label column, when
    given, must not be in ``specs`` (a ConfigError: it would put the labels in X) and must
    hold non-negative integers on every row. The file is read a row at a time into one float
    buffer that becomes ``X`` without a copy, about 8 bytes held per cell; the first problem
    in file order is the one reported.
    """
    if label_column and any(s.name == label_column for s in specs):
        raise ConfigError(f"{path}: label column {label_column!r} is also a feature in the schema")
    header, data_rows = read_csv_rows(path)
    col_index = column_index(path, header, [s.name for s in specs] + ([label_column] if label_column else []))
    values, labels = array("d"), array("q")
    columns = [(col_index[s.name], s.name) for s in specs]
    n = 0
    for i, row in enumerate(data_rows):
        # one row at a time, so the first bad cell in row-major order is the one reported
        values.extend([_feature_cell(path, row, i, j, col) for j, col in columns])
        if label_column:
            labels.append(_label_cell(path, row, i, col_index[label_column], label_column))
        n = i + 1
    X = np.frombuffer(values, dtype=float).reshape(n, len(specs))
    return Dataset(X, list(specs), labels=np.frombuffer(labels, dtype=np.int64) if label_column else None)


def _feature_cell(path, row: list[str], i: int, j: int, col: str) -> float:
    """The finite number in cell ``j`` of data row ``i``, NaN for a missing token; else a NonNumericCell."""
    cell = row[j].strip() if j < len(row) else ""
    if cell in MISSING_TOKENS:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericCell(path, i, col) from None
    if not math.isfinite(value):
        raise NonNumericCell(path, i, col)
    return value


def _label_cell(path, row: list[str], i: int, j: int, col: str) -> int:
    """The non-negative integer in cell ``j`` of data row ``i``; anything else is a NonNumericCell."""
    try:
        value = float(row[j].strip() if j < len(row) else "")
    except ValueError:
        value = np.nan
    # below 2**63, so it fits the int64 label arrays
    if not (value.is_integer() and 0 <= value < 2**63):
        raise NonNumericCell(path, i, col, "a non-negative integer")
    return int(value)


def write_labels(path: str | Path, labels: np.ndarray) -> None:
    """Write a ``sample_index,label`` file, one row per sample in order."""
    write_csv(path, ["sample_index", "label"], enumerate(labels.tolist()))


def write_embedding(path: str | Path, Z: np.ndarray) -> None:
    """Write an embedding: one row per sample, one column ``z<i>`` per axis."""
    write_csv(path, [f"z{i}" for i in range(Z.shape[1])], Z.tolist())


def _out_of_bounds(X: np.ndarray, specs: list[FeatureSpec]) -> np.ndarray:
    """Where ``X`` is outside its feature's inclusive bounds; never at a NaN, which compares false."""
    out = X < np.array([s.bound_lo for s in specs])
    out |= X > np.array([s.bound_hi for s in specs])
    return out


def apply_bounds(ds: Dataset) -> Dataset:
    """Mask every value outside its feature's inclusive [lo, hi] bound as missing."""
    X = ds.X.copy()
    X[_out_of_bounds(X, ds.feature_specs)] = np.nan
    return replace(ds, X=X)


def subset_rows(ds: Dataset, rows: np.ndarray) -> Dataset:
    """The samples that ``rows`` (a boolean mask or an index array) selects, in that order."""
    return replace(ds, X=ds.X[rows], labels=None if ds.labels is None else ds.labels[rows])


def check_missing_rate(value) -> float:
    """``value`` as a missing-rate bound, a float in [0, 1]; a ValueError if it is not one."""
    rate = _float(value)
    if not 0 <= rate <= 1:
        raise ValueError(f"must be in [0, 1], got {rate}")
    return rate


def _kept_rows(missing: np.ndarray, max_rate: float) -> np.ndarray:
    """The rows of the ``missing`` mask whose missing fraction is at most ``max_rate``; none is
    AllSamplesRemoved."""
    max_rate = _cast(check_missing_rate, max_rate, "max_rate")
    keep = missing.sum(axis=1) / missing.shape[1] <= max_rate
    if not keep.any():
        raise AllSamplesRemoved(f"no sample has missing rate <= {max_rate}; all {missing.shape[0]} removed")
    return keep


def filter_missing_rate(ds: Dataset, max_rate: float) -> Dataset:
    """Drop samples whose missing fraction strictly exceeds ``max_rate``."""
    return subset_rows(ds, _kept_rows(ds.missing, max_rate))


def _impute_median(X: np.ndarray, specs: list[FeatureSpec]) -> None:
    """``impute_median`` in place on ``X``."""
    for j, spec in enumerate(specs):
        missing = np.isnan(X[:, j])
        observed = X[~missing, j]
        if observed.size == 0:
            raise AllMissingFeature(spec.name)
        if missing.any():
            X[missing, j] = np.median(observed)


def impute_median(ds: Dataset) -> Dataset:
    """Replace each missing cell with the per-feature median of observed values.

    The median of an even count is the mean of the two central order
    statistics. Observed cells are returned unchanged.
    """
    X = ds.X.copy()
    _impute_median(X, ds.feature_specs)
    return replace(ds, X=X)


def _standardize(X: np.ndarray) -> ScalerParams:
    """``standardize`` in place on ``X``. Its squares are summed a block of rows at a time, each
    block's first row carrying the sum so far: the row-by-row order numpy sums the columns of a
    C-ordered X in, so ``X.std(axis=0)``'s bytes with no temporary the size of X (a column it
    reads contiguously, in an F-ordered X, numpy sums pairwise, so that X is one block)."""
    n, d = X.shape
    hi = X.max(axis=0, initial=-np.inf)
    constant = hi == X.min(axis=0, initial=np.inf)  # exactly: a mean need not round to the value
    mean = np.where(constant, hi, X.mean(axis=0))
    X -= mean
    squares = np.zeros(d)
    rows = max(1, n if X.flags.f_contiguous else (1 << 16) // max(d, 1))
    for start in range(0, n, rows):
        block = np.square(X[start:start + rows])
        block[0] += squares
        squares = block.sum(axis=0)
    std = np.sqrt(squares / n)
    std[constant | (std == 0.0)] = 1.0
    X /= std
    return ScalerParams(mean=mean, std=std)


def standardize(ds: Dataset) -> tuple[Dataset, ScalerParams]:
    """Z-score each feature (population std, denominator n); constants map to 0.

    A constant feature (every value equal) gets its value as the mean and std 1
    in the stored params, so reusing them maps it to 0 and never divides by zero.
    """
    if ds.missing.any():
        raise ConfigError("standardize requires a fully imputed dataset")
    X = ds.X.copy(order="K")  # an F-ordered X stays so, and its std is summed as numpy sums it
    params = _standardize(X)
    return replace(ds, X=X), params


def minority_count(n: int, class_ratio: float) -> int:
    """Number of minority samples in an n-sample cohort at minority:majority ratio r."""
    return int(round(n * class_ratio / (1.0 + class_ratio)))


def stratified_subsample(ds: Dataset, n: int, class_ratio: float, seed: int) -> Dataset:
    """Draw n samples without replacement at the given minority:majority ratio.

    Label 1 is the minority class by convention. Selected rows keep their
    original relative order; the draw is deterministic for a fixed seed.
    """
    if ds.labels is None:
        raise ConfigError("stratified_subsample requires labels")
    classes = np.unique(ds.labels)
    if not np.array_equal(classes, [0, 1]):
        raise ConfigError("stratified_subsample expects binary labels {0, 1}")
    if n < 1 or class_ratio < 0:
        raise ConfigError("stratified_subsample needs n >= 1 and class_ratio >= 0")
    n_min = minority_count(n, class_ratio)
    n_maj = n - n_min
    rng = np.random.default_rng(seed)
    picked = []
    for cls, needed in ((0, n_maj), (1, n_min)):
        pool = np.flatnonzero(ds.labels == cls)
        if needed > pool.size:
            raise InsufficientClassSamples(cls, needed, pool.size)
        picked.append(rng.choice(pool, size=needed, replace=False))
    return subset_rows(ds, np.sort(np.concatenate(picked)))


def synthetic_feature_specs(n_features: int) -> list[FeatureSpec]:
    """Wide-bounded schema for generated features f00, f01, ..."""
    width = max(2, len(str(n_features - 1)))
    return [
        FeatureSpec(f"f{j:0{width}d}", "arb", -1e6, 1e6) for j in range(n_features)
    ]


def _class_covariance_factor(shape: str, d: int, rng: np.random.Generator):
    """Return (A, avg_std) with samples drawn as eps @ A.T; avg_std = sqrt(tr(AA^T)/d)."""
    if shape == "spherical":
        return np.eye(d), 1.0
    if shape == "diagonal":
        stds = rng.uniform(0.5, 1.5, size=d)
        return np.diag(stds), float(np.sqrt(np.mean(stds**2)))
    # correlated: well-conditioned random SPD factor
    M = rng.standard_normal((d, d))
    cov = M @ M.T / d + 0.1 * np.eye(d)
    A = np.linalg.cholesky(cov)
    return A, float(np.sqrt(np.trace(cov) / d))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample the two-class Gaussian-mixture cohort described by ``spec``.

    Class means sit ``separation`` average within-class stds apart along a
    random direction; label 1 is the minority class. Missing cells are
    injected uniformly at ``missing_rate``. Output is bitwise reproducible
    for a fixed seed.
    """
    if spec.seed < 0:  # a spec may hold one: a benchmark config only derives seeds from it
        raise ConfigError(f"seed must be >= 0, got {spec.seed}")
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_samples, spec.n_features
    n_min = minority_count(n, spec.class_ratio)
    n_maj = n - n_min

    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    A0, s0 = _class_covariance_factor(spec.cluster_shape, d, rng)
    A1, s1 = _class_covariance_factor(spec.cluster_shape, d, rng)
    delta = spec.separation * 0.5 * (s0 + s1)
    mu0 = -0.5 * delta * direction
    mu1 = +0.5 * delta * direction

    X0 = rng.standard_normal((n_maj, d)) @ A0.T + mu0
    X1 = rng.standard_normal((n_min, d)) @ A1.T + mu1
    X = np.vstack([X0, X1])
    labels = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])

    order = rng.permutation(n)
    X, labels = X[order], labels[order]

    if spec.missing_rate > 0:
        X[rng.random((n, d)) < spec.missing_rate] = np.nan
    return Dataset(X, synthetic_feature_specs(d), labels=labels)


def preprocess(ds: Dataset, max_missing_rate: float = 0.05) -> tuple[Dataset, ScalerParams]:
    """Full pipeline: bounds -> missing-rate filter -> median impute -> z-score. The same bytes as
    those steps in turn, but only the rows kept are copied, once, and every step runs in place."""
    keep = _kept_rows(_out_of_bounds(ds.X, ds.feature_specs) | np.isnan(ds.X), max_missing_rate)
    X = ds.X[keep]
    X[_out_of_bounds(X, ds.feature_specs)] = np.nan
    _impute_median(X, ds.feature_specs)
    params = _standardize(X)
    return replace(ds, X=X, labels=None if ds.labels is None else ds.labels[keep]), params
