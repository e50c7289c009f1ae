"""Tabular cohort loading, preprocessing, subsampling, and synthesis.

The preprocessing pipeline used throughout the toolkit is:

    plausibility bounds -> per-sample missing-rate filter
    -> per-feature median imputation -> z-score standardization

Every operation is pure: it returns a new :class:`Dataset` and never
mutates its input. A missing cell is ``NaN`` in the value matrix and
nothing else; ``Dataset.missing`` is derived from it.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from .errors import (
    AllMissingFeature,
    AllSamplesRemoved,
    ConfigError,
    EmptyFile,
    InsufficientClassSamples,
    MissingColumn,
    NonNumericCell,
)

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
        if self.X.ndim != 2:
            raise ConfigError("X must be 2-dimensional")
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
        if self.separation < 0:
            raise ConfigError("separation must be >= 0")
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
    """Read a JSON feature schema; defaults to the shipped 33-feature EHR panel."""
    if path is None:
        text = (
            importlib_resources.files("ehrcluster.resources")
            .joinpath("feature_specs.json")
            .read_text()
        )
    else:
        text = Path(path).read_text()
    raw = json.loads(text)
    specs = [
        FeatureSpec(r["name"], r.get("unit", ""), float(r["bound_lo"]), float(r["bound_hi"]))
        for r in raw
    ]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError("feature schema contains duplicate names")
    return specs


def load_csv(path: str | Path, specs: list[FeatureSpec], label_column: str | None = None) -> Dataset:
    """Load a header-bearing CSV into a Dataset, column order following ``specs``.

    Cells equal to one of ``MISSING_TOKENS`` (after stripping whitespace)
    become ``NaN``; anything else must parse as a finite float. The label
    column, when given, must hold non-negative integers on every row.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: not a readable CSV: {exc}") from None
    if not rows:
        raise EmptyFile(f"{path}: no header row")
    header, data_rows = rows[0], rows[1:]
    if not data_rows:
        raise EmptyFile(f"{path}: no data rows")

    col_index: dict[str, int] = {}
    for name in [s.name for s in specs] + ([label_column] if label_column else []):
        try:
            col_index[name] = header.index(name)
        except ValueError:
            raise MissingColumn(name) from None

    n, f = len(data_rows), len(specs)
    X = np.empty((n, f))
    labels = np.empty(n, dtype=int) if label_column else None
    for i, row in enumerate(data_rows):
        for j, spec in enumerate(specs):
            cell = row[col_index[spec.name]].strip() if col_index[spec.name] < len(row) else ""
            if cell in MISSING_TOKENS:
                X[i, j] = np.nan
                continue
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(i, spec.name) from None
            if not np.isfinite(value):
                raise NonNumericCell(i, spec.name)
            X[i, j] = value
        if label_column:
            cell = row[col_index[label_column]].strip() if col_index[label_column] < len(row) else ""
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(i, label_column) from None
            if not value.is_integer() or value < 0:
                raise NonNumericCell(i, label_column)
            labels[i] = int(value)
    return Dataset(X, list(specs), labels=labels)


def apply_bounds(ds: Dataset) -> Dataset:
    """Mask every value outside its feature's inclusive [lo, hi] bound as missing."""
    lo = np.array([s.bound_lo for s in ds.feature_specs])
    hi = np.array([s.bound_hi for s in ds.feature_specs])
    X = ds.X.copy()
    # NaN compares false on both sides, so already-missing cells are untouched.
    X[(X < lo) | (X > hi)] = np.nan
    return replace(ds, X=X)


def subset_rows(ds: Dataset, rows: np.ndarray) -> Dataset:
    """The samples that ``rows`` (a boolean mask or an index array) selects, in that order."""
    return replace(ds, X=ds.X[rows], labels=None if ds.labels is None else ds.labels[rows])


def filter_missing_rate(ds: Dataset, max_rate: float) -> Dataset:
    """Drop samples whose missing fraction strictly exceeds ``max_rate``."""
    if not 0 <= max_rate <= 1:
        raise ConfigError("max_rate must be in [0, 1]")
    keep = ds.missing.sum(axis=1) / ds.n_features <= max_rate
    if not keep.any():
        raise AllSamplesRemoved(
            f"no sample has missing rate <= {max_rate}; all {ds.n_samples} removed"
        )
    return subset_rows(ds, keep)


def impute_median(ds: Dataset) -> Dataset:
    """Replace each missing cell with the per-feature median of observed values.

    The median of an even count is the mean of the two central order
    statistics. Observed cells are returned unchanged.
    """
    X = ds.X.copy()
    missing = ds.missing
    for j, spec in enumerate(ds.feature_specs):
        observed = X[~missing[:, j], j]
        if observed.size == 0:
            raise AllMissingFeature(spec.name)
        if missing[:, j].any():
            X[missing[:, j], j] = np.median(observed)
    return replace(ds, X=X)


def standardize(ds: Dataset) -> tuple[Dataset, ScalerParams]:
    """Z-score each feature (population std, denominator n); constants map to 0.

    Constant features get std 1 in the stored params so reusing them never
    divides by zero.
    """
    if ds.missing.any():
        raise ConfigError("standardize requires a fully imputed dataset")
    mean = ds.X.mean(axis=0)
    std = ds.X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    params = ScalerParams(mean=mean, std=std)
    return replace(ds, X=params.apply(ds.X)), params


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
    """Full pipeline: bounds -> missing-rate filter -> median impute -> z-score."""
    ds = apply_bounds(ds)
    ds = filter_missing_rate(ds, max_missing_rate)
    ds = impute_median(ds)
    return standardize(ds)
