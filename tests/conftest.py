import numpy as np
import pytest

from ehrcluster.data import Dataset, SyntheticSpec, generate_synthetic, standardize, synthetic_feature_specs


def make_dataset(X, missing=None, labels=None):
    X = np.asarray(X, dtype=float)
    # a missing cell is NaN in X; a mask, when given, must say the same
    assert missing is None or np.array_equal(missing, np.isnan(X))
    return Dataset(X, synthetic_feature_specs(X.shape[1]), labels=labels)


@pytest.fixture
def blobs():
    """Well-separated standardized two-class cohort (n=400, d=12)."""
    spec = SyntheticSpec(
        n_samples=400, n_features=12, class_ratio=1 / 1.9, separation=10.0,
        cluster_shape="spherical", missing_rate=0.0, seed=5,
    )
    ds = generate_synthetic(spec)
    ds, _ = standardize(ds)
    return ds
