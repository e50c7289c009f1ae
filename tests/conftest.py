import numpy as np
import pytest
from hypothesis import strategies as st

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


# JSON leaves, the edge cases among them drawn on purpose: non-finite floats (JSON NaN, Infinity,
# and 1e400, which reads as inf), integers past int64 and strings holding a lone surrogate
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), 2**63, -2**64, 10**40, 10**400])
    | st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), min_size=1, max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def field_paths(node, path=()):
    """The path of every field under a JSON object or list, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def swap_fields(data, doc, values=JSON_VALUES):
    """``doc`` with 1 to 3 of its fields, drawn from ``data`` one after another, each set to one of ``values``."""
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, key = data.draw(st.sampled_from(list(field_paths(doc))))
        node = doc
        for step in parents:
            node = node[step]
        node[key] = data.draw(values)
    return doc
