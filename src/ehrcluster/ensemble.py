"""Label alignment across runs and binary clustering ensembles.

Independently trained clusterers name their clusters arbitrarily, so raw
0/1 labels from different runs cannot be averaged until each run is
relabeled against a common reference. ``align_labels`` does that with a
Hungarian assignment on the run-vs-reference contingency table.

Both ensembles align every run to the lexicographically smallest run
before combining. Anchoring on a run chosen from the collection itself
(rather than on whichever run happens to come first) makes the output a
pure function of the run multiset, so reordering the runs cannot flip
the result's polarity; when runs agree beyond label switching the two
anchors coincide anyway.

For binary labels, thresholded averaging (>= 0.5 maps to 1) and majority
voting with ties resolved to 1 are the same function; both are exposed
under their own names.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .autoencoder import build, pretrain
from .data import Dataset
from .deepcluster import DeepClusterConfig, assign, finetune
from .errors import EmptyRuns, LengthMismatch, SweepRunFailed, UnsupportedK
from .metrics import contingency, hungarian_max
from .util import derive_seed


def align_labels(reference, candidate) -> np.ndarray:
    """Relabel ``candidate`` by the agreement-maximizing permutation.

    Agreement with the reference never decreases; ties between equally
    good permutations resolve to the lexicographically smallest one (so a
    perfectly ambiguous candidate is returned unchanged).
    """
    reference = np.asarray(reference, dtype=int)
    candidate = np.asarray(candidate, dtype=int)
    if reference.shape != candidate.shape or reference.ndim != 1:
        raise LengthMismatch(f"shape {reference.shape} vs {candidate.shape}")
    k = int(max(reference.max(), candidate.max())) + 1
    table = contingency(reference, candidate)
    padded = np.zeros((k, k), dtype=float)
    padded[: table.shape[0], : table.shape[1]] = table
    # rows = candidate label, cols = the reference label it maps to
    perm = hungarian_max(padded.T)
    return perm[candidate]


def _as_label_matrix(runs) -> np.ndarray:
    if isinstance(runs, np.ndarray) and runs.ndim == 2:
        mat = runs.astype(int)
    else:
        runs = list(runs)
        if len(runs) == 0:
            raise EmptyRuns("no label runs given")
        lengths = {len(np.asarray(r).ravel()) for r in runs}
        if len(lengths) > 1:
            raise LengthMismatch(f"runs have differing lengths {sorted(lengths)}")
        mat = np.asarray([np.asarray(r, dtype=int).ravel() for r in runs])
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        raise EmptyRuns("no label runs given")
    if mat.min() < 0:
        raise UnsupportedK("labels must be non-negative")
    if mat.max() > 1:
        raise UnsupportedK("ensembles support binary labels only (k = 2)")
    return mat


def _binary_vote(runs) -> np.ndarray:
    mat = _as_label_matrix(runs)
    ref = min(range(mat.shape[0]), key=lambda i: tuple(mat[i]))
    aligned = np.vstack([align_labels(mat[ref], row) for row in mat])
    # integer comparison: 1 wins iff its count is at least half the voters
    ones = aligned.sum(axis=0)
    return (2 * ones >= aligned.shape[0]).astype(int)


def dimension_ensemble(runs) -> np.ndarray:
    """Per-sample average of aligned binary labels, thresholded at 0.5 (inclusive)."""
    return _binary_vote(runs)


def majority_vote(voters) -> np.ndarray:
    """Strict-majority label per sample; exact ties resolve to 1."""
    return _binary_vote(voters)


def sweep_dims(n_features: int, start: int = 2, step: int = 3) -> list[int]:
    """Embedding sizes from ``start`` up to n_features in steps of ``step``."""
    return list(range(start, n_features + 1, step))


def run_dimension_sweep(
    ds: Dataset,
    dims: list[int],
    base_config: DeepClusterConfig,
    k: int = 2,
) -> np.ndarray:
    """Train one gaussian-variant model per embedding size; stack their labels.

    Each run is fully independent with a seed derived only from
    (base seed, dimension), so the sweep is reproducible and its result
    cannot depend on execution order.
    """
    if not dims:
        raise EmptyRuns("dims must be non-empty")
    for d in dims:
        if d < 1 or d > ds.n_features:
            raise UnsupportedK(f"embed dim {d} outside [1, {ds.n_features}]")
    rows = []
    for d in dims:
        seed_d = derive_seed(base_config.train.seed, d)
        cfg = replace(
            base_config,
            variant="gaussian",
            embed_dim=d,
            train=replace(base_config.train, seed=seed_d),
        )
        try:
            model = build(ds.n_features, d, cfg.hidden, cfg.activation, seed=seed_d)
            pretrain(model, ds, cfg.train)
            dcm = finetune(model, ds, k, cfg)
            rows.append(assign(dcm, ds.X))
        except Exception as exc:
            raise SweepRunFailed(d, exc) from exc
    return np.asarray(rows, dtype=int)
