"""Label alignment across runs and binary clustering ensembles.

Independently trained clusterers name their clusters arbitrarily, so raw
0/1 labels from different runs cannot be averaged until each run is
relabeled against a common reference.

``majority_vote`` anchors on the lexicographically smallest run and flips each
run that agrees with it on fewer than half the samples; a tie keeps the run.
With two labels that flip is the relabeling that agrees most with the anchor.
It is the relabel-to-a-reference step of bagged clustering (Dudoit &
Fridlyand, 2003) and cluster ensembles (Strehl & Ghosh, 2002). An anchor
drawn from the runs makes the vote a pure function of the run multiset:
reordering the runs cannot flip its polarity.

It is the one vote of both ensembles, the dimension sweep and kgg: with ties
to 1, voting equals averaging the aligned runs and thresholding at 0.5.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .autoencoder import NETWORK_DTYPE, build, pretrain
from .data import Dataset
from .deepcluster import DeepClusterConfig, assign, finetune
from .errors import EmptyRuns, InvalidDimension, LengthMismatch, SweepRunFailed, UnsupportedK
from .metrics import whole_labels
from .util import derive_seed


def _as_label_matrix(runs) -> np.ndarray:
    """An (n_runs, n_samples) 0/1 matrix of ``runs``' items (a 2-D array's rows), each raveled."""
    runs = [np.asarray(r) for r in runs]
    if any(r.ndim == 0 for r in runs):
        raise LengthMismatch("each run must be a vector of labels, not a single label")
    lengths = {r.size for r in runs}
    if len(lengths) > 1:
        raise LengthMismatch(f"runs have differing lengths {sorted(lengths)}")
    mat = whole_labels([r.ravel() for r in runs], UnsupportedK)
    if mat.size == 0:
        raise EmptyRuns("no label runs given")
    if mat.max() > 1:
        raise UnsupportedK("ensembles support binary labels only (k = 2)")
    return mat


def majority_vote(runs) -> np.ndarray:
    """Strict-majority label per sample over the aligned binary runs; exact ties resolve to 1."""
    mat = _as_label_matrix(runs)
    anchor = min(mat.tolist())  # the lexicographically smallest run
    # a run agreeing with the anchor on fewer than half the samples is flipped; half keeps it
    flipped = 2 * (mat == anchor).sum(axis=1) < mat.shape[1]
    aligned = np.where(flipped[:, None], 1 - mat, mat)
    # integer comparison: 1 wins iff its count is at least half the voters
    return (2 * aligned.sum(axis=0) >= len(aligned)).astype(int)


# perfbench's tracer (perfbench/tracer.py, TRACED) looks the vote up under this name as well
dimension_ensemble = majority_vote


def sweep_dims(n_features: int) -> list[int]:
    """Embedding sizes from 2 up to n_features in steps of 3."""
    return list(range(2, n_features + 1, 3))


def check_sweep_dims(dims, n_features: float) -> None:
    """EmptyRuns if ``dims`` is empty, UnsupportedK if a size in it is outside [1, n_features],
    InvalidDimension if a size repeats: the embedding sizes ``run_dimension_sweep`` can run on
    a cohort of ``n_features`` features, each once."""
    if not dims:
        raise EmptyRuns("dims must be non-empty")
    for i, d in enumerate(dims):
        if d < 1 or d > n_features:
            raise UnsupportedK(f"embed dim {d} outside [1, {n_features}]")
        if d in dims[:i]:
            raise InvalidDimension(f"embed dim {d} is repeated")


def run_dimension_sweep(
    ds: Dataset,
    dims: list[int],
    base_config: DeepClusterConfig,
    k: int = 2,
    hidden: list[int] | tuple[int, ...] = (),
    activation: str = "relu",
) -> np.ndarray:
    """Train one gaussian-variant model per embedding size, in turn; stack their labels.

    Every run builds a ``NETWORK_DTYPE`` network of ``hidden`` layers and ``activation``
    (as ``build`` takes them) around its own embedding size. Each run is fully independent,
    with a seed derived only from (base seed, dimension), so the sweep over ``dims`` stacks
    the same rows as one sweep per size; the benchmark grid runs it one size per job. The
    first size that fails, in order, is raised as ``SweepRunFailed``.
    """
    check_sweep_dims(dims, ds.n_features)
    runs = []
    for d in dims:
        seed_d = derive_seed(base_config.train.seed, d)
        cfg = replace(base_config, variant="gaussian", train=replace(base_config.train, seed=seed_d))
        try:
            model = build(ds.n_features, d, hidden, activation, seed=seed_d, dtype=NETWORK_DTYPE)
            pretrain(model, ds, cfg.train)
            runs.append(assign(finetune(model, ds, k, cfg), ds.X))
        except Exception as exc:
            raise SweepRunFailed(d, exc) from exc
    return np.asarray(runs, dtype=int)
