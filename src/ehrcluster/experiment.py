"""End-to-end benchmark grid: cohorts x methods, scored, ranked, and dumped.

A single JSON config drives everything. Every cohort is loaded from one
read of the CSV (or generated), preprocessed once and checked before any
cell fits. Every cohort's cells then form one job list, fitted on one
pool for the whole run; each method fits, predicts, and is timed on its
own (hybrid and deep methods include their own pretraining in the timed
span). Ground-truth labels live outside the feature matrix and are used
only for scoring.

Outputs under the configured directory:

    scores.csv    cohort,method,acc,ari,nmi          (byte-stable across reruns)
    ranks.csv     method,mean_rank,std_rank
    timings.csv   cohort,method,wall_clock_seconds   (one row per scored cell)
    manifest.json config echo, library versions, and each scored cell's record:
                  cohort, method, kind, the seed it was fitted with, its seconds
    labels/       <cohort>__<method>.csv  (sample_index,label)
    labels_runs/  <cohort>__<method>.csv  (per-dimension sweep votes)
    embeddings/   <cohort>__<method>.csv  (final embedding, one column per axis)
    history/      per-epoch loss curves for pretraining and fine-tuning
"""
from __future__ import annotations

import ctypes
import hashlib
import inspect
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .autoencoder import NETWORK_DTYPE, TrainConfig, build, encode, mirrored_dims, pretrain
from .data import (
    Dataset, SyntheticSpec, check_missing_rate, generate_synthetic, load_csv,
    load_feature_schema, preprocess, stratified_subsample, subset_rows, write_embedding, write_labels,
)
from .deepcluster import DeepClusterConfig, assign, finetune
from .ensemble import check_sweep_dims, majority_vote, run_dimension_sweep, sweep_dims
from .errors import ConfigError, ToolkitError, ValidationError
from .metrics import ScoreReport, average_rank, score, write_ranks_csv, write_score_reports_csv
from .traditional import (
    check_gmm_params, check_kmeans_params, gmm_fit, gmm_predict, kmeans_fit, kmeans_predict,
)
from .util import _build, _cast, _float, _int, _str, check_output_dir, derive_seed, read_json, write_csv

KGG_VOTER_KINDS = ("kmeans_x", "gmm_x", "deep_gaussian_sweep")


# a profile is the params it sets for every kind that takes them, unless a method sets its own
PROFILES = {
    # desk: small hidden stack so the full grid fits a laptop-scale budget
    "desk": {"pretrain_epochs": 200, "finetune_epochs": 100, "hidden": (64, 64)},
    # paper: the h-500-500-2000-d stack and long schedules
    "paper": {"pretrain_epochs": 1000, "finetune_epochs": 1000, "hidden": (500, 500, 2000)},
}


@dataclass(frozen=True)
class MethodSpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CsvSource:
    path: str
    schema: str | None = None
    label_column: str | None = None


@dataclass(frozen=True)
class CohortSpec:
    name: str
    seed_offset: int = 0             # synthetic regeneration offset
    group_column: str | None = None  # csv: filter rows by column == value
    group_value: float | None = None
    subsample_n: int | None = None   # optional stratified subsample
    subsample_ratio: float | None = None


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A config document's shape: its ``data`` field holds the one source, synthetic or CSV.
    Built by ``parse_config``, which casts method params and resolves kgg voters."""

    seed: int
    profile: str = "desk"
    k: int = 2
    max_missing_rate: float = 0.05
    output_dir: str = "out"
    methods: list[MethodSpec]
    cohorts: list[CohortSpec]
    data: SyntheticSpec | CsvSource


@dataclass
class MethodResult:
    """What one cell writes: labels, plus whatever else its method produces."""

    labels: np.ndarray
    embedding: np.ndarray | None = None
    pretrain_history: list[float] | None = None
    finetune_history: list[tuple[float, float, float]] | None = None  # (recon, kl, joint) per epoch
    label_runs: np.ndarray | None = None
    run_columns: list[str] | None = None


def _list_of(cast: Callable) -> Callable:
    """Cast for a list param: every item through ``cast``; anything but a list is a TypeError."""

    def parse(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(cast(v) for v in value)

    return parse


def _defaults_of(fn: Callable, **casts: Callable) -> dict:
    """Each named param of ``fn`` as (cast, the default ``fn``'s signature declares)."""
    declared = inspect.signature(fn).parameters
    return {name: (cast, declared[name].default) for name, cast in casts.items()}


# param name -> (cast, default); a None default leaves the param unset, or set by the profile
_KMEANS = _defaults_of(kmeans_fit, n_init=_int, max_iter=_int, tol=_float)
_GMM = _defaults_of(gmm_fit, cov_type=_str, max_iter=_int, tol=_float, reg_covar=_float)
_PRETRAIN = {
    "embed_dim": (_int, 10),
    "hidden": (_list_of(_int), None),
    **_defaults_of(build, activation=_str),
    "pretrain_epochs": (_int, None),
    **_defaults_of(TrainConfig, learning_rate=_float, batch_size=_int),
}
_DEEP = _PRETRAIN | {"finetune_epochs": (_int, None)} | _defaults_of(
    DeepClusterConfig, gamma=_float, target_update_interval=_int, recon_weight=_float,
)


def _train_config(p: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=p["learning_rate"],
        batch_size=p["batch_size"],
        epochs=p["pretrain_epochs"],
        seed=seed,
    )


def _finetune_config(p: dict, variant: str, seed: int) -> DeepClusterConfig:
    """``p``'s DeepClusterConfig: every field a param names; no param is named ``variant`` or ``train``."""
    named = {f.name: p[f.name] for f in fields(DeepClusterConfig) if f.name in p}
    return DeepClusterConfig(variant=variant, train=_train_config(p, seed), **named)


def _pretrained(ds: Dataset, p: dict, train: TrainConfig):
    model = build(
        ds.n_features, p["embed_dim"], p["hidden"], p["activation"], seed=train.seed, dtype=NETWORK_DTYPE,
    )
    _, history = pretrain(model, ds, train)
    return model, np.asarray(encode(model, ds.X), dtype=float), history


def _kmeans(X: np.ndarray, k: int, seed: int, p: dict) -> np.ndarray:
    km = kmeans_fit(X, k, seed=seed, **{name: p[name] for name in _KMEANS})
    return kmeans_predict(km, X)


def _gmm(X: np.ndarray, k: int, seed: int, p: dict) -> np.ndarray:
    gm = gmm_fit(X, k, seed=seed, **{name: p[name] for name in _GMM})
    labels, _ = gmm_predict(gm, X)
    return labels


# Every fit takes how it clusters, then (ds, k, seed, params with defaults filled), and calls the
# fitters by module-global name, so a swap of one of those names in this module reaches every
# method. Whatever dtype the network computes in, Z leaves a fit in float64.
def _fit_raw(cluster, ds, k, seed, p) -> MethodResult:
    return MethodResult(labels=cluster(ds.X, k, seed, p))


def _fit_hybrid(cluster, ds, k, seed, p) -> MethodResult:
    _, Z, history = _pretrained(ds, p, _train_config(p, seed))
    return MethodResult(labels=cluster(Z, k, seed, p), embedding=Z, pretrain_history=history)


def _fit_deep(variant, ds, k, seed, p) -> MethodResult:
    cfg = _finetune_config(p, variant, seed)
    model, _, history = _pretrained(ds, p, cfg.train)
    dcm = finetune(model, ds, k, cfg)
    return MethodResult(
        labels=assign(dcm, ds.X),
        embedding=np.asarray(encode(dcm.network, ds.X), dtype=float),
        pretrain_history=history,
        finetune_history=dcm.history,
    )


def _voted(runs, columns) -> MethodResult:
    """A voting cell's result: the majority vote over its ``runs``, one per name in ``columns``."""
    runs = np.asarray(runs, dtype=int)
    return MethodResult(labels=majority_vote(runs), label_runs=runs, run_columns=list(columns))


def _one_job(fit, how, ds, k, seed, p):
    """One job, ``fit(how, ...)``, whose result is the cell's."""
    return [(fit, (how, ds, k, seed, p))], itemgetter(0)


def _sweep(ds, k, seed, p):
    """A one-size ``run_dimension_sweep`` job per dimension, and the vote over their rows."""
    dims = p.get("dims", sweep_dims(ds.n_features))
    check_sweep_dims(dims, ds.n_features)
    cfg = _finetune_config(p, "gaussian", seed)
    jobs = [(run_dimension_sweep, (ds, (d,), cfg, k, p["hidden"], p["activation"])) for d in dims]
    return jobs, lambda runs: _voted(np.vstack(runs), [f"d{d}" for d in dims])


def _kgg(ds, k, seed, p):
    return [], partial(_voted, columns=p["voters"])  # no job: the vote over its voters' labels


@dataclass(frozen=True)
class Method:
    """One method kind: exactly the params its fit reads, each as (cast, default), and its cell,
    which takes (ds, k, seed, params with defaults filled) and returns its jobs, each (fn, args),
    and the finish that turns their results, followed by the labels of the cells its ``voters``
    param names, into its MethodResult."""

    params: dict[str, tuple[Callable, object]]
    cell: Callable[..., tuple[list[tuple], Callable]]
    binary: bool = False  # votes binary labels, so runs only at k = 2


METHODS = {
    "kmeans_x": Method(_KMEANS, partial(_one_job, _fit_raw, _kmeans)),
    "gmm_x": Method(_GMM, partial(_one_job, _fit_raw, _gmm)),
    "kmeans_z": Method(_PRETRAIN | _KMEANS, partial(_one_job, _fit_hybrid, _kmeans)),
    "gmm_z": Method(_PRETRAIN | _GMM, partial(_one_job, _fit_hybrid, _gmm)),
    "deep_student_t": Method(
        _DEEP | {"gamma": (_float, 1.0), "recon_weight": (_float, 0.0)},
        partial(_one_job, _fit_deep, "student_t"),
    ),
    "deep_student_t_recon": Method(_DEEP, partial(_one_job, _fit_deep, "student_t")),
    "deep_gaussian": Method(_DEEP, partial(_one_job, _fit_deep, "gaussian")),
    # the sweep sets each run's embed_dim from dims, which default to sweep_dims(n_features)
    "deep_gaussian_sweep": Method(
        {name: v for name, v in _DEEP.items() if name != "embed_dim"} | {"dims": (_list_of(_int), None)},
        _sweep,
        binary=True,
    ),
    # voters default to the first method of each KGG_VOTER_KINDS kind; see _kgg_voters
    "kgg": Method({"voters": (_list_of(_str), None)}, _kgg, binary=True),
}


def _with_defaults(kind: str, profile: str, params: dict) -> dict:
    """``params``, over the ``profile``'s entries for the params ``kind`` takes, over ``kind``'s
    defaults; a param with neither a profile entry nor a default stays unset."""
    entries = PROFILES[profile]
    filled = ((name, entries.get(name, default)) for name, (_, default) in METHODS[kind].params.items())
    return {**{name: value for name, value in filled if value is not None}, **params}


def _check_ranges(p: dict) -> None:
    """Raise the error the fit would raise on a setting out of range: in its training configs,
    its layer widths, its k-means or GMM settings, or its sweep dims."""
    if "gamma" in p:
        _finetune_config(p, "gaussian", 0)
    elif "batch_size" in p:
        _train_config(p, 0)
    if "n_init" in p:
        check_kmeans_params(**{name: p[name] for name in _KMEANS})
    if "cov_type" in p:
        check_gmm_params(**{name: p[name] for name in _GMM})
    if "hidden" in p:
        for embed_dim in p.get("dims", [p.get("embed_dim", 1)]):
            mirrored_dims(1, embed_dim, p["hidden"], p["activation"])
    if "dims" in p:  # their upper bound, the cohort's feature count, is checked as its cells are made
        check_sweep_dims(p["dims"], float("inf"))


def check_params(kind: str, params: dict, where: str) -> dict:
    """Return ``params`` cast for ``kind``; a ConfigError names ``where``.<param> if one is
    unknown to the kind, will not cast or is out of the range its fit accepts."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    schema = METHODS[kind].params
    out = {}
    for name, value in params.items():
        if name not in schema:
            raise ConfigError(f"{where}.{name}: not valid for kind {kind!r}")
        out[name] = _cast(schema[name][0], value, f"{where}.{name}")
        # every other param at its default, which is in range, so a failure is this one's
        try:
            _check_ranges(_with_defaults(kind, "desk", {name: out[name]}))
        except ValidationError as exc:
            raise ConfigError(f"{where}.{name}: {exc}") from None
    return out


def check_k(k, kinds, where: str) -> int:
    """``k`` cast; a ConfigError names ``where`` if it is below 2, or is not 2 for binary kinds."""
    k = _cast(_int, k, where)
    if k < 2:
        raise ConfigError(f"{where}: must be >= 2, got {k}")
    binary = sorted({kind for kind in kinds if METHODS[kind].binary})
    if binary and k != 2:
        raise ConfigError(f"{where}: must be 2, got {k}; {binary} vote binary labels")
    return k


def _cell(spec: MethodSpec, ds: Dataset, k: int, seed: int, profile: str) -> tuple[list[tuple], Callable]:
    """The cell's jobs, each (weight, fn, args), and its finish (see Method); raw kinds weigh 0 epochs."""
    p = _with_defaults(spec.kind, profile, spec.params)
    weight = p.get("pretrain_epochs", 0) + p.get("finetune_epochs", 0)
    jobs, finish = METHODS[spec.kind].cell(ds, k, seed, p)
    return [(weight, fn, args) for fn, args in jobs], finish


def _kgg_voters(methods: list[MethodSpec], spec: MethodSpec, where: str) -> tuple[str, ...]:
    """A kgg method's three distinct voters: its own, or the first method of each voter kind."""
    voters = spec.params.get("voters")
    if voters is None:
        first = {}
        for m in methods:
            first.setdefault(m.kind, m.name)
        missing = [kind for kind in KGG_VOTER_KINDS if kind not in first]
        if missing:
            raise ConfigError(f"methods: kgg requires voter kinds {missing} to be present")
        voters = tuple(first[kind] for kind in KGG_VOTER_KINDS)
    if len(voters) != 3:
        raise ConfigError(f"{where}: kgg needs exactly 3 voters, got {list(voters)}")
    known = {m.name for m in methods if m.kind != "kgg"}
    for i, v in enumerate(voters):
        if v not in known:
            raise ConfigError(f"{where}: {v!r} is not a configured non-kgg method")
        if v in voters[:i]:
            raise ConfigError(f"{where}: {v!r} is repeated")
    return voters


# a cohort field -> the field its load needs beside it
_COHORT_NEEDS = {
    "group_column": "group_value", "group_value": "group_column", "subsample_ratio": "subsample_n",
}


def _check_cohort(cohort: CohortSpec, data: SyntheticSpec | CsvSource, where: str) -> None:
    """ConfigError naming ``where``.<field> for a field the cohort's load from ``data`` would
    ignore, misread or refuse."""
    for name, needs in _COHORT_NEEDS.items():
        if getattr(cohort, name) is None:
            continue
        if isinstance(data, SyntheticSpec) and name.startswith("group_"):
            raise ConfigError(f"{where}.{name}: synthetic data has no column to group by")
        if getattr(cohort, needs) is None:
            raise ConfigError(f"{where}.{name}: requires {needs}")
    for name, low in (("subsample_n", 1), ("subsample_ratio", 0)):
        value = getattr(cohort, name)
        if value is not None and not low <= value < float("inf"):
            raise ConfigError(f"{where}.{name}: must be finite and >= {low}, got {value}")


def _check_name(name: str, taken: list, where: str) -> None:
    """ConfigError naming ``where`` unless ``name`` is new among the ``taken`` specs' names and fit
    to name output files: a cell's are ``<cohort>__<method>``, its pretrain history adds
    ``__pretrain``, so a name is non-empty, holds no path separator, NUL or ``__``, neither starts
    nor ends with ``_``, and is 1 to 119 bytes of valid UTF-8 (a lone surrogate, JSON ``"\\ud800"``,
    has no UTF-8 form), which keeps the longest file name, ``<cohort>__<method>__pretrain.csv``,
    within the usual 255-byte limit."""
    if (not name or name.strip("_") != name or any("\ud800" <= c <= "\udfff" for c in name)
            or len(name.encode("utf-8")) > 119 or any(bad in name for bad in ("/", "\\", "\0", "__"))):
        raise ConfigError(f"{where}: must be 1 to 119 bytes of valid UTF-8, with no '/', '\\', NUL or '__' "
                          f"and no '_' at either end, got {name!r}")
    if name in {spec.name for spec in taken}:
        raise ConfigError(f"{where}: duplicate {name!r}")


# a data source's key in a config's ``data`` object -> its type
_SOURCES = {"synthetic": SyntheticSpec, "csv": CsvSource}


def parse_config(doc: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a JSON config document into an ``ExperimentConfig`` of its shape, ``data`` the one
    source it names; any error, an unknown field at any level too, is a ConfigError naming its path."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    sources = doc.get("data")
    if not isinstance(sources, dict) or len(sources.keys() & _SOURCES.keys()) != 1:
        raise ConfigError("data: exactly one of data.synthetic or data.csv is required")
    for source, raw in sources.items():
        if source not in _SOURCES:
            raise ConfigError(f"data.{source}: unknown field")
        data = _build(_SOURCES[source], raw, f"data.{source}")
    if isinstance(data, CsvSource):
        def resolve(path, where):  # a relative path is read from ``base_dir``
            if path is not None:
                _cast(os.fsencode, path, where)  # a lone surrogate, JSON "\ud800", has no file-system form
            if path is None or base_dir is None or Path(path).is_absolute():
                return path
            return str((base_dir / path).resolve())
        data = replace(data, path=resolve(data.path, "data.csv.path"),
                       schema=resolve(data.schema, "data.csv.schema"))

    methods_raw = doc.get("methods")
    if not methods_raw or not isinstance(methods_raw, list):
        raise ConfigError("methods: a list of at least one method is required")
    methods = []
    for i, raw in enumerate(methods_raw):
        m = _build(MethodSpec, raw, f"methods[{i}]")
        _check_name(m.name, methods, f"methods[{i}].name")
        if m.kind not in METHODS:
            raise ConfigError(f"methods[{i}].kind: unknown kind {m.kind!r}")
        methods.append(replace(m, params=check_params(m.kind, m.params, f"methods[{i}].params")))
    methods = [
        replace(m, params={"voters": _kgg_voters(methods, m, f"methods[{i}].params.voters")})
        if m.kind == "kgg" else m
        for i, m in enumerate(methods)
    ]

    cohorts_raw = doc.get("cohorts", [{"name": "all"}])
    if not isinstance(cohorts_raw, list) or not cohorts_raw:
        raise ConfigError("cohorts: expected a non-empty list")
    cohorts = []
    for i, c in enumerate(cohorts_raw):
        cohort = _build(CohortSpec, c, f"cohorts[{i}]", seed_offset=i)
        _check_name(cohort.name, cohorts, f"cohorts[{i}].name")
        _check_cohort(cohort, data, f"cohorts[{i}]")
        cohorts.append(cohort)

    top = {key: value for key, value in doc.items() if key not in ("data", "methods", "cohorts")}
    config = _build(ExperimentConfig, top, "", data=data, methods=methods, cohorts=cohorts)
    if config.profile not in PROFILES:
        raise ConfigError(f"profile: unknown profile {config.profile!r}")
    check_k(config.k, [m.kind for m in methods], "k")
    _cast(check_missing_rate, config.max_missing_rate, "max_missing_rate")
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(read_json(path), base_dir=path.parent)


def _cohorts(config: ExperimentConfig) -> list[Dataset]:
    """Every cohort preprocessed, in config order: every group_column checked against the schema,
    the CSV read once, then each cohort subset, subsampled, preprocessed and checked for labels and
    for more than k samples."""
    csv = isinstance(config.data, CsvSource)
    if csv:
        specs = load_feature_schema(config.data.schema)
        names = [s.name for s in specs]
        for i, cohort in enumerate(config.cohorts):
            if cohort.group_column is not None and cohort.group_column not in names:
                raise ConfigError(f"cohorts[{i}].group_column: {cohort.group_column!r} not in schema")
        extract = load_csv(config.data.path, specs, label_column=config.data.label_column)
    preps = []
    for i, cohort in enumerate(config.cohorts):
        ds = extract if csv else generate_synthetic(
            replace(config.data, seed=derive_seed(config.data.seed, cohort.seed_offset))
        )
        if cohort.group_column is not None:  # parse_config allows a group on CSV data only
            in_group = ds.X[:, names.index(cohort.group_column)] == cohort.group_value
            if not in_group.any():
                raise ConfigError(
                    f"cohort {cohort.name!r}: no row has {cohort.group_column} == {cohort.group_value}"
                )
            ds = subset_rows(ds, in_group)
        if cohort.subsample_n is not None:
            ratio = 1.0 if cohort.subsample_ratio is None else cohort.subsample_ratio
            seed = derive_seed(config.seed, cohort.seed_offset, 0x5AB)
            try:
                ds = stratified_subsample(ds, cohort.subsample_n, ratio, seed)
            except ValidationError as exc:
                raise ConfigError(f"cohorts[{i}].subsample_n: cohort {cohort.name!r}: {exc}") from None
        prep, _scaler = preprocess(ds, config.max_missing_rate)
        if prep.labels is None:
            raise ConfigError(f"cohort {cohort.name!r} has no ground-truth labels to score against")
        if prep.n_samples <= config.k:  # every method splits the cohort into k clusters, not singletons
            raise ConfigError(f"cohort {cohort.name!r}: {prep.n_samples} sample(s) kept, need more than k={config.k}")
        preps.append(prep)
    return preps


@dataclass
class ExperimentResult:
    """What a run wrote. ``scores`` and ``cells`` hold one entry per scored cell, in the same
    order: its ScoreReport, and its record (cohort, method, kind, seed, wall_clock_seconds) that
    the manifest's ``cells`` and the ``timings.csv`` rows are written from. ``ranks`` is empty
    if a cell failed; ``failures`` holds one entry per failed cell."""

    output_dir: Path
    scores: list[ScoreReport]
    cells: list[dict]
    ranks: dict[str, tuple[float, float]]
    failures: list[dict]


def _blas_functions(**signatures):
    """numpy's OpenBLAS functions, each ``op=(argtypes, restype)``, under the first of its three
    export prefixes that has them all, or None where numpy's BLAS has none of them."""
    # a lookup through numpy's extension module (numpy.core before numpy 2) searches its BLAS as well
    umath = sys.modules.get("numpy._core._multiarray_umath", sys.modules.get("numpy.core._multiarray_umath"))
    blas = ctypes.CDLL(umath.__file__) if umath is not None else None
    for prefix in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
        found = tuple(getattr(blas, prefix.format(op), None) for op in signatures)
        if None not in found:
            for fn, (argtypes, restype) in zip(found, signatures.values()):
                fn.argtypes, fn.restype = argtypes, restype
            return found
    return None


def _blas_threads():
    """numpy's OpenBLAS thread-count (getter, setter), or None where its BLAS has none."""
    return _blas_functions(get_num_threads=([], ctypes.c_int), set_num_threads=([ctypes.c_int], None))


def _blas_core() -> str | None:
    """The kernel numpy's OpenBLAS picked for this CPU (``SkylakeX``, ...), or None if it names none."""
    found = _blas_functions(get_corename=([], ctypes.c_char_p))
    return None if found is None else found[0]().decode()


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread, which a process forked in it
    inherits, and restore its thread count after. Where ``_blas_threads`` finds no setter, the
    block runs at the thread count it finds."""
    get, set_ = _blas_threads() or (lambda: None, lambda threads: None)
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def _timed(fn, *args):
    """``fn(*args)`` and the seconds it took, measured in the process that ran it."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _attempt(fn, *args):
    """``fn(*args)``'s outcome: its result, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- one failed cell must not stop the grid
        return exc


def _module_functions() -> dict[tuple[str, str], object]:
    """Every callable bound at module level in the loaded ehrcluster modules."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "ehrcluster" or name.startswith("ehrcluster.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def _usable_cores() -> int:
    """Usable cores, or 1 where the pool cannot run the jobs as this process would: a module-level
    function has been swapped since import (a spy, a tracer: a forked worker's calls to it are
    recorded in the worker and lost), the platform has no ``fork`` start method, another Python
    thread runs (a forked worker copies only the calling thread, so a lock another one holds would
    never be released in it), or numpy's BLAS exports no thread setter to hold the workers at one
    thread."""
    import multiprocessing
    import threading

    now = _module_functions()
    if (
        any(now.get(key) is not value for key, value in _AT_IMPORT.items())
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
        or _blas_threads() is None
    ):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# the (fn, args) calls of the pool running, which each of its workers inherits as it forks; one
# pool at a time, as ``_usable_cores`` allows none beside another thread
_POOL_CALLS: list[tuple] = []


def _run_inherited(i: int):
    """``_timed`` on call ``i`` of the ``_POOL_CALLS`` this forked worker inherited."""
    fn, args = _POOL_CALLS[i]
    return _timed(fn, *args)


def _run_pool(calls: list[tuple], workers: int) -> list:
    """Each (fn, args) call's outcome, in order: ``_timed``'s (result, seconds) or the exception
    raised. The calls are submitted in order to a pool of ``workers`` processes forked from this
    one, and every worker is joined before this returns. A worker inherits the calls, and this
    process's BLAS thread count, when it forks and is sent only a call's index; the call's outcome
    comes back pickled."""
    # imported here, not at module level, so that importing the package never pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _POOL_CALLS[:] = calls  # before the pool exists, so every worker it forks holds them
    try:
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
        try:
            # a worker that dies breaks the pool, so a later submit may raise BrokenProcessPool itself
            futures = [_attempt(pool.submit, _run_inherited, i) for i in range(len(calls))]
            return [f if isinstance(f, Exception) else _attempt(f.result) for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _POOL_CALLS.clear()


def _fit_on_pool(jobs: list[tuple], workers: int) -> list:
    """Each job's outcome, in job order: ``_timed``'s (result, seconds) or the exception raised.

    The jobs run heaviest first on ``_run_pool``'s ``workers`` processes. A worker that dies
    breaks the pool for every job not yet done. Each of those reruns alone in a new one-worker
    pool, so only a job that kills its own worker fails, with ``BrokenProcessPool``.
    """
    from concurrent.futures.process import BrokenProcessPool

    order = sorted(range(len(jobs)), key=lambda i: -jobs[i][0])
    ran = dict(zip(order, _run_pool([jobs[i][1:] for i in order], workers)))
    outcomes = [ran[i] for i in range(len(jobs))]
    for i, job in enumerate(jobs):
        if isinstance(outcomes[i], BrokenProcessPool):
            (outcomes[i],) = _run_pool([job[1:]], 1)
    return outcomes


def _finished(finish, runs: list[tuple], voted: list[tuple]) -> tuple[MethodResult, float]:
    """A cell's (MethodResult, seconds), the seconds its jobs' (``runs``) and its finish's; a voter
    that failed, in ``voted``'s (name, outcome) pairs, fails it with a ToolkitError naming it."""
    for name, outcome in voted:
        if isinstance(outcome, Exception):
            raise ToolkitError(f"voter {name!r} failed: {outcome}") from outcome
    result, seconds = _timed(finish, [out for out, _ in runs] + [out.labels for _, (out, _) in voted])
    return result, seconds + sum(s for _, s in runs)


def _fit_grid(config: ExperimentConfig, preps: list[Dataset], cores: int) -> tuple[list[tuple], int]:
    """Every cell as (cohort index, MethodSpec, seed, outcome) in config order, and the number of
    processes that fitted the cells.

    Method j of cohort ci is fitted with the seed ``derive_seed`` mixes from the config's seed,
    ci and j. An outcome is (MethodResult, seconds) or the exception the cell raised. Every cell's
    jobs are one list, cohort-major, run on a pool if it holds two or more jobs and there are two
    or more ``cores``, else here; either way this process holds one BLAS thread while they run,
    which the pool's forked workers inherit, so every job computes the same bytes.
    """
    grid = [(ci, m, derive_seed(config.seed, ci, j))
            for ci in range(len(preps)) for j, m in enumerate(config.methods)]
    # a cell that names voters comes after them; parse_config lets no voter vote
    order = sorted(grid, key=lambda cell: "voters" in cell[1].params)
    cells = {(ci, m.name): _attempt(_cell, m, preps[ci], config.k, seed, config.profile) for ci, m, seed in order}
    flat = [job for cell in cells.values() if not isinstance(cell, Exception) for job in cell[0]]
    workers = min(cores, len(flat))
    with _one_blas_thread():
        done = iter(_fit_on_pool(flat, workers) if workers >= 2
                    else [_attempt(_timed, fn, *args) for _, fn, args in flat])
    outcomes = {}
    for ci, m, _ in order:
        cell = cells[ci, m.name]
        runs = [cell] if isinstance(cell, Exception) else [next(done) for _ in cell[0]]
        failed = [run for run in runs if isinstance(run, Exception)]
        voted = [(v, outcomes[ci, v]) for v in m.params.get("voters", ())]
        outcomes[ci, m.name] = failed[0] if failed else _attempt(_finished, cell[1], runs, voted)
    return [(ci, m, seed, outcomes[ci, m.name]) for ci, m, seed in grid], max(workers, 1)


def _write_result(out: Path, stem: str, result: MethodResult | None) -> None:
    """Write a cell's files under ``stem``, none for a failed cell (None), after removing every
    file of the cell that a previous run into ``out`` left, so each one present is this run's."""
    names = ("labels/{}.csv", "labels_runs/{}.csv", "embeddings/{}.csv", "history/{}.csv",
             "history/{}__pretrain.csv")
    labels, runs, embedding, history, pretrain_history = paths = [out / name.format(stem) for name in names]
    for path in paths:
        path.unlink(missing_ok=True)
    if result is None:
        return
    write_labels(labels, result.labels)
    if result.embedding is not None:
        write_embedding(embedding, result.embedding)
    if result.pretrain_history is not None:
        write_csv(pretrain_history, ["epoch", "loss"], list(enumerate(result.pretrain_history)))
    if result.finetune_history is not None:
        write_csv(
            history,
            ["epoch", "recon_loss", "kl_loss", "joint_loss"],
            [(i, *losses) for i, losses in enumerate(result.finetune_history)],
        )
    if result.label_runs is not None:
        write_csv(runs, result.run_columns, result.label_runs.T.tolist())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the cohort x method grid and write every report file.

    Every cohort is loaded and checked before any cell fits, from one read of the CSV, so a
    cohort that cannot load fails the run before any fit or file. Then every cohort's jobs
    (one a cell, a sweep's one per dimension, kgg's none) form one list, which runs on one pool
    of processes forked from this one, one per usable core and at most one per job, when there
    are at least two jobs and ``_usable_cores`` finds at least two; otherwise in this process.
    Either way every file is written in config order, and the caller needs no ``if __name__ ==
    "__main__":`` guard. The config gets every check ``parse_config`` makes, so one built in
    Python is refused as its document would be.
    """
    config = parse_config(_config_doc(config))
    check_output_dir(config.output_dir, "output_dir")
    preps = _cohorts(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    fitted, workers = _fit_grid(config, preps, _usable_cores())

    scores: list[ScoreReport] = []
    failures: list[dict] = []
    cells: list[dict] = []
    for ci, spec, seed, outcome in fitted:
        cohort = config.cohorts[ci].name
        cell = {"cohort": cohort, "method": spec.name}
        result = None
        if isinstance(outcome, Exception):
            failures.append({**cell, "error": str(outcome), "type": type(outcome).__name__,
                             "traceback": "".join(traceback.format_exception(outcome))})
        else:
            result, elapsed = outcome
            scores.append(score(preps[ci].labels, result.labels, spec.name, cohort))
            cells.append({**cell, "kind": spec.kind, "seed": seed, "wall_clock_seconds": elapsed})
        _write_result(out, f"{cohort}__{spec.name}", result)

    # scores.csv holds no clock, so reruns are byte-identical; the cell records carry it
    write_score_reports_csv(scores, out / "scores.csv")
    timing = ("cohort", "method", "wall_clock_seconds")
    write_csv(out / "timings.csv", timing, map(itemgetter(*timing), cells))
    ranks = {}
    if not failures:
        ranks = average_rank(scores)
        write_ranks_csv(ranks, out / "ranks.csv")
    else:  # a run with a failed cell ranks nothing, so no earlier run's ranks may stand
        (out / "ranks.csv").unlink(missing_ok=True)

    doc = _config_doc(config)
    manifest = {
        "config": doc,
        "config_hash": _config_hash(doc),
        "versions": _versions(),
        "profile": PROFILES[config.profile],
        "workers": workers,
        "cells": cells,
        "failures": failures,
        "notes": (
            "Image-specific deep baselines (DEPICT, DynAE, DKM, AE-CM) are not part of "
            "this toolkit; the student-t variants stand in for the DEC/IDEC family."
        ),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))
    return ExperimentResult(out, scores, cells, ranks, failures)


def _versions() -> dict:
    import platform

    import numpy

    threads = _blas_threads()  # the calling process's count; each pool worker runs at one
    return {
        "ehrcluster": __version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas_core": _blas_core(),
        "blas_threads": None if threads is None else threads[0](),
    }


def _config_doc(config: ExperimentConfig) -> dict:
    """The config as a document of the shape ``parse_config`` reads."""
    source = "synthetic" if isinstance(config.data, SyntheticSpec) else "csv"
    return {**asdict(config), "data": {source: asdict(config.data)}}


def _config_hash(doc: dict) -> str:
    """The sha256 that identifies a config document, wherever its outputs were written."""
    hashed = {key: value for key, value in doc.items() if key != "output_dir"}
    return hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()


# identities of the package's functions once imported, for _usable_cores
_AT_IMPORT = _module_functions()
