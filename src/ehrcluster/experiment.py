"""End-to-end benchmark grid: cohorts x methods, scored, ranked, and dumped.

A single JSON config drives everything. Per cohort the data is
preprocessed once; each method then fits, predicts, and is timed on its
own (hybrid and deep methods include their own pretraining in the timed
span). Ground-truth labels live outside the feature matrix and are used
only for scoring.

Outputs under the configured directory:

    scores.csv    cohort,method,acc,ari,nmi          (byte-stable across reruns)
    ranks.csv     method,mean_rank,std_rank
    timings.csv   cohort,method,wall_clock_seconds
    manifest.json config echo, derived seeds, library versions, timings
    labels/       <cohort>__<method>.csv  (sample_index,label)
    labels_runs/  <cohort>__<method>.csv  (per-dimension sweep votes)
    embeddings/   <cohort>__<method>.csv  (final embedding, one column per axis)
    history/      per-epoch loss curves for pretraining and fine-tuning
"""
from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .autoencoder import TrainConfig, build, encode, pretrain
from .data import (
    Dataset, SyntheticSpec, generate_synthetic, load_csv, load_feature_schema, preprocess,
    stratified_subsample, subset_rows,
)
from .deepcluster import DeepClusterConfig, assign, finetune
from .ensemble import dimension_ensemble, majority_vote, run_dimension_sweep, sweep_dims
from .errors import ConfigError
from .metrics import ScoreReport, average_rank, score, write_ranks_csv, write_score_reports_csv
from .traditional import gmm_fit, gmm_predict, kmeans_fit, kmeans_predict
from .util import derive_seed, write_csv

KGG_VOTER_KINDS = ("kmeans_x", "gmm_x", "deep_gaussian_sweep")


@dataclass(frozen=True)
class Profile:
    name: str
    pretrain_epochs: int
    finetune_epochs: int
    hidden: tuple[int, ...]
    batch_size: int
    learning_rate: float
    target_update_interval: int = 10
    embed_dim: int = 10


PROFILES = {
    # desk: small hidden stack so the full grid fits a laptop-scale budget
    "desk": Profile("desk", 200, 100, (64, 64), 256, 1e-3),
    # paper: the h-500-500-2000-d stack and long schedules
    "paper": Profile("paper", 1000, 1000, (500, 500, 2000), 256, 1e-3),
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Built by ``parse_config``, which casts method params and resolves kgg voters."""

    seed: int
    methods: list[MethodSpec]
    cohorts: list[CohortSpec]
    synthetic: SyntheticSpec | None = None
    csv: CsvSource | None = None
    profile: str = "desk"
    k: int = 2
    max_missing_rate: float = 0.05
    output_dir: str = "out"


@dataclass
class MethodResult:
    """What one cell writes: labels, plus whatever else its method produces."""

    labels: np.ndarray
    embedding: np.ndarray | None = None
    pretrain_history: list[float] | None = None
    finetune_history: list[tuple[float, float, float]] | None = None  # (recon, kl, joint) per epoch
    label_runs: np.ndarray | None = None
    run_columns: list[str] | None = None


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _list_of(cast: Callable) -> Callable:
    """Cast for a list param: every item through ``cast``; anything but a list is a TypeError."""

    def parse(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(cast(v) for v in value)

    return parse


# a default that reads the profile's field of the same name at run time, since
# ``benchmark --profile`` may swap the profile after the config is parsed
FROM_PROFILE = "profile"

# param name -> (cast, default); a None default leaves the param unset
_KMEANS = {"n_init": (int, 10), "max_iter": (int, 300), "tol": (float, 1e-4)}
_GMM = {
    "cov_type": (_str, "full"),
    "max_iter": (int, 300),
    "tol": (float, 1e-3),
    "reg_covar": (float, 1e-6),
}
_PRETRAIN = {
    "embed_dim": (int, FROM_PROFILE),
    "hidden": (_list_of(int), FROM_PROFILE),
    "activation": (_str, "relu"),
    "pretrain_epochs": (int, FROM_PROFILE),
    "learning_rate": (float, FROM_PROFILE),
    "batch_size": (int, FROM_PROFILE),
}
_DEEP = _PRETRAIN | {
    "finetune_epochs": (int, FROM_PROFILE),
    "gamma": (float, 0.1),
    "target_update_interval": (int, FROM_PROFILE),
    "recon_weight": (float, 1.0),
}
# the DeepClusterConfig fields that share their name with a param
_FINETUNE_FIELDS = ("embed_dim", "hidden", "activation", "finetune_epochs", "gamma",
                    "target_update_interval", "recon_weight")


def _train_config(p: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=p["learning_rate"],
        batch_size=p["batch_size"],
        epochs=p["pretrain_epochs"],
        seed=seed,
    )


def _finetune_config(p: dict, variant: str, seed: int) -> DeepClusterConfig:
    fields = {name: p[name] for name in _FINETUNE_FIELDS if name in p}
    return DeepClusterConfig(variant=variant, train=_train_config(p, seed), **fields)


def _pretrained(ds: Dataset, p: dict, train: TrainConfig):
    model = build(ds.n_features, p["embed_dim"], p["hidden"], p["activation"], seed=train.seed)
    _, history = pretrain(model, ds, train)
    return model, encode(model, ds.X), history


def _kmeans(X: np.ndarray, k: int, seed: int, p: dict) -> np.ndarray:
    km = kmeans_fit(X, k, seed=seed, n_init=p["n_init"], max_iter=p["max_iter"], tol=p["tol"])
    return kmeans_predict(km, X)


def _gmm(X: np.ndarray, k: int, seed: int, p: dict) -> np.ndarray:
    gm = gmm_fit(
        X, k, cov_type=p["cov_type"], seed=seed,
        max_iter=p["max_iter"], tol=p["tol"], reg_covar=p["reg_covar"],
    )
    labels, _ = gmm_predict(gm, X)
    return labels


# Every fit takes (ds, k, seed, params with defaults filled, labels produced so
# far in the cohort) and calls the fitters by module-global name, so a swap of
# one of those names in this module reaches every method.
def _fit_raw(cluster, ds, k, seed, p, produced) -> MethodResult:
    return MethodResult(labels=cluster(ds.X, k, seed, p))


def _fit_hybrid(cluster, ds, k, seed, p, produced) -> MethodResult:
    _, Z, history = _pretrained(ds, p, _train_config(p, seed))
    return MethodResult(labels=cluster(Z, k, seed, p), embedding=Z, pretrain_history=history)


def _fit_deep(variant, ds, k, seed, p, produced) -> MethodResult:
    cfg = _finetune_config(p, variant, seed)
    model, _, history = _pretrained(ds, p, cfg.train)
    dcm = finetune(model, ds, k, cfg)
    return MethodResult(
        labels=assign(dcm, ds.X),
        embedding=encode(dcm.network, ds.X),
        pretrain_history=history,
        finetune_history=list(zip(dcm.recon_history, dcm.kl_history, dcm.joint_history)),
    )


def _fit_sweep(ds, k, seed, p, produced) -> MethodResult:
    dims = p.get("dims", sweep_dims(ds.n_features))
    runs = run_dimension_sweep(ds, dims, _finetune_config(p, "gaussian", seed), k=k)
    return MethodResult(
        labels=dimension_ensemble(runs), label_runs=runs, run_columns=[f"d{d}" for d in dims],
    )


def _fit_kgg(ds, k, seed, p, produced) -> MethodResult:
    runs = [produced[name] for name in p["voters"]]
    return MethodResult(
        labels=majority_vote(runs),
        label_runs=np.asarray(runs, dtype=int),
        run_columns=list(p["voters"]),
    )


@dataclass(frozen=True)
class Method:
    """One method kind: exactly the params its fit reads, each as (cast, default)."""

    params: dict[str, tuple[Callable, object]]
    fit: Callable[..., MethodResult]


METHODS = {
    "kmeans_x": Method(_KMEANS, partial(_fit_raw, _kmeans)),
    "gmm_x": Method(_GMM, partial(_fit_raw, _gmm)),
    "kmeans_z": Method(_PRETRAIN | _KMEANS, partial(_fit_hybrid, _kmeans)),
    "gmm_z": Method(_PRETRAIN | _GMM, partial(_fit_hybrid, _gmm)),
    "deep_student_t": Method(
        _DEEP | {"gamma": (float, 1.0), "recon_weight": (float, 0.0)},
        partial(_fit_deep, "student_t"),
    ),
    "deep_student_t_recon": Method(_DEEP, partial(_fit_deep, "student_t")),
    "deep_gaussian": Method(_DEEP, partial(_fit_deep, "gaussian")),
    # the sweep sets each run's embed_dim from dims, which default to sweep_dims(n_features)
    "deep_gaussian_sweep": Method(
        {name: v for name, v in _DEEP.items() if name != "embed_dim"} | {"dims": (_list_of(int), None)},
        _fit_sweep,
    ),
    # voters default to the first method of each KGG_VOTER_KINDS kind; see _kgg_voters
    "kgg": Method({"voters": (_list_of(_str), None)}, _fit_kgg),
}


def _cast(cast: Callable, value, where: str):
    """``cast(value)``; a value that will not cast is a ConfigError naming ``where``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def check_params(kind: str, params: dict, where: str) -> dict:
    """Return ``params`` cast for ``kind``; a ConfigError names ``where``.<param> if one is
    unknown to the kind or will not cast."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    schema = METHODS[kind].params
    out = {}
    for name, value in params.items():
        if name not in schema:
            raise ConfigError(f"{where}.{name}: not valid for kind {kind!r}")
        out[name] = _cast(schema[name][0], value, f"{where}.{name}")
    return out


# the cast of a config dataclass field, by its annotation; a "... | None" field also takes null
_FIELD_CASTS = {"int": int, "float": float, "str": _str}


def _build(cls, raw, where: str, **defaults):
    """``cls`` from a JSON object, every field cast by its annotation; a ConfigError names
    ``where``.<field> if one is unknown, absent but required, or will not cast."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    kwargs = dict(defaults)
    for name, value in raw.items():
        if name not in types:
            raise ConfigError(f"{where}.{name}: unknown field")
        optional = types[name].endswith(" | None")
        cast = _FIELD_CASTS[types[name].removesuffix(" | None")]
        kwargs[name] = None if optional and value is None else _cast(cast, value, f"{where}.{name}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in kwargs:
            raise ConfigError(f"{where}.{f.name}: required")
    return cls(**kwargs)


def run_method(
    spec: MethodSpec,
    ds: Dataset,
    k: int,
    seed: int,
    profile: Profile,
    produced: dict[str, np.ndarray] | None = None,
) -> MethodResult:
    """Fit one method on a preprocessed cohort; ``produced`` holds a kgg method's voter labels."""
    method = METHODS[spec.kind]
    p = {
        name: getattr(profile, name) if default == FROM_PROFILE else default
        for name, (_, default) in method.params.items()
        if default is not None
    }
    return method.fit(ds, k, seed, {**p, **spec.params}, produced)


def _kgg_voters(methods: list[MethodSpec], spec: MethodSpec, where: str) -> tuple[str, ...]:
    """A kgg method's three voters: its own, or the first method of each voter kind."""
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
    for v in voters:
        if v not in known:
            raise ConfigError(f"{where}: {v!r} is not a configured non-kgg method")
    return voters


def parse_config(doc: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a JSON config document; errors carry the offending field path."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    if "seed" not in doc:
        raise ConfigError("seed: required")
    data = doc.get("data")
    if not isinstance(data, dict) or ("synthetic" not in data) == ("csv" not in data):
        raise ConfigError("data: exactly one of data.synthetic or data.csv is required")
    synthetic = None
    csv_source = None
    if "synthetic" in data:
        synthetic = _build(SyntheticSpec, data["synthetic"], "data.synthetic")
    else:
        csv_source = _build(CsvSource, data["csv"], "data.csv")
        if base_dir is not None:
            path, schema = csv_source.path, csv_source.schema
            path = str((base_dir / path).resolve()) if not Path(path).is_absolute() else path
            if schema is not None and not Path(schema).is_absolute():
                schema = str((base_dir / schema).resolve())
            csv_source = replace(csv_source, path=path, schema=schema)

    methods_raw = doc.get("methods")
    if not methods_raw or not isinstance(methods_raw, list):
        raise ConfigError("methods: a list of at least one method is required")
    methods = []
    seen = set()
    for i, m in enumerate(methods_raw):
        if not isinstance(m, dict):
            raise ConfigError(f"methods[{i}]: expected a JSON object")
        name = m.get("name")
        kind = m.get("kind")
        if not name or not isinstance(name, str):
            raise ConfigError(f"methods[{i}].name: required, a non-empty string")
        if name in seen:
            raise ConfigError(f"methods[{i}].name: duplicate {name!r}")
        seen.add(name)
        if not isinstance(kind, str) or kind not in METHODS:
            raise ConfigError(f"methods[{i}].kind: unknown kind {kind!r}")
        params = check_params(kind, m.get("params", {}), f"methods[{i}].params")
        methods.append(MethodSpec(name, kind, params))
    methods = [
        replace(m, params={"voters": _kgg_voters(methods, m, f"methods[{i}].params.voters")})
        if m.kind == "kgg" else m
        for i, m in enumerate(methods)
    ]

    cohorts_raw = doc.get("cohorts") or [{"name": "all"}]
    if not isinstance(cohorts_raw, list):
        raise ConfigError("cohorts: expected a list")
    cohorts = []
    for i, c in enumerate(cohorts_raw):
        cohort = _build(CohortSpec, c, f"cohorts[{i}]", seed_offset=i)
        if cohort.name in {earlier.name for earlier in cohorts}:
            raise ConfigError(f"cohorts[{i}].name: duplicate {cohort.name!r}")
        cohorts.append(cohort)

    profile = _cast(_str, doc.get("profile", "desk"), "profile")
    if profile not in PROFILES:
        raise ConfigError(f"profile: unknown profile {profile!r}")
    return ExperimentConfig(
        seed=_cast(int, doc["seed"], "seed"),
        methods=methods,
        cohorts=cohorts,
        synthetic=synthetic,
        csv=csv_source,
        profile=profile,
        k=_cast(int, doc.get("k", 2), "k"),
        max_missing_rate=_cast(float, doc.get("max_missing_rate", 0.05), "max_missing_rate"),
        output_dir=_cast(_str, doc.get("output_dir", "out"), "output_dir"),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc, base_dir=path.parent)


def _load_cohort(config: ExperimentConfig, cohort: CohortSpec) -> Dataset:
    if config.synthetic is not None:
        spec = replace(config.synthetic, seed=derive_seed(config.synthetic.seed, cohort.seed_offset))
        ds = generate_synthetic(spec)
    else:
        specs = load_feature_schema(config.csv.schema)
        ds = load_csv(config.csv.path, specs, label_column=config.csv.label_column)
        if cohort.group_column is not None:
            names = [s.name for s in specs]
            if cohort.group_column not in names:
                raise ConfigError(f"cohorts: group_column {cohort.group_column!r} not in schema")
            ds = subset_rows(ds, ds.X[:, names.index(cohort.group_column)] == cohort.group_value)
    if cohort.subsample_n is not None:
        ds = stratified_subsample(
            ds,
            cohort.subsample_n,
            cohort.subsample_ratio if cohort.subsample_ratio is not None else 1.0,
            seed=derive_seed(config.seed, cohort.seed_offset, 0x5AB),
        )
    return ds


@dataclass
class ExperimentResult:
    output_dir: Path
    scores: list[ScoreReport]
    ranks: dict[str, tuple[float, float]]
    failures: list[dict]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the cohort x method grid and write every report file."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    scores: list[ScoreReport] = []
    failures: list[dict] = []
    cells: list[dict] = []
    method_index = {m.name: j for j, m in enumerate(config.methods)}
    # kgg methods run after their voters regardless of config order
    ordered = sorted(config.methods, key=lambda m: m.kind == "kgg")

    for ci, cohort in enumerate(config.cohorts):
        raw = _load_cohort(config, cohort)
        prep, _scaler = preprocess(raw, config.max_missing_rate)
        if prep.labels is None:
            raise ConfigError(f"cohort {cohort.name!r} has no ground-truth labels to score against")
        truth = prep.labels

        produced: dict[str, np.ndarray] = {}
        for spec in ordered:
            cell_seed = derive_seed(config.seed, ci, method_index[spec.name])
            failure = {"cohort": cohort.name, "method": spec.name}
            if spec.kind == "kgg" and not all(n in produced for n in spec.params["voters"]):
                failures.append({**failure, "error": "voter labels missing"})
                continue
            t0 = time.perf_counter()
            try:
                result = run_method(
                    spec, prep, config.k, cell_seed, PROFILES[config.profile], produced
                )
            except Exception as exc:  # noqa: BLE001 -- one failed cell must not stop the grid
                failures.append({
                    **failure,
                    "error": str(exc),
                    "type": type(exc).__name__,
                    "traceback": traceback.format_exc(),
                })
                continue
            elapsed = time.perf_counter() - t0

            produced[spec.name] = result.labels
            scores.append(score(truth, result.labels, spec.name, cohort.name, elapsed))
            cells.append(
                {
                    "cohort": cohort.name,
                    "method": spec.name,
                    "kind": spec.kind,
                    "seed": cell_seed,
                    "wall_clock_seconds": elapsed,
                }
            )

            stem = f"{cohort.name}__{spec.name}"
            write_csv(
                out / "labels" / f"{stem}.csv",
                ["sample_index", "label"],
                list(enumerate(result.labels.tolist())),
            )
            if result.embedding is not None:
                write_csv(
                    out / "embeddings" / f"{stem}.csv",
                    [f"z{i}" for i in range(result.embedding.shape[1])],
                    result.embedding.tolist(),
                )
            if result.pretrain_history is not None:
                write_csv(
                    out / "history" / f"{stem}__pretrain.csv",
                    ["epoch", "loss"],
                    list(enumerate(result.pretrain_history)),
                )
            if result.finetune_history is not None:
                write_csv(
                    out / "history" / f"{stem}.csv",
                    ["epoch", "recon_loss", "kl_loss", "joint_loss"],
                    [(i, *losses) for i, losses in enumerate(result.finetune_history)],
                )
            if result.label_runs is not None:
                write_csv(
                    out / "labels_runs" / f"{stem}.csv",
                    result.run_columns,
                    result.label_runs.T.tolist(),
                )

    # scores.csv stays free of wall-clock so reruns are byte-identical;
    # timings carry the clock.
    order = {(c.name, m.name): (i, j) for i, c in enumerate(config.cohorts) for j, m in enumerate(config.methods)}
    scores.sort(key=lambda r: order[(r.cohort, r.method)])
    write_score_reports_csv(scores, out / "scores.csv", include_wall_clock=False)
    write_csv(
        out / "timings.csv",
        ["cohort", "method", "wall_clock_seconds"],
        [(r.cohort, r.method, r.wall_clock_seconds) for r in scores],
    )
    ranks = {}
    if not failures:
        ranks = average_rank(scores)
        write_ranks_csv(ranks, out / "ranks.csv")

    doc = _config_doc(config)
    # the hash identifies the config, wherever its outputs were written
    hashed = {key: value for key, value in doc.items() if key != "output_dir"}
    manifest = {
        "config": doc,
        "config_hash": hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest(),
        "versions": _versions(),
        "profile": asdict(PROFILES[config.profile]),
        "cells": cells,
        "failures": failures,
        "notes": (
            "Image-specific deep baselines (DEPICT, DynAE, DKM, AE-CM) are not part of "
            "this toolkit; the student-t variants stand in for the DEC/IDEC family."
        ),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))
    return ExperimentResult(out, scores, ranks, failures)


def _versions() -> dict:
    import platform

    import numpy

    return {
        "ehrcluster": __version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def _config_doc(config: ExperimentConfig) -> dict:
    doc = {
        "seed": config.seed,
        "profile": config.profile,
        "k": config.k,
        "max_missing_rate": config.max_missing_rate,
        "output_dir": config.output_dir,
        "methods": [asdict(m) for m in config.methods],
        "cohorts": [asdict(c) for c in config.cohorts],
    }
    if config.synthetic is not None:
        doc["data"] = {"synthetic": asdict(config.synthetic)}
    else:
        doc["data"] = {"csv": asdict(config.csv)}
    return doc
