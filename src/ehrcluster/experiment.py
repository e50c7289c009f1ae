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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .autoencoder import TrainConfig, build, encode, losses_to_csv, pretrain
from .data import Dataset, SyntheticSpec, generate_synthetic, load_csv, load_feature_schema, preprocess, stratified_subsample
from .deepcluster import DeepClusterConfig, assign, finetune, history_to_csv
from .ensemble import dimension_ensemble, majority_vote, run_dimension_sweep, sweep_dims
from .errors import ConfigError, ToolkitError
from .metrics import ScoreReport, average_rank, score, write_score_reports_csv
from .traditional import gmm_fit, gmm_predict, kmeans_fit, kmeans_predict
from .util import derive_seed, write_csv

METHOD_KINDS = (
    "kmeans_x",
    "gmm_x",
    "kmeans_z",
    "gmm_z",
    "deep_student_t",
    "deep_student_t_recon",
    "deep_gaussian",
    "deep_gaussian_sweep",
    "kgg",
)

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
    seed: int
    methods: list[MethodSpec]
    cohorts: list[CohortSpec]
    synthetic: SyntheticSpec | None = None
    csv: CsvSource | None = None
    profile: str = "desk"
    k: int = 2
    max_missing_rate: float = 0.05
    output_dir: str = "out"


_KMEANS_PARAMS = {"n_init", "max_iter", "tol"}
_GMM_PARAMS = {"cov_type", "max_iter", "tol", "reg_covar"}
_PRETRAIN_PARAMS = {
    "embed_dim", "hidden", "activation", "pretrain_epochs", "learning_rate", "batch_size",
}
_DEEP_PARAMS = _PRETRAIN_PARAMS | {
    "finetune_epochs", "gamma", "target_update_interval", "recon_weight",
}

# exactly the params each kind reads; anything else is rejected
_ALLOWED_PARAMS = {
    "kmeans_x": _KMEANS_PARAMS,
    "gmm_x": _GMM_PARAMS,
    "kmeans_z": _PRETRAIN_PARAMS | _KMEANS_PARAMS,
    "gmm_z": _PRETRAIN_PARAMS | _GMM_PARAMS,
    "deep_student_t": _DEEP_PARAMS,
    "deep_student_t_recon": _DEEP_PARAMS,
    "deep_gaussian": _DEEP_PARAMS,
    # the sweep sets each run's embed_dim from dims
    "deep_gaussian_sweep": (_DEEP_PARAMS - {"embed_dim"}) | {"dims"},
    "kgg": {"voters"},
}


def check_params(kind: str, params: dict, where: str) -> None:
    """Raise ConfigError naming ``where`` if ``params`` holds a key ``kind`` does not use."""
    bad = set(params) - _ALLOWED_PARAMS[kind]
    if bad:
        raise ConfigError(f"{where}.{sorted(bad)[0]}: not valid for kind {kind!r}")


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
        try:
            synthetic = SyntheticSpec(**data["synthetic"])
        except TypeError as exc:
            raise ConfigError(f"data.synthetic: {exc}") from None
    else:
        raw = data["csv"]
        if "path" not in raw:
            raise ConfigError("data.csv.path: required")
        path = str(raw["path"])
        schema = raw.get("schema")
        if base_dir is not None:
            path = str((base_dir / path).resolve()) if not Path(path).is_absolute() else path
            if schema is not None and not Path(schema).is_absolute():
                schema = str((base_dir / schema).resolve())
        csv_source = CsvSource(path, schema, raw.get("label_column"))

    methods_raw = doc.get("methods")
    if not methods_raw:
        raise ConfigError("methods: at least one method is required")
    methods = []
    seen = set()
    for i, m in enumerate(methods_raw):
        name = m.get("name")
        kind = m.get("kind")
        if not name:
            raise ConfigError(f"methods[{i}].name: required")
        if name in seen:
            raise ConfigError(f"methods[{i}].name: duplicate {name!r}")
        seen.add(name)
        if kind not in METHOD_KINDS:
            raise ConfigError(f"methods[{i}].kind: unknown kind {kind!r}")
        params = m.get("params", {})
        check_params(kind, params, f"methods[{i}].params")
        methods.append(MethodSpec(name, kind, dict(params)))

    kinds = {m.kind for m in methods}
    if "kgg" in kinds:
        missing = [k for k in KGG_VOTER_KINDS if k not in kinds]
        if missing:
            raise ConfigError(f"methods: kgg requires voter kinds {missing} to be present")

    cohorts_raw = doc.get("cohorts") or [{"name": "all"}]
    cohorts = []
    cohort_names = set()
    for i, c in enumerate(cohorts_raw):
        if "name" not in c:
            raise ConfigError(f"cohorts[{i}].name: required")
        if c["name"] in cohort_names:
            raise ConfigError(f"cohorts[{i}].name: duplicate {c['name']!r}")
        cohort_names.add(c["name"])
        cohorts.append(
            CohortSpec(
                name=c["name"],
                seed_offset=int(c.get("seed_offset", i)),
                group_column=c.get("group_column"),
                group_value=c.get("group_value"),
                subsample_n=c.get("subsample_n"),
                subsample_ratio=c.get("subsample_ratio"),
            )
        )

    profile = doc.get("profile", "desk")
    if profile not in PROFILES:
        raise ConfigError(f"profile: unknown profile {profile!r}")
    return ExperimentConfig(
        seed=int(doc["seed"]),
        methods=methods,
        cohorts=cohorts,
        synthetic=synthetic,
        csv=csv_source,
        profile=profile,
        k=int(doc.get("k", 2)),
        max_missing_rate=float(doc.get("max_missing_rate", 0.05)),
        output_dir=str(doc.get("output_dir", "out")),
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
            keep = ds.X[:, names.index(cohort.group_column)] == cohort.group_value
            ds = Dataset(
                ds.X[keep],
                ds.missing[keep],
                ds.feature_specs,
                labels=None if ds.labels is None else ds.labels[keep],
            )
    if cohort.subsample_n is not None:
        ds = stratified_subsample(
            ds,
            cohort.subsample_n,
            cohort.subsample_ratio if cohort.subsample_ratio is not None else 1.0,
            seed=derive_seed(config.seed, cohort.seed_offset, 0x5AB),
        )
    return ds


def _deep_config(profile: Profile, params: dict, variant: str, seed: int) -> DeepClusterConfig:
    train = TrainConfig(
        learning_rate=float(params.get("learning_rate", profile.learning_rate)),
        batch_size=int(params.get("batch_size", profile.batch_size)),
        epochs=int(params.get("pretrain_epochs", profile.pretrain_epochs)),
        seed=seed,
    )
    return DeepClusterConfig(
        variant=variant,
        gamma=float(params.get("gamma", 0.1)),
        embed_dim=int(params.get("embed_dim", profile.embed_dim)),
        finetune_epochs=int(params.get("finetune_epochs", profile.finetune_epochs)),
        target_update_interval=int(
            params.get("target_update_interval", profile.target_update_interval)
        ),
        recon_weight=float(params.get("recon_weight", 1.0)),
        hidden=tuple(params.get("hidden", profile.hidden)),
        activation=str(params.get("activation", "relu")),
        pretrain_epochs=int(params.get("pretrain_epochs", profile.pretrain_epochs)),
        train=train,
    )


@dataclass
class MethodResult:
    labels: np.ndarray
    embedding: np.ndarray | None = None
    pretrain_history: list[float] | None = None
    deep_model: object | None = None
    label_runs: np.ndarray | None = None
    run_columns: list[str] | None = None


def _pretrained_embedding(ds: Dataset, cfg: DeepClusterConfig, seed: int):
    model = build(ds.n_features, cfg.embed_dim, cfg.hidden, cfg.activation, seed=seed)
    _, history = pretrain(model, ds, replace(cfg.train, epochs=cfg.pretrain_epochs))
    return model, encode(model, ds.X), history


def _kmeans_labels(X: np.ndarray, k: int, seed: int, p: dict) -> np.ndarray:
    km = kmeans_fit(
        X, k, seed=seed,
        n_init=int(p.get("n_init", 10)),
        max_iter=int(p.get("max_iter", 300)),
        tol=float(p.get("tol", 1e-4)),
    )
    return kmeans_predict(km, X)


def _gmm_labels(X: np.ndarray, k: int, seed: int, p: dict) -> np.ndarray:
    gm = gmm_fit(
        X, k,
        cov_type=str(p.get("cov_type", "full")),
        seed=seed,
        max_iter=int(p.get("max_iter", 300)),
        tol=float(p.get("tol", 1e-3)),
        reg_covar=float(p.get("reg_covar", 1e-6)),
    )
    labels, _ = gmm_predict(gm, X)
    return labels


def run_method(
    spec: MethodSpec,
    ds: Dataset,
    k: int,
    seed: int,
    profile: Profile,
    voter_labels: dict[str, np.ndarray] | None = None,
) -> MethodResult:
    """Fit one method on a preprocessed cohort and return its labels."""
    p = spec.params
    if spec.kind == "kmeans_x":
        return MethodResult(labels=_kmeans_labels(ds.X, k, seed, p))
    if spec.kind == "gmm_x":
        return MethodResult(labels=_gmm_labels(ds.X, k, seed, p))
    if spec.kind in ("kmeans_z", "gmm_z"):
        cfg = _deep_config(profile, p, "gaussian", seed)
        model, Z, history = _pretrained_embedding(ds, cfg, seed)
        fit = _kmeans_labels if spec.kind == "kmeans_z" else _gmm_labels
        return MethodResult(labels=fit(Z, k, seed, p), embedding=Z, pretrain_history=history)
    if spec.kind in ("deep_student_t", "deep_student_t_recon", "deep_gaussian"):
        variant = "gaussian" if spec.kind == "deep_gaussian" else "student_t"
        defaults = {"deep_student_t": {"gamma": 1.0, "recon_weight": 0.0}}.get(spec.kind, {})
        merged = {**defaults, **p}
        cfg = _deep_config(profile, merged, variant, seed)
        model, Z, history = _pretrained_embedding(ds, cfg, seed)
        dcm = finetune(model, ds, k, cfg)
        return MethodResult(
            labels=assign(dcm, ds.X),
            embedding=encode(dcm.network, ds.X),
            pretrain_history=history,
            deep_model=dcm,
        )
    if spec.kind == "deep_gaussian_sweep":
        cfg = _deep_config(profile, p, "gaussian", seed)
        dims = [int(d) for d in p.get("dims", sweep_dims(ds.n_features))]
        runs = run_dimension_sweep(ds, dims, cfg, k=k)
        return MethodResult(
            labels=dimension_ensemble(runs),
            label_runs=runs,
            run_columns=[f"d{d}" for d in dims],
        )
    if spec.kind == "kgg":
        names = list(p.get("voters", [])) or None
        if voter_labels is None:
            raise ConfigError("kgg voters are not available")
        if names is None:
            raise ConfigError("kgg voter names unresolved")
        try:
            runs = [voter_labels[name] for name in names]
        except KeyError as exc:
            raise ConfigError(f"kgg voter {exc.args[0]!r} has no labels") from None
        return MethodResult(
            labels=majority_vote(runs),
            label_runs=np.asarray(runs, dtype=int),
            run_columns=list(names),
        )
    raise ConfigError(f"unknown method kind {spec.kind!r}")


def _resolve_kgg_voters(config: ExperimentConfig) -> dict[str, list[str]]:
    """Map each kgg method to its voter method names (explicit or by kind)."""
    out = {}
    by_kind = {}
    for m in config.methods:
        by_kind.setdefault(m.kind, m.name)
    for m in config.methods:
        if m.kind != "kgg":
            continue
        voters = m.params.get("voters")
        if voters is None:
            voters = [by_kind[k] for k in KGG_VOTER_KINDS if k in by_kind]
        if len(voters) != 3:
            raise ConfigError(f"kgg method {m.name!r} needs exactly 3 voters, got {voters}")
        known = {x.name for x in config.methods}
        for v in voters:
            if v not in known:
                raise ConfigError(f"kgg voter {v!r} is not a configured method")
        out[m.name] = list(voters)
    return out


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
    kgg_voters = _resolve_kgg_voters(config)

    scores: list[ScoreReport] = []
    failures: list[dict] = []
    cells: list[dict] = []

    for ci, cohort in enumerate(config.cohorts):
        raw = _load_cohort(config, cohort)
        prep, _scaler = preprocess(raw, config.max_missing_rate)
        if prep.labels is None:
            raise ConfigError(f"cohort {cohort.name!r} has no ground-truth labels to score against")
        truth = prep.labels

        produced: dict[str, np.ndarray] = {}
        method_index = {m.name: j for j, m in enumerate(config.methods)}
        # kgg methods run after their voters regardless of config order
        ordered = [m for m in config.methods if m.kind != "kgg"] + [
            m for m in config.methods if m.kind == "kgg"
        ]
        for spec in ordered:
            cell_seed = derive_seed(config.seed, ci, method_index[spec.name])
            voter_map = None
            if spec.kind == "kgg":
                names = kgg_voters[spec.name]
                if not all(n in produced for n in names):
                    failures.append(
                        {"cohort": cohort.name, "method": spec.name, "error": "voter labels missing"}
                    )
                    continue
                voter_map = {n: produced[n] for n in names}
                spec = replace(spec, params={**spec.params, "voters": names})
            t0 = time.perf_counter()
            try:
                result = run_method(spec, prep, config.k, cell_seed, PROFILES[config.profile], voter_map)
            except ToolkitError as exc:
                failures.append({"cohort": cohort.name, "method": spec.name, "error": str(exc)})
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
                losses_to_csv(result.pretrain_history, out / "history" / f"{stem}__pretrain.csv")
            if result.deep_model is not None:
                history_to_csv(result.deep_model, out / "history" / f"{stem}.csv")
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
        ordered_ranks = sorted(ranks.items(), key=lambda kv: (kv[1][0], kv[0]))
        write_csv(
            out / "ranks.csv",
            ["method", "mean_rank", "std_rank"],
            [(m, mean, std) for m, (mean, std) in ordered_ranks],
        )

    manifest = {
        "config": _config_doc(config),
        "config_hash": hashlib.sha256(
            json.dumps(_config_doc(config), sort_keys=True).encode()
        ).hexdigest(),
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
