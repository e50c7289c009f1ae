"""Command-line interface.

Subcommands: generate, preprocess, cluster, ensemble, evaluate, benchmark,
rank. Exit codes: 0 success, 1 validation error (bad flags, bad config,
bad input files), 2 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_feature_schema,
    preprocess,
    synthetic_feature_specs,
)
from .ensemble import majority_vote
from .errors import ConfigError, ToolkitError, ValidationError
from .experiment import (
    METHODS,
    PROFILES,
    MethodSpec,
    _build,
    check_k,
    check_params,
    load_config,
    run_experiment,
    run_method,
)
from .metrics import ScoreReport, average_rank, score, write_ranks_csv, write_score_reports_csv
from .util import write_csv


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract wants 1
    def error(self, message):
        raise ConfigError(message)


def _write_dataset_csv(ds: Dataset, path: Path) -> None:
    """One row per sample, a blank cell where a value is missing, the label last."""
    header = [s.name for s in ds.feature_specs]
    rows = [["" if math.isnan(v) else v for v in row] for row in ds.X.tolist()]
    if ds.labels is not None:
        header.append("label")
        for row, label in zip(rows, ds.labels.tolist()):
            row.append(label)
    write_csv(path, header, rows)


def _read_matrix_csv(path: Path, label_column: str | None):
    """Read a fully numeric CSV; all non-label columns become features."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ConfigError(f"{path}: need a header plus at least one data row")
    header, data = rows[0], rows[1:]
    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise ConfigError(f"{path}: no column {label_column!r}")
        label_idx = header.index(label_column)
    feat_idx = [j for j in range(len(header)) if j != label_idx]
    try:
        X = np.array([[float(r[j]) for j in feat_idx] for r in data])
        labels = None
        if label_idx is not None:
            labels = np.array([int(float(r[label_idx])) for r in data])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return X, labels, [header[j] for j in feat_idx]


def _read_labels_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ConfigError(f"{path}: empty labels file")
    header, data = rows[0], rows[1:]
    col = header.index("label") if "label" in header else len(header) - 1
    labels = []
    for i, row in enumerate(data):
        try:
            value = float(row[col])
        except (ValueError, IndexError):
            value = math.nan
        if not value.is_integer() or value < 0:
            raise ConfigError(f"{path}: data row {i}: the label is not a non-negative integer")
        labels.append(int(value))
    try:
        if "sample_index" in header:
            key = header.index("sample_index")
            labels = [labels[i] for i in sorted(range(len(data)), key=lambda i: int(data[i][key]))]
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return np.array(labels)


def _cmd_generate(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
    spec = _build(SyntheticSpec, doc, "synthetic")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    ds = generate_synthetic(spec)
    out = Path(args.out)
    _write_dataset_csv(ds, out / "synthetic.csv")
    schema = [
        {"name": s.name, "unit": s.unit, "bound_lo": s.bound_lo, "bound_hi": s.bound_hi}
        for s in ds.feature_specs
    ]
    (out / "schema.json").write_text(json.dumps(schema, indent=2))
    print(f"wrote {out / 'synthetic.csv'} ({ds.n_samples} x {ds.n_features})")
    return 0


def _cmd_preprocess(args) -> int:
    specs = load_feature_schema(args.schema)
    ds = load_csv(args.csv, specs, label_column=args.label_column)
    prep, scaler = preprocess(ds, args.max_missing_rate)
    out = Path(args.out)
    _write_dataset_csv(prep, out / "preprocessed.csv")
    (out / "scaler.json").write_text(
        json.dumps({"mean": scaler.mean.tolist(), "std": scaler.std.tolist()})
    )
    print(f"wrote {out / 'preprocessed.csv'} ({prep.n_samples} rows kept of {ds.n_samples})")
    return 0


def _cmd_cluster(args) -> int:
    X, labels, _names = _read_matrix_csv(Path(args.csv), args.label_column)
    if np.isnan(X).any():
        raise ConfigError(f"{args.csv}: a cell is nan; cluster needs a fully imputed CSV")
    ds = Dataset(X, synthetic_feature_specs(X.shape[1]), labels=labels)
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params: invalid JSON: {exc}") from None
    spec = MethodSpec(args.method, args.method, check_params(args.method, params, "--params"))
    k = check_k(args.k, [args.method], "--k")
    result = run_method(spec, ds, k, args.seed, PROFILES[args.profile])
    out = Path(args.out)
    write_csv(
        out / f"{args.method}_labels.csv",
        ["sample_index", "label"],
        list(enumerate(result.labels.tolist())),
    )
    if result.embedding is not None:
        write_csv(
            out / f"{args.method}_embedding.csv",
            [f"z{i}" for i in range(result.embedding.shape[1])],
            result.embedding.tolist(),
        )
    print(f"wrote {out / (args.method + '_labels.csv')}")
    return 0


def _cmd_ensemble(args) -> int:
    runs = [_read_labels_csv(Path(p)) for p in args.labels]
    combined = majority_vote(runs)
    out = Path(args.out)
    write_csv(
        out / "ensemble_labels.csv",
        ["sample_index", "label"],
        list(enumerate(combined.tolist())),
    )
    print(f"wrote {out / 'ensemble_labels.csv'}")
    return 0


def _cmd_evaluate(args) -> int:
    truth = _read_labels_csv(Path(args.truth))
    pred = _read_labels_csv(Path(args.pred))
    t0 = time.perf_counter()
    report = score(truth, pred, method=args.method, cohort=args.cohort)
    report = ScoreReport(
        report.method, report.cohort, report.acc, report.ari, report.nmi,
        time.perf_counter() - t0,
    )
    print(json.dumps({"acc": report.acc, "ari": report.ari, "nmi": report.nmi}))
    if args.out:
        write_score_reports_csv([report], Path(args.out) / "scores.csv")
    return 0


def _cmd_benchmark(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.profile is not None:
        config = replace(config, profile=args.profile)
    if args.out is not None:
        config = replace(config, output_dir=str(args.out))
    result = run_experiment(config)
    print(f"wrote {result.output_dir / 'scores.csv'} ({len(result.scores)} rows)")
    if result.failures:
        print(f"{len(result.failures)} method run(s) failed; see manifest.json", file=sys.stderr)
        return 2
    return 0


def _cmd_rank(args) -> int:
    with open(args.scores, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"{args.scores}: empty scores file")
    reports = [
        ScoreReport(r["method"], r["cohort"], float(r["acc"]), float(r["ari"]), float(r["nmi"]))
        for r in rows
    ]
    out = Path(args.out) if args.out else Path(args.scores).parent
    for m, mean, std in write_ranks_csv(average_rank(reports), out / "ranks.csv"):
        print(f"{m}: {mean:.2f} ({std:.2f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ehrcluster", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthetic dataset -> CSV")
    p.add_argument("--config", required=True, help="JSON synthetic spec")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("preprocess", help="bounds/filter/impute/standardize -> CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", help="feature schema JSON (default: shipped EHR panel)")
    p.add_argument("--label-column")
    p.add_argument("--max-missing-rate", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("cluster", help="single method -> labels CSV")
    p.add_argument("--csv", required=True, help="preprocessed numeric CSV")
    p.add_argument("--label-column", help="column to exclude from features")
    # kgg votes over other methods' labels, so it runs only inside a benchmark grid
    p.add_argument("--method", required=True, choices=[kind for kind in METHODS if kind != "kgg"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--params", help="JSON dict of method hyperparameter overrides")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("ensemble", help="labels CSVs -> majority-vote labels")
    p.add_argument("labels", nargs="+", help="two or more label CSV files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("evaluate", help="labels + truth -> ACC/ARI/NMI")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--method", default="pred")
    p.add_argument("--cohort", default="data")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("benchmark", help="full cohort x method grid")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--profile", choices=sorted(PROFILES))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("rank", help="scores.csv -> average-rank table")
    p.add_argument("--scores", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToolkitError as exc:  # anything that fails mid-run
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
