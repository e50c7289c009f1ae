"""Command-line interface.

Subcommands: generate, preprocess, cluster, ensemble, evaluate, benchmark,
rank. Exit codes: 0 success, 1 validation error (bad flags, bad config,
bad input files), 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .data import (
    Dataset, FeatureSpec, SyntheticSpec, dataset_from_rows, generate_synthetic, load_csv,
    load_feature_schema, preprocess, read_labels, write_embedding, write_labels,
)
from .ensemble import majority_vote
from .errors import ConfigError, LengthMismatch, ToolkitError, ValidationError
from .experiment import (
    METHODS, PROFILES, MethodSpec, check_k, check_params, load_config, run_experiment, run_method,
)
from .metrics import average_rank, read_score_reports, score, write_ranks_csv, write_score_reports_csv
from .util import _build, read_csv_rows, read_json, write_csv


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract wants 1
    def error(self, message):
        raise ConfigError(message)


def _write_dataset_csv(ds: Dataset, path: Path) -> None:
    """One row per sample, a blank cell where a value is missing, the label last; each row is
    made as it is written."""
    header = [s.name for s in ds.feature_specs]
    rows = (["" if math.isnan(v) else v for v in x.tolist()] for x in ds.X)
    if ds.labels is not None:
        header.append("label")
        rows = (row + [label] for row, label in zip(rows, ds.labels.tolist()))
    write_csv(path, header, rows)


def _read_label_files(paths: list[str]) -> list:
    """Each file's labels; unless every file has as many rows, a LengthMismatch names each one."""
    runs = [read_labels(p) for p in paths]
    if len({len(r) for r in runs}) > 1:
        counts = ", ".join(f"{p} has {len(r)} rows" for p, r in zip(paths, runs))
        raise LengthMismatch(f"label files differ in length: {counts}")
    return runs


def _cmd_generate(args) -> int:
    spec = _build(SyntheticSpec, read_json(args.config), "synthetic")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if spec.seed < 0:  # it seeds numpy's generator as it is
        where = "synthetic.seed" if args.seed is None else "--seed"
        raise ConfigError(f"{where}: must be >= 0, got {spec.seed}")
    ds = generate_synthetic(spec)
    out = Path(args.out)
    _write_dataset_csv(ds, out / "synthetic.csv")
    (out / "schema.json").write_text(json.dumps([asdict(s) for s in ds.feature_specs], indent=2))
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
    # every column but the label is a feature, with no plausibility bounds
    header, rows = read_csv_rows(args.csv)
    specs = [FeatureSpec(name, "", -math.inf, math.inf) for name in header if name != args.label_column]
    if not specs:
        raise ConfigError(f"{args.csv}: no feature column besides the label column {args.label_column!r}")
    ds = dataset_from_rows(args.csv, header, rows, specs, args.label_column)
    if ds.missing.any():
        raise ConfigError(f"{args.csv}: a cell is missing; cluster needs a fully imputed CSV")
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params: invalid JSON: {exc}") from None
    if args.seed < 0:  # a network seeds numpy's generator with it as it is
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    spec = MethodSpec(args.method, args.method, check_params(args.method, params, "--params"))
    k = check_k(args.k, [args.method], "--k")
    result = run_method(spec, ds, k, args.seed, PROFILES[args.profile])
    out = Path(args.out)
    write_labels(out / f"{args.method}_labels.csv", result.labels)
    if result.embedding is not None:
        write_embedding(out / f"{args.method}_embedding.csv", result.embedding)
    print(f"wrote {out / (args.method + '_labels.csv')}")
    return 0


def _cmd_ensemble(args) -> int:
    if len(args.labels) < 2:
        raise ConfigError(f"ensemble: needs two or more label files, got {len(args.labels)}")
    combined = majority_vote(_read_label_files(args.labels))
    out = Path(args.out)
    write_labels(out / "ensemble_labels.csv", combined)
    print(f"wrote {out / 'ensemble_labels.csv'}")
    return 0


def _cmd_evaluate(args) -> int:
    truth, pred = _read_label_files([args.truth, args.pred])
    report = score(truth, pred, method=args.method, cohort=args.cohort)
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
    ranks = average_rank(read_score_reports(args.scores))
    out = Path(args.out) if args.out else Path(args.scores).parent
    for m, mean, std in write_ranks_csv(ranks, out / "ranks.csv"):
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
    except ValidationError as exc:
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
