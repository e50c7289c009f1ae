"""Command-line interface.

Subcommands: generate, benchmark. Exit codes: 0 success, 1 validation error
(bad flags, bad config, bad input files), 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .data import Dataset, SyntheticSpec, generate_synthetic
from .errors import ConfigError, ToolkitError, ValidationError
from .experiment import PROFILES, load_config, run_experiment
from .util import _build, check_output_dir, read_json, write_csv


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


def _cmd_generate(args) -> int:
    check_output_dir(args.out, "--out")
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


def _cmd_benchmark(args) -> int:
    if args.out is not None:
        check_output_dir(args.out, "--out")
    flags = {"seed": args.seed, "profile": args.profile, "output_dir": args.out}
    result = run_experiment(replace(load_config(args.config), **{f: v for f, v in flags.items() if v is not None}))
    print(f"wrote {result.output_dir / 'scores.csv'} ({len(result.scores)} rows)")
    if result.failures:
        print(f"{len(result.failures)} method run(s) failed; see manifest.json", file=sys.stderr)
        return 2
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

    p = sub.add_parser("benchmark", help="full cohort x method grid")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--profile", choices=sorted(PROFILES))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_benchmark)
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
