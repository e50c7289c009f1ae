"""Regenerate tests/golden/, the frozen outputs of a tiny grid of all nine method kinds.

Usage:
    python scripts/regenerate_golden.py
    OPENBLAS_CORETYPE=Haswell python scripts/regenerate_golden.py   # another OpenBLAS kernel

Runs tests/golden/config.json (60 rows, 33 features, one-epoch schedules; about
a second) and rewrites sha256.json, the digests of scores.csv, ranks.csv and
every labels/ and labels_runs/ file, and the embeddings/ and history/ CSVs of
the OpenBLAS kernel it runs on, under tests/golden/<kernel>/. The float32
matrix products round differently per kernel, so tests/test_golden.py compares
those CSVs with the ones of its own kernel, with rtol 1e-12. For each file it
prints "unchanged", "new", "removed" or, for a CSV whose values moved, their
largest relative difference. A change that moves any of them says which and why.
"""
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
COMPARED = ("embeddings", "history")
sys.path.insert(0, str(REPO / "src"))

from ehrcluster.experiment import _blas_core, parse_config, run_experiment  # noqa: E402


def kernel_dir() -> Path:
    """Where the compared CSVs of the OpenBLAS kernel numpy runs on live: tests/golden/<kernel>/."""
    return GOLDEN / str(_blas_core())


def run_grid(out: Path):
    doc = {**json.loads((GOLDEN / "config.json").read_text()), "output_dir": str(out)}
    return run_experiment(parse_config(doc))


def digests(out: Path) -> dict[str, str]:
    """sha256 of scores.csv, ranks.csv and every labels/ and labels_runs/ file, by relative path."""
    files = [out / "scores.csv", out / "ranks.csv", *(out / "labels").iterdir(), *(out / "labels_runs").iterdir()]
    return {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(files)}


def drift(old: Path, new: Path) -> str:
    """How ``new`` differs from ``old``: unchanged, new, removed, changed, or for a CSV
    the largest relative difference of its values."""
    if not new.exists():
        return "removed"
    if not old.exists():
        return "new"
    if old.read_bytes() == new.read_bytes():
        return "unchanged"
    if new.suffix != ".csv":
        return "changed"
    a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (old, new))
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return f"max relative difference {np.nan_to_num(rel).max():.2g}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        result = run_grid(out)
        if result.failures:
            print(f"the grid failed: {result.failures}", file=sys.stderr)
            return 1
        (out / "sha256.json").write_text(json.dumps(digests(out), indent=2) + "\n")
        frozen = kernel_dir()
        names = {f"{sub}/{p.name}" for sub in COMPARED for d in (frozen, out) for p in (d / sub).glob("*")}
        print(f"sha256.json: {drift(GOLDEN / 'sha256.json', out / 'sha256.json')}")
        for name in sorted(names):
            print(f"{frozen.name}/{name}: {drift(frozen / name, out / name)}")
        shutil.copyfile(out / "sha256.json", GOLDEN / "sha256.json")
        for sub in COMPARED:
            shutil.rmtree(frozen / sub, ignore_errors=True)
            shutil.copytree(out / sub, frozen / sub)
    print(f"rewrote {GOLDEN / 'sha256.json'} and {frozen}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
