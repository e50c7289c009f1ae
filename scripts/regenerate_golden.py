"""Regenerate tests/golden/, the frozen outputs of a tiny grid of all nine method kinds.

Usage:
    python scripts/regenerate_golden.py

Runs tests/golden/config.json (60 rows, 33 features, one-epoch schedules; about
a second) and rewrites sha256.json, the digests of scores.csv, ranks.csv and
every labels/ and labels_runs/ file, and the embeddings/ and history/ CSVs,
which tests/test_golden.py compares with rtol 1e-12 so that BLAS builds may
differ in the last bits. A change that moves any of them says which and why.
"""
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
COMPARED = ("embeddings", "history")
sys.path.insert(0, str(REPO / "src"))

from ehrcluster.experiment import parse_config, run_experiment  # noqa: E402


def run_grid(out: Path):
    doc = {**json.loads((GOLDEN / "config.json").read_text()), "output_dir": str(out)}
    return run_experiment(parse_config(doc))


def digests(out: Path) -> dict[str, str]:
    """sha256 of scores.csv, ranks.csv and every labels/ and labels_runs/ file, by relative path."""
    files = [out / "scores.csv", out / "ranks.csv", *(out / "labels").iterdir(), *(out / "labels_runs").iterdir()]
    return {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(files)}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        result = run_grid(out)
        if result.failures:
            print(f"the grid failed: {result.failures}", file=sys.stderr)
            return 1
        (GOLDEN / "sha256.json").write_text(json.dumps(digests(out), indent=2) + "\n")
        for sub in COMPARED:
            shutil.rmtree(GOLDEN / sub, ignore_errors=True)
            shutil.copytree(out / sub, GOLDEN / sub)
    print(f"rewrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
