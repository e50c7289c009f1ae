"""Run the frozen synthetic benchmark grid and print the score table.

Usage:
    python scripts/run_benchmark.py --out OUTDIR [--config PATH] [--profile PROFILE] [--seed N]
"""
import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from ehrcluster.experiment import PROFILES, load_config, run_experiment  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO / "configs" / "benchmark.json"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--profile", choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    config = load_config(args.config)
    config = replace(config, output_dir=args.out)
    if args.profile:
        config = replace(config, profile=args.profile)
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start

    print(f"\ncompleted in {elapsed:.1f}s -> {result.output_dir}")
    print(f"{'method':18} {'acc':>7} {'ari':>7} {'nmi':>7} {'seconds':>8}")
    for r in result.scores:
        print(f"{r.method:18} {r.acc:7.3f} {r.ari:7.3f} {r.nmi:7.3f} {r.wall_clock_seconds:8.1f}")
    if result.ranks:
        print("\naverage rank (mean, std):")
        for m, (mean, std) in sorted(result.ranks.items(), key=lambda kv: kv[1][0]):
            print(f"  {m:18} {mean:.2f} ({std:.2f})")
    if result.failures:
        print(f"\n{len(result.failures)} failures; see manifest.json", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
