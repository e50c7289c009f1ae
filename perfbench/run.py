"""Benchmark of the ehrcluster grid, timed end to end and per module from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout. Each workload run is a fresh process
(``perfbench/worker.py``); runs go one at a time and the benchmark sets no
BLAS thread variable. Inputs are generated once per seed under
``.perfbench_work/`` before anything is timed.

With ``--trace 0`` the workload process is run until ``--seconds`` of
``run_experiment`` time has been measured (at least once), and the medians
of wall_s, setup_s, cpu_s and peak_rss_mb are reported. With ``--trace 1``
one run is made with every traced function wrapped (``perfbench/tracer.py``)
and the per-module metrics are reported. Every run's outputs are checked;
a run that raises, records a failed cell or fails a check counts as failed.
The last stdout line is one JSON object: correct, attempted, failed, metrics.

``--all`` runs every workload untraced and then traced, prints each metric
by name with its unit plus fail_rate and tracing overhead, and exits 1 if
any run failed.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from worker import BLAS_VARS  # noqa: E402
from workloads import WORKLOADS, expected_counts, make_inputs  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
REQUIRED_FILES = ("scores.csv", "ranks.csv", "timings.csv", "manifest.json")
KGG_VOTER_KINDS = ("kmeans_x", "gmm_x", "deep_gaussian_sweep")

# every method name any workload configures, for experiment.cell_s.<method>
CELL_METHODS = tuple(dict.fromkeys(
    m["name"] for make in WORKLOADS.values() for m in make(0)[0]["methods"]))
# per-layer metric -> unit. A name "<span key>_s" is that span key's summed
# self time, "<span key>_calls" its call count, and other tracer counters keep
# their own name; per_layer() derives the rest.
PER_LAYER = {
    **{f"autoencoder.{m}": u for m, u in [
        ("pretrain_s", "s"), ("pretrain_calls", "count"), ("forward_s", "s"),
        ("forward_calls", "count"), ("forward_full_calls", "count"), ("forward_rows", "rows"),
        ("backward_s", "s"), ("backward_calls", "count"), ("adam_step_s", "s"),
        ("adam_step_calls", "count"), ("encode_s", "s"), ("encode_calls", "count"),
        ("forward_us.batch", "us"), ("forward_us.full", "us"), ("backward_us.batch", "us"),
        ("adam_step_us", "us")]},
    **{f"deepcluster.{m}": u for m, u in [
        ("finetune_s", "s"), ("finetune_calls", "count"), ("clustering_gradients_s", "s"),
        ("clustering_gradients_calls", "count"), ("soft_assign_s", "s"), ("init_clusters_s", "s"),
        ("assign_s", "s"), ("target_refreshes", "count"), ("collapse_events", "count")]},
    **{f"traditional.{m}": u for m, u in [
        ("kmeans_fit_s", "s"), ("kmeans_fit_calls", "count"), ("kmeans_iters", "count"),
        ("gmm_fit_s", "s"), ("gmm_em_iters", "count"), ("gmm_max_iter_hits", "count"),
        ("log_resp_s", "s"), ("log_resp_calls", "count"), ("log_resp_rows", "rows")]},
    "ensemble.sweep_s": "s", "ensemble.sweep_runs": "count", "ensemble.vote_s": "s",
    "data.generate_synthetic_s": "s", "data.load_csv_s": "s", "data.preprocess_s": "s",
    "metrics.score_s": "s", "metrics.average_rank_s": "s",
    "util.write_csv_s": "s", "util.write_csv_calls": "count", "util.out_bytes": "bytes",
    **{f"experiment.cell_s.{m}": "s" for m in CELL_METHODS},
    "experiment.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.overhead_est_s": "s", "trace.spans": "count",
}
# counts that must repeat exactly between traced runs of one workload and seed
EXACT = sorted(k for k, u in PER_LAYER.items() if u in ("count", "rows") and not k.startswith("trace."))


class RunFailed(Exception):
    pass


def die(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_environment() -> int:
    """Refuse to run without sources or with more BLAS threads than cores; return nproc."""
    if not (SRC / "ehrcluster" / "__init__.py").is_file():
        die(f"no ehrcluster package under {SRC}; run from the root of a checkout")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var)
        if value is not None and (not value.isdigit() or int(value) > nproc):
            die(f"{var}={value} asks for more BLAS threads than the {nproc} available cores")
    return nproc


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def _store_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".tmp")
    partial.write_text(json.dumps(doc, indent=1, sort_keys=True))
    partial.replace(path)


def spawn(args: list[str]):
    """Run one worker to completion; return its report, rusage and spawn time."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RunFailed(f"workload process exited with {proc.returncode}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    if not Path(report["ehrcluster"]).resolve().is_relative_to(SRC):
        raise RunFailed(f"imported ehrcluster from {report['ehrcluster']}, not {SRC}")
    return report, usage, t_spawn


def _labels(path: Path) -> list[int]:
    with open(path, newline="") as fh:
        return [int(row["label"]) for row in csv.DictReader(fh)]


def majority_vote(runs: list[list[int]]) -> list[int]:
    """Binary vote after aligning each run to the lexicographically smallest one.

    Written independently of ehrcluster.ensemble: a run is flipped when that
    agrees with the reference on more samples; ties keep it as it is, and a
    tied vote goes to 1.
    """
    ref = min(runs)
    aligned = []
    for run in runs:
        agree = sum(a == b for a, b in zip(ref, run))
        aligned.append(run if 2 * agree >= len(run) else [1 - x for x in run])
    return [int(2 * sum(col) >= len(aligned)) for col in zip(*aligned)]


def check_outputs(doc: dict, out: Path, key: str, seed: int) -> list[str]:
    """Output checks; each returned string is one failed check."""
    problems = [f"{name} missing" for name in REQUIRED_FILES if not (out / name).is_file()]
    if problems:
        return problems
    with open(out / "scores.csv", newline="") as fh:
        scored = {(r["cohort"], r["method"]) for r in csv.DictReader(fh)}
    wanted = {(c["name"], m["name"]) for c in doc["cohorts"] for m in doc["methods"]}
    if scored != wanted:
        problems.append(f"scores.csv scores {sorted(scored)}, config has {sorted(wanted)}")

    digest = hashlib.sha256((out / "scores.csv").read_bytes()).hexdigest()
    hashes_path = WORK / "scores_sha256.json"
    hashes = _load_json(hashes_path)
    known = hashes.setdefault(key, {}).setdefault(str(seed), digest)
    if known != digest:
        problems.append(f"scores.csv sha256 {digest} differs from an earlier run's {known}")
    _store_json(hashes_path, hashes)

    by_kind: dict[str, str] = {}
    for m in doc["methods"]:
        by_kind.setdefault(m["kind"], m["name"])
    for cohort in doc["cohorts"]:
        for m in doc["methods"]:
            if m["kind"] != "kgg":
                continue
            voters = m.get("params", {}).get("voters") or [by_kind[k] for k in KGG_VOTER_KINDS]
            stem = out / "labels" / cohort["name"]
            votes = [_labels(Path(f"{stem}__{v}.csv")) for v in voters]
            if _labels(Path(f"{stem}__{m['name']}.csv")) != majority_vote(votes):
                problems.append(f"{m['name']} labels are not the majority vote of {voters}")
    return problems


def per_layer(summary: dict, out: Path, n_rows: int) -> dict[str, float]:
    keys, counters = summary["keys"], summary["counters"]

    def key(name):
        return keys.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "by_rows": {}})

    def mean_us(calls, seconds):
        return seconds / calls * 1e6 if calls else 0.0

    fwd = key("autoencoder.forward")
    full = [v for r, v in fwd["by_rows"].items() if int(r) == n_rows]
    full_calls, full_s = sum(c for c, _ in full), sum(s for _, s in full)
    m = {
        "autoencoder.forward_full_calls": full_calls,
        "autoencoder.forward_rows": sum(int(r) * c for r, (c, _) in fwd["by_rows"].items()),
        "autoencoder.forward_us.batch": mean_us(fwd["calls"] - full_calls, fwd["total_s"] - full_s),
        "autoencoder.forward_us.full": mean_us(full_calls, full_s),
        "autoencoder.backward_us.batch": mean_us(key("autoencoder.backward")["calls"],
                                                 key("autoencoder.backward")["total_s"]),
        "autoencoder.adam_step_us": mean_us(key("autoencoder.adam_step")["calls"],
                                            key("autoencoder.adam_step")["total_s"]),
        "deepcluster.target_refreshes": key("deepcluster.target_distribution")["calls"],
        "traditional.log_resp_rows": sum(
            int(r) * c for r, (c, _) in key("traditional.log_resp")["by_rows"].items()),
        "experiment.self_s": key("experiment.run_experiment")["self_s"],
        "trace.spans": summary["spans"],
    }
    for metric in PER_LAYER:
        if metric in m or metric.startswith(("experiment.", "trace.")):
            continue
        span, _, stat = metric.rpartition("_")
        if stat == "s":
            m[metric] = key(span)["self_s"]
        elif stat == "calls":
            m[metric] = key(span)["calls"]
        else:  # counters the tracer read from return values
            m[metric] = counters.get(metric, 0)
    with open(out / "timings.csv", newline="") as fh:
        cells = {r["method"]: float(r["wall_clock_seconds"]) for r in csv.DictReader(fh)}
    for method in CELL_METHODS:
        m[f"experiment.cell_s.{method}"] = cells.get(method, 0.0)
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a workload; returns the JSON result object."""
    nproc = check_environment()
    config, key = make_inputs(workload, seed, WORK, SRC)
    doc = json.loads(config.read_text())
    out = WORK / "out" / workload
    trace_dir = WORK / "trace" / workload
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    attempted = failed = 0
    layers: dict[str, float] = {}

    def report_failure(problems: list[str]) -> None:
        nonlocal failed
        failed += 1
        print(f"perfbench: {workload} seed {seed}: " + "; ".join(problems), file=sys.stderr)

    while failed == 0 and (attempted == 0 or (not trace and sum(samples["wall_s"]) < seconds)):
        attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        args = ["--config", str(config), "--out", str(out)]
        if trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            args += ["--mode", "trace", "--trace-dir", str(trace_dir)]
        try:
            report, usage, t_spawn = spawn(args)
        except RunFailed as exc:
            report_failure([str(exc)])
            break
        problems = check_outputs(doc, out, key, seed)
        if report["failures"]:
            problems.append(f"failed cells: {report['failures']}")
        if report["blas_threads"] is not None and report["blas_threads"] > nproc:
            problems.append(f"OpenBLAS ran {report['blas_threads']} threads on {nproc} cores")
        if problems:
            report_failure(problems)
            break
        _store_json(WORK / "environment.json", report["environment"])
        wall = report["t_exit"] - report["t_enter"]
        samples["wall_s"].append(wall)
        samples["setup_s"].append(report["t_enter"] - t_spawn)
        samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
        samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
        if trace:
            first = f"{doc['cohorts'][0]['name']}__{doc['methods'][0]['name']}.csv"
            n_rows = len(_labels(out / "labels" / first))
            layers = per_layer(report["trace"], out, n_rows)
            problems = check_counts(key, seed, doc, n_rows, layers)
            if problems:
                report_failure(problems)
            # overhead against this checkout's untraced runs, and from the
            # wrapper's own calibrated cost per span
            estimate = report["trace"]["spans"] * report["per_span_s"]
            walls = _load_json(WORK / "untraced_wall_s.json").get(key)
            layers.update({
                "trace.wall_s": wall,
                "trace.overhead_s": wall - statistics.median(walls) if walls else estimate,
                "trace.overhead_est_s": estimate,
            })

    if trace:
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    if failed == 0:
        walls_path = WORK / "untraced_wall_s.json"
        walls = _load_json(walls_path)
        walls.setdefault(key, []).extend(samples["wall_s"])
        _store_json(walls_path, walls)
    # set-up is timed several times per run: probes stop where run_experiment starts
    while failed == 0 and len(samples["setup_s"]) < SETUP_SAMPLES:
        try:
            report, _, t_spawn = spawn(["--config", str(config), "--out", str(out), "--mode", "setup"])
        except RunFailed as exc:
            report_failure([f"set-up probe: {exc}"])
            break
        samples["setup_s"].append(report["t_enter"] - t_spawn)
    metrics = {
        name: {"value": statistics.median(samples[name]) if samples[name] else 0.0, "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def check_counts(key: str, seed: int, doc: dict, n_rows: int, layers: dict) -> list[str]:
    """Structural call counts must match the config; every count must repeat exactly."""
    problems = [
        f"{name} = {layers[name]}, config implies {want}"
        for name, want in expected_counts(doc, n_rows).items()
        if layers[name] != want
    ]
    counts_path = WORK / "trace_counts.json"
    stored = _load_json(counts_path)
    counts = {name: layers[name] for name in EXACT}
    earlier = stored.setdefault(key, {}).setdefault(str(seed), counts)
    problems += [
        f"{name} = {counts[name]}, an earlier traced run counted {earlier.get(name)}"
        for name in EXACT if earlier.get(name) != counts[name]
    ]
    _store_json(counts_path, stored)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    if args.workload:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        for name, m in result["metrics"].items():
            print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for workload in WORKLOADS:
        plain = measure(workload, args.seed, args.seconds, trace=False)
        traced = measure(workload, args.seed, args.seconds, trace=True)
        ok = ok and plain["correct"] and traced["correct"]
        runs = plain["attempted"] + traced["attempted"]
        print(f"\n{workload} (seed {args.seed})")
        for name, m in plain["metrics"].items():
            print(f"  {name:14} {m['value']:12.4f} {m['unit']}")
        print(f"  {'fail_rate':14} {(plain['failed'] + traced['failed']) / runs:12.4f} "
              f"({plain['failed'] + traced['failed']} of {runs} runs)")
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"  {'trace overhead':14} {overhead:12.4f} s")
    print(f"\nenvironment: {json.dumps(_load_json(WORK / 'environment.json'))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
