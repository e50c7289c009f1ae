"""One workload process: load a config, run the grid once, report on stdout.

    python3 perfbench/worker.py --config CONFIG --out DIR [--mode run|setup|trace]
        [--trace-dir DIR]

``setup`` stops where ``run_experiment`` would be entered, so the parent can
time interpreter start, imports and ``load_config`` alone. ``trace`` installs
the tracer before the run and writes the spans to ``--trace-dir``. The last
stdout line is a JSON report with perf_counter readings, which share one
monotonic clock with the parent process on Linux.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(threads: int | None) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "blas_threads": threads,
        "blas_env": {var: os.environ[var] for var in BLAS_VARS if var in os.environ},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import ehrcluster.experiment as experiment

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, per_span_cost

        tracer = Tracer()
        tracer.install()

    config = replace(experiment.load_config(args.config), output_dir=args.out)
    t_enter = time.perf_counter()
    report = {"t_enter": t_enter, "ehrcluster": experiment.__file__}
    if args.mode != "setup":
        result = experiment.run_experiment(config)
        report["t_exit"] = time.perf_counter()
        report["failures"] = result.failures
        report["blas_threads"] = blas_threads()
        report["environment"] = environment(report["blas_threads"])
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        report["per_span_s"] = per_span_cost()
        tracer.write_spans(Path(args.trace_dir) / "spans.csv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
