"""Out-of-program tracer: wraps ehrcluster's public functions with timed spans.

Nothing under ``src/`` knows about this module. ``Tracer.install`` swaps each
traced function for a wrapper in every ``ehrcluster`` module namespace that
holds it, because ``deepcluster``, ``ensemble``, ``experiment`` and the
package ``__init__`` import functions by name; a wrapper set only on the
defining module would miss their calls. Calls inside the defining module
resolve the global name at call time, so they are caught too.

Each call records one span ``[key, parent, start, end, rows]`` in memory.
A span's self time is its duration minus the durations of its direct
children. Counters that the program computes and then drops (k-means and
EM iterations, collapse reseeds, bytes written) are read from return values.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# (module, function) -> span key. Several functions may share one key; the
# key's self time then sums them without double counting nested calls.
TRACED = {
    ("autoencoder", "pretrain"): "autoencoder.pretrain",
    ("autoencoder", "forward"): "autoencoder.forward",
    ("autoencoder", "backward"): "autoencoder.backward",
    ("autoencoder", "adam_step"): "autoencoder.adam_step",
    ("autoencoder", "encode"): "autoencoder.encode",
    ("deepcluster", "finetune"): "deepcluster.finetune",
    ("deepcluster", "clustering_gradients"): "deepcluster.clustering_gradients",
    ("deepcluster", "soft_assign"): "deepcluster.soft_assign",
    ("deepcluster", "soft_assign_student_t"): "deepcluster.soft_assign",
    ("deepcluster", "soft_assign_gaussian"): "deepcluster.soft_assign",
    ("deepcluster", "init_clusters"): "deepcluster.init_clusters",
    ("deepcluster", "assign"): "deepcluster.assign",
    ("deepcluster", "target_distribution"): "deepcluster.target_distribution",
    ("traditional", "kmeans_fit"): "traditional.kmeans_fit",
    ("traditional", "gmm_fit"): "traditional.gmm_fit",
    ("traditional", "gaussian_log_responsibilities"): "traditional.log_resp",
    ("ensemble", "run_dimension_sweep"): "ensemble.sweep",
    ("ensemble", "dimension_ensemble"): "ensemble.vote",
    ("ensemble", "majority_vote"): "ensemble.vote",
    ("data", "generate_synthetic"): "data.generate_synthetic",
    ("data", "load_csv"): "data.load_csv",
    ("data", "preprocess"): "data.preprocess",
    ("metrics", "score"): "metrics.score",
    ("metrics", "average_rank"): "metrics.average_rank",
    ("util", "write_csv"): "util.write_csv",
    ("experiment", "run_experiment"): "experiment.run_experiment",
}

# keys whose first array argument's row count is recorded per call
_ROWS_ARG = {"autoencoder.forward": 1, "traditional.log_resp": 0}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ehrcluster" or name.startswith("ehrcluster."))
        ]
        for (mod_name, fn_name), key in TRACED.items():
            original = getattr(sys.modules[f"ehrcluster.{mod_name}"], fn_name)
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._swapped.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    def _count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def _wrap(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        rows_arg = _ROWS_ARG.get(key)
        on_return = self._return_hook(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = len(args[rows_arg]) if rows_arg is not None else 0
            span = [key, stack[-1] if stack else -1, clock(), 0.0, rows]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return wrapper

    def _return_hook(self, key: str, fn):
        """Counters read from what the program returns; no program change needed."""
        if key == "traditional.kmeans_fit":
            return lambda a, kw, model: self._count("traditional.kmeans_iters", model.n_iter)
        if key == "traditional.gmm_fit":
            signature = inspect.signature(fn)

            def gmm(a, kw, model):
                bound = signature.bind(*a, **kw)
                bound.apply_defaults()
                self._count("traditional.gmm_em_iters", model.n_iter)
                self._count("traditional.gmm_max_iter_hits", model.n_iter >= bound.arguments["max_iter"])

            return gmm
        if key == "deepcluster.finetune":
            return lambda a, kw, dcm: self._count("deepcluster.collapse_events", len(dcm.collapse_events))
        if key == "ensemble.sweep":
            return lambda a, kw, runs: self._count("ensemble.sweep_runs", len(runs))
        if key == "util.write_csv":
            return lambda a, kw, out: self._count(
                "util.out_bytes", os.path.getsize(a[0] if a else kw["path"])
            )
        return None

    def summary(self) -> dict:
        """Per key: calls, inclusive and self seconds, and per-row-count splits."""
        child = [0.0] * len(self.spans)
        for key, parent, start, end, rows in self.spans:
            if parent >= 0:
                child[parent] += end - start
        keys: dict[str, dict] = {}
        for i, (key, parent, start, end, rows) in enumerate(self.spans):
            entry = keys.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "by_rows": {}})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
            if rows:
                split = entry["by_rows"].setdefault(str(rows), [0, 0.0])
                split[0] += 1
                split[1] += end - start
        return {"keys": keys, "counters": dict(self.counters), "spans": len(self.spans)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,rows\n")
            for i, (key, parent, start, end, rows) in enumerate(self.spans):
                fh.write(f"{i},{parent},{key},{start!r},{end!r},{rows}\n")


def per_span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, from timing a wrapped no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap("calibration", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls
