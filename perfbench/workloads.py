"""The benchmark's workloads: input files made from a seed, and the call counts
each workload's config implies.

Every workload writes its inputs (a config JSON, and for ``raw_csv`` a CSV
plus schema in the ``ehrcluster generate`` format) before anything is timed.
The program receives only those files.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

# configs/benchmark.json as frozen; the benchmark keeps its own copy so an edit
# to the repo's config cannot silently change what the benchmark measures.
GRID_DESK = {
    "seed": 20260810,
    "profile": "desk",
    "k": 2,
    "max_missing_rate": 0.05,
    "data": {
        "synthetic": {
            "n_samples": 2000,
            "n_features": 33,
            "class_ratio": 0.5263157894736842,
            "separation": 2.5,
            "cluster_shape": "spherical",
            "missing_rate": 0.01,
            "seed": 11,
        }
    },
    "cohorts": [{"name": "combined", "seed_offset": 0}],
    "methods": [
        {"name": "kmeans_x", "kind": "kmeans_x"},
        {"name": "gmm_x", "kind": "gmm_x"},
        {"name": "kmeans_z", "kind": "kmeans_z"},
        {"name": "gmm_z", "kind": "gmm_z"},
        {"name": "dec", "kind": "deep_student_t"},
        {"name": "idec", "kind": "deep_student_t_recon"},
        {"name": "gceals_d10", "kind": "deep_gaussian"},
        {"name": "gceals_ensemble", "kind": "deep_gaussian_sweep"},
        {"name": "kgg", "kind": "kgg"},
    ],
    "output_dir": "out",
}

# Each workload keeps one fixed cohort; the seed is the config's base seed,
# from which every method derives its own (k-means restarts, weight init,
# shuffles). Work per run then depends little on the seed.
PAPER_EPOCHS = {"pretrain_epochs": 1, "finetune_epochs": 1}
PAPER_COHORT = {
    "n_samples": 2000,
    "n_features": 33,
    "class_ratio": 0.3,
    "separation": 2.5,
    "cluster_shape": "diagonal",
    "missing_rate": 0.01,
    "seed": 7,
}
RAW_CSV_COHORT = {
    "n_samples": 6000,
    "n_features": 33,
    "class_ratio": 0.3,
    "separation": 3.0,
    "cluster_shape": "correlated",
    "missing_rate": 0.01,
    "seed": 7,
}

# schedule defaults per profile, mirrored from ehrcluster.experiment.PROFILES
_PROFILE_EPOCHS = {"desk": (200, 100), "paper": (1000, 1000)}
_BATCH = 256
_REFRESH_INTERVAL = 10


def grid_desk(seed: int) -> tuple[dict, dict | None]:
    return {**GRID_DESK, "seed": seed}, None


def paper_stack(seed: int) -> tuple[dict, dict | None]:
    doc = {
        "seed": seed,
        "profile": "paper",
        "k": 2,
        "data": {"synthetic": PAPER_COHORT},
        "cohorts": [{"name": "cohort", "seed_offset": 0}],
        "methods": [
            {"name": "kmeans_z", "kind": "kmeans_z",
             "params": {"pretrain_epochs": PAPER_EPOCHS["pretrain_epochs"]}},
            {"name": "dec", "kind": "deep_student_t", "params": PAPER_EPOCHS},
            {"name": "idec", "kind": "deep_student_t_recon", "params": PAPER_EPOCHS},
        ],
    }
    return doc, None


def raw_csv(seed: int) -> tuple[dict, dict | None]:
    doc = {
        "seed": seed,
        "profile": "desk",
        "k": 2,
        "data": {"csv": {"path": "data/synthetic.csv", "schema": "data/schema.json",
                         "label_column": "label"}},
        "cohorts": [{"name": "extract", "seed_offset": 0}],
        "methods": [
            {"name": "kmeans_x", "kind": "kmeans_x"},
            {"name": "gmm_x", "kind": "gmm_x", "params": {"cov_type": "full"}},
            {"name": "gmm_x_diag", "kind": "gmm_x", "params": {"cov_type": "diagonal"}},
        ],
    }
    return doc, RAW_CSV_COHORT


# name -> seed -> (config document, spec of the CSV the config reads, if any)
WORKLOADS = {"grid_desk": grid_desk, "paper_stack": paper_stack, "raw_csv": raw_csv}


def make_inputs(name: str, seed: int, work: Path, src: Path) -> tuple[Path, str]:
    """Write the workload's inputs once; return the config path and the input key.

    The key names the workload plus a digest of its definition, so inputs,
    hashes and counts recorded under it are never compared with those of an
    edited definition. The CSV, written by ``ehrcluster generate``, is shared
    by every seed.
    """
    doc, data_spec = WORKLOADS[name](seed)
    definition = json.dumps([{**doc, "seed": None}, data_spec], sort_keys=True)
    key = f"{name}-{hashlib.sha256(definition.encode()).hexdigest()[:12]}"
    inputs = work / "inputs" / key
    data = inputs / "data"
    if data_spec is not None and not (data / "schema.json").exists():
        data.mkdir(parents=True, exist_ok=True)
        (data / "spec.json").write_text(json.dumps(data_spec))
        subprocess.run(
            [sys.executable, "-m", "ehrcluster", "generate",
             "--config", str(data / "spec.json"), "--out", str(data)],
            check=True, env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.DEVNULL,
        )
    config = inputs / f"seed-{seed}.json"
    if not config.exists():
        inputs.mkdir(parents=True, exist_ok=True)
        partial = config.with_suffix(".tmp")
        partial.write_text(json.dumps(doc, indent=2))
        partial.replace(config)
    return config, key


def expected_counts(doc: dict, n_rows: int) -> dict[str, int]:
    """Calls the config implies for a cohort of ``n_rows`` rows after preprocessing.

    A training epoch takes ceil(n / batch) forward, backward and Adam calls
    plus one full-data forward; fine-tuning refreshes its target every
    ``target_update_interval`` epochs. Counts assume one cohort, 33 features
    and gamma > 0, as in every workload here.
    """
    pre_default, fine_default = _PROFILE_EPOCHS[doc.get("profile", "desk")]
    counts = dict.fromkeys(
        ["autoencoder.pretrain_calls", "autoencoder.forward_calls", "autoencoder.forward_full_calls",
         "autoencoder.backward_calls", "autoencoder.adam_step_calls", "autoencoder.encode_calls",
         "deepcluster.finetune_calls", "deepcluster.clustering_gradients_calls",
         "deepcluster.target_refreshes", "traditional.kmeans_fit_calls", "ensemble.sweep_runs"],
        0,
    )

    def add(key, n):
        counts[key] += n

    def train(epochs, batch, finetune):
        steps = math.ceil(n_rows / batch)
        add("autoencoder.forward_calls", epochs * (steps + 1))
        add("autoencoder.forward_full_calls", epochs)
        add("autoencoder.backward_calls", epochs * steps)
        add("autoencoder.adam_step_calls", epochs * steps)
        if finetune:
            add("deepcluster.finetune_calls", 1)
            add("deepcluster.clustering_gradients_calls", epochs * steps)
        else:
            add("autoencoder.pretrain_calls", 1)

    for method in doc["methods"]:
        kind, p = method["kind"], method.get("params", {})
        pre = int(p.get("pretrain_epochs", pre_default))
        fine = int(p.get("finetune_epochs", fine_default))
        batch = int(p.get("batch_size", _BATCH))
        refreshes = math.ceil(fine / int(p.get("target_update_interval", _REFRESH_INTERVAL)))
        if kind in ("kmeans_x", "gmm_x"):
            add("traditional.kmeans_fit_calls", 1)
        elif kind in ("kmeans_z", "gmm_z"):
            train(pre, batch, finetune=False)
            add("autoencoder.encode_calls", 1)
            add("traditional.kmeans_fit_calls", 1)
        elif kind in ("deep_student_t", "deep_student_t_recon", "deep_gaussian"):
            train(pre, batch, finetune=False)
            train(fine, batch, finetune=True)
            # pretrained embedding, cluster init, each refresh, assign, final embedding
            add("autoencoder.encode_calls", refreshes + 4)
            add("deepcluster.target_refreshes", refreshes)
            add("traditional.kmeans_fit_calls", 1)
        elif kind == "deep_gaussian_sweep":
            runs = len(range(2, 33 + 1, 3))  # sweep_dims(n_features=33)
            for _ in range(runs):
                train(pre, batch, finetune=False)
                train(fine, batch, finetune=True)
            add("autoencoder.encode_calls", runs * (refreshes + 2))
            add("deepcluster.target_refreshes", runs * refreshes)
            add("traditional.kmeans_fit_calls", runs)
            add("ensemble.sweep_runs", runs)
    return counts
