"""The benchmark's contract with the package, checked without a timed run.

``perfbench`` wraps package functions by (module, name) and checks each traced
run's call counts against the counts its workload's config implies. A renamed
function or a changed call structure would otherwise show only in a long
traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

from ehrcluster.experiment import parse_config, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = load("tracer").TRACED
    missing = [
        f"{module}.{name}" for module, name in traced
        if not callable(getattr(importlib.import_module(f"ehrcluster.{module}"), name, None))
    ]
    assert missing == []


def test_traced_grid_makes_the_calls_its_config_implies(tmp_path):
    tracer_module, run = load("tracer"), load("run")
    # batches smaller than the cohort, since a full-data forward is told apart by its row count
    pretrain = {"pretrain_epochs": 1, "hidden": [4], "batch_size": 32}
    deep = {**pretrain, "finetune_epochs": 2, "target_update_interval": 1}
    params = {"kmeans_z": pretrain, "gmm_z": pretrain, "deep_student_t": deep,
              "deep_student_t_recon": deep, "deep_gaussian": deep, "deep_gaussian_sweep": deep}
    kinds = ["kmeans_x", "gmm_x", "kmeans_z", "gmm_z", "deep_student_t", "deep_student_t_recon",
             "deep_gaussian", "deep_gaussian_sweep", "kgg"]
    doc = {
        "seed": 20260810,
        "data": {"synthetic": {"n_samples": 60, "n_features": 33, "class_ratio": 1.0,
                               "separation": 3.0}},
        "cohorts": [{"name": "c"}],
        "methods": [{"name": kind, "kind": kind, "params": params.get(kind, {})} for kind in kinds],
        "output_dir": str(tmp_path),
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = run_experiment(parse_config(doc))
    finally:
        tracer.uninstall()
    assert result.failures == []
    layers = run.per_layer(tracer.summary(), tmp_path, 60)
    expected = run.expected_counts(doc, 60)
    assert len(expected) == 11
    assert {name: layers[name] for name in expected} == expected
