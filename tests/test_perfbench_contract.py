"""The benchmark's contract with the package, checked without a timed run.

``perfbench`` wraps package functions by (module, name) and checks each traced
run's call counts against the counts its workload's config implies. A renamed
function or a changed call structure would otherwise show only in a long
traced benchmark run.
"""
import importlib
import importlib.util
import json
from pathlib import Path

from ehrcluster.experiment import parse_config, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"


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
    # the golden grid: batches smaller than the cohort, since a full-data forward is
    # told apart by its row count
    doc = {**json.loads(GOLDEN_CONFIG.read_text()), "output_dir": str(tmp_path)}
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
