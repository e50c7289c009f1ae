"""Golden master: a tiny grid of all nine method kinds must reproduce its frozen outputs.

Scores, ranks and labels must match byte for byte (by sha256); embeddings and
loss histories to rtol 1e-12. ``scripts/regenerate_golden.py`` rewrites
``tests/golden/`` after a change that is meant to move them.
"""
import importlib.util
import json
import os
from pathlib import Path

import numpy as np

import ehrcluster.ensemble as ensemble
import ehrcluster.experiment as experiment
from ehrcluster.autoencoder import build
from ehrcluster.ensemble import sweep_dims

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("regenerate_golden", ROOT / "scripts" / "regenerate_golden.py")
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def read_csv(path: Path):
    header, _, body = path.read_text().partition("\n")
    return header, np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)


def test_tiny_grid_reproduces_the_golden_outputs(tmp_path):
    result = golden.run_grid(tmp_path)
    assert result.failures == []
    assert golden.digests(tmp_path) == json.loads((golden.GOLDEN / "sha256.json").read_text())
    for sub in golden.COMPARED:
        names = sorted(p.name for p in (golden.GOLDEN / sub).iterdir())
        assert sorted(p.name for p in (tmp_path / sub).iterdir()) == names
        for name in names:
            header, values = read_csv(tmp_path / sub / name)
            frozen_header, frozen = read_csv(golden.GOLDEN / sub / name)
            assert header == frozen_header, f"{sub}/{name}"
            np.testing.assert_allclose(values, frozen, rtol=1e-12, atol=0, err_msg=f"{sub}/{name}")


def test_pool_and_in_process_runs_write_the_same_files(tmp_path, monkeypatch):
    golden_doc = json.loads((golden.GOLDEN / "config.json").read_text())
    raw_doc = {**golden_doc, "methods": [
        {"name": "kmeans_x", "kind": "kmeans_x"},
        {"name": "gmm_x", "kind": "gmm_x"},
        {"name": "gmm_x_diag", "kind": "gmm_x", "params": {"cov_type": "diagonal"}},
    ]}
    # each config and its jobs: one per non-voting cell, the sweep one per dimension
    cases = {"golden": (golden_doc, 7 + len(sweep_dims(33))), "raw": (raw_doc, 3)}

    def run(name, side):
        out = tmp_path / name / side
        result = experiment.run_experiment(experiment.parse_config({**cases[name][0], "output_dir": str(out)}))
        assert result.failures == []
        return out

    pooled = {name: run(name, "pool") for name in cases}
    # a pass-through swap of any package function makes run_experiment fit in process;
    # this one records every network the in-process runs build
    built = []
    for module in (experiment, ensemble):
        monkeypatch.setattr(module, "build", lambda *a, **kw: built.append(build(*a, **kw)) or built[-1])
    serial = {name: run(name, "serial") for name in cases}
    # the golden grid runs the desk profile: its five d = 10 networks and the sweep's
    # compute in float32, so the bytes compared below are float32 networks' bytes
    assert len(built) == 5 + len(sweep_dims(33))
    assert {m.dtype for m in built} == {np.dtype(np.float32)}

    def files(root):
        return sorted(
            p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in ("timings.csv", "manifest.json")
        )

    def workers(root):
        return json.loads((root / "manifest.json").read_text())["workers"]

    cores = len(os.sched_getaffinity(0))
    for name, (_, jobs) in cases.items():
        assert files(pooled[name]) == files(serial[name])
        for f in files(pooled[name]):
            assert (pooled[name] / f).read_bytes() == (serial[name] / f).read_bytes(), f
        assert workers(serial[name]) == 1
        if cores >= 2:
            assert workers(pooled[name]) == min(cores, jobs)
    frozen = json.loads((golden.GOLDEN / "sha256.json").read_text())
    assert golden.digests(pooled["golden"]) == golden.digests(serial["golden"]) == frozen


def test_a_rerun_with_failed_cells_leaves_none_of_their_files_and_no_ranks(tmp_path):
    golden_doc = json.loads((golden.GOLDEN / "config.json").read_text())
    out = tmp_path / "o"

    def run(methods):
        return experiment.run_experiment(
            experiment.parse_config({**golden_doc, "methods": methods, "output_dir": str(out)}))

    assert run(golden_doc["methods"]).failures == []
    failing = ("c__deep_gaussian_sweep", "c__kgg")

    def cell_files(stems):
        names = ("labels/{}.csv", "labels_runs/{}.csv", "embeddings/{}.csv", "history/{}.csv",
                 "history/{}__pretrain.csv")
        return sorted(p for stem in stems for name in names if (p := out / name.format(stem)).exists())

    assert (out / "ranks.csv").exists() and cell_files(failing)
    stray = out / "labels" / "other__m.csv"  # a file no cell of the config names
    stray.write_text("sample_index,label\n")
    # the sweep's one size is above the cohort's 33 features, so it fails, and the kgg vote over it
    methods = [
        {**m, "params": {**m["params"], "dims": [40]}} if m["kind"] == "deep_gaussian_sweep" else m
        for m in golden_doc["methods"]
    ]
    result = run(methods)
    assert sorted(f["method"] for f in result.failures) == ["deep_gaussian_sweep", "kgg"]
    assert result.ranks == {} and len(result.scores) == 7
    assert not (out / "ranks.csv").exists()
    assert cell_files(failing) == []
    scored = [f"c__{m['name']}.csv" for m in methods if f"c__{m['name']}" not in failing]
    assert sorted(p.name for p in (out / "labels").iterdir()) == sorted([*scored, stray.name])
    assert stray.read_text() == "sample_index,label\n"
