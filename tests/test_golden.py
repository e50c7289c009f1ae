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

import ehrcluster.experiment as experiment
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
    pooled, serial = tmp_path / "pool", tmp_path / "serial"
    assert golden.run_grid(pooled).failures == []
    # a pass-through swap of any package function makes run_experiment fit in process
    real = experiment.score
    monkeypatch.setattr(experiment, "score", lambda *args, **kwargs: real(*args, **kwargs))
    assert golden.run_grid(serial).failures == []

    def files(root):
        return sorted(
            p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in ("timings.csv", "manifest.json")
        )

    assert files(pooled) == files(serial)
    for name in files(pooled):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name
    frozen = json.loads((golden.GOLDEN / "sha256.json").read_text())
    assert golden.digests(pooled) == golden.digests(serial) == frozen

    def workers(root):
        return json.loads((root / "manifest.json").read_text())["workers"]

    assert workers(serial) == 1
    cores = len(os.sched_getaffinity(0))
    if cores >= 2:
        # five training cells, and one job per sweep dimension
        assert workers(pooled) == min(cores, 5 + len(sweep_dims(33)))
