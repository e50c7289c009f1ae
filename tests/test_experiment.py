import copy
import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrcluster.data import SyntheticSpec, generate_synthetic
from ehrcluster.deepcluster import DeepClusterConfig
from ehrcluster.errors import ConfigError
from ehrcluster.experiment import (
    METHODS,
    PROFILES,
    CohortSpec,
    ExperimentConfig,
    Method,
    MethodResult,
    MethodSpec,
    _blas_core,
    _blas_threads,
    _cell,
    _config_doc,
    _config_hash,
    _cohorts,
    _finetune_config,
    _fit_grid,
    _fit_on_pool,
    _one_blas_thread,
    _train_config,
    _usable_cores,
    _versions,
    _with_defaults,
    load_config,
    parse_config,
    run_experiment,
)
from ehrcluster.util import derive_seed

from conftest import swap_fields


def minimal_doc(**overrides):
    doc = {
        "seed": 3,
        "data": {"synthetic": {"n_samples": 100, "n_features": 5,
                                "class_ratio": 1.0, "separation": 6.0,
                                "cluster_shape": "spherical",
                                "missing_rate": 0.0, "seed": 8}},
        "methods": [{"name": "kmeans_x", "kind": "kmeans_x"}],
    }
    doc.update(overrides)
    return doc


def fit_cell(spec: MethodSpec, ds, k: int, seed: int, profile):
    """One non-voting cell fitted as a run fits it in process: ``_cell``'s jobs in turn at one BLAS
    thread, then its finish over their results."""
    jobs, finish = _cell(spec, ds, k, seed, profile)
    with _one_blas_thread():
        return finish([fn(*args) for _, fn, args in jobs])


ROOT = Path(__file__).resolve().parents[1]
FROZEN_DOC = json.loads((ROOT / "configs" / "benchmark.json").read_text())

class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(minimal_doc())
        assert cfg.seed == 3
        assert cfg.cohorts[0].name == "all"
        assert cfg.profile == "desk"

    def test_seed_required(self):
        doc = minimal_doc()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)

    def test_exactly_one_data_source(self):
        with pytest.raises(ConfigError, match="data"):
            parse_config(minimal_doc(data={}))
        with pytest.raises(ConfigError, match="data"):
            doc = minimal_doc()
            doc["data"]["csv"] = {"path": "x.csv"}
            parse_config(doc)

    def test_unknown_kind(self):
        doc = minimal_doc(methods=[{"name": "m", "kind": "dbscan"}])
        with pytest.raises(ConfigError, match=r"methods\[0\].kind"):
            parse_config(doc)

    def test_duplicate_names(self):
        doc = minimal_doc(methods=[
            {"name": "m", "kind": "kmeans_x"},
            {"name": "m", "kind": "gmm_x"},
        ])
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(doc)

    def test_dims_rejected_outside_the_sweep(self):
        doc = minimal_doc(methods=[{"name": "m", "kind": "deep_gaussian",
                                    "params": {"dims": [2, 3]}}])
        with pytest.raises(ConfigError, match=r"methods\[0\].params.dims"):
            parse_config(doc)

    @pytest.mark.parametrize("kind, param", [
        ("kmeans_z", "cov_type"),
        ("kmeans_z", "reg_covar"),
        ("gmm_z", "n_init"),
        ("kmeans_z", "finetune_epochs"),
        ("deep_gaussian_sweep", "embed_dim"),
    ])
    def test_params_a_kind_ignores_are_rejected(self, kind, param):
        doc = minimal_doc(methods=[{"name": "m", "kind": kind, "params": {param: 1}}])
        with pytest.raises(ConfigError, match=rf"methods\[0\].params.{param}"):
            parse_config(doc)

    def test_unknown_param_carries_field_path(self):
        doc = minimal_doc(methods=[{"name": "m", "kind": "kmeans_x",
                                    "params": {"bananas": 3}}])
        with pytest.raises(ConfigError, match=r"methods\[0\].params.bananas"):
            parse_config(doc)

    def test_kgg_requires_voter_kinds(self):
        doc = minimal_doc(methods=[
            {"name": "kmeans_x", "kind": "kmeans_x"},
            {"name": "kgg", "kind": "kgg"},
        ])
        with pytest.raises(ConfigError, match="kgg"):
            parse_config(doc)

    @pytest.mark.parametrize("kind, params, field", [
        ("kmeans_x", {"n_init": "ten"}, "n_init"),
        ("gmm_x", {"tol": None}, "tol"),
        ("deep_gaussian", {"hidden": 5}, "hidden"),
        ("deep_gaussian", {"hidden": ["wide"]}, "hidden"),
        ("deep_gaussian_sweep", {"dims": 3}, "dims"),
        ("kgg", {"voters": "kmeans_x"}, "voters"),
        ("gmm_x", {"cov_type": 1}, "cov_type"),
        ("kmeans_x", {"n_init": 2.7}, "n_init"),
        ("kmeans_x", {"n_init": True}, "n_init"),
    ])
    def test_param_of_the_wrong_type_carries_field_path(self, kind, params, field):
        doc = minimal_doc(methods=[{"name": "m", "kind": kind, "params": params}])
        with pytest.raises(ConfigError, match=rf"methods\[0\].params.{field}"):
            parse_config(doc)

    def test_params_are_cast_once_at_load(self):
        doc = minimal_doc(methods=[{"name": "m", "kind": "kmeans_z",
                                    "params": {"n_init": "3", "tol": 1, "hidden": [8, 4]}}])
        assert parse_config(doc).methods[0].params == {"n_init": 3, "tol": 1.0, "hidden": (8, 4)}

    def test_integral_values_load_as_integers(self):
        cfg = parse_config(minimal_doc(seed=4.0, k=3.0))
        assert (cfg.seed, cfg.k) == (4, 3)
        assert isinstance(cfg.k, int)

    def test_non_object_params_rejected(self):
        doc = minimal_doc(methods=[{"name": "m", "kind": "kmeans_x", "params": [1]}])
        with pytest.raises(ConfigError, match=r"methods\[0\].params"):
            parse_config(doc)

    def test_kgg_voters_resolved_at_load(self):
        doc = minimal_doc(methods=[
            {"name": "vote", "kind": "kgg"},
            {"name": "km", "kind": "kmeans_x"},
            {"name": "km2", "kind": "kmeans_x"},
            {"name": "gm", "kind": "gmm_x"},
            {"name": "sw", "kind": "deep_gaussian_sweep"},
        ])
        assert parse_config(doc).methods[0].params == {"voters": ("km", "gm", "sw")}

    @pytest.mark.parametrize("voters, message", [
        (["km", "gm"], "exactly 3"),
        (["km", "gm", "nope"], "'nope'"),
        (["km", "gm", "vote"], "'vote'"),
        (["km", "gm", "km"], "'km' is repeated"),
    ])
    def test_explicit_kgg_voters_validated(self, voters, message):
        doc = minimal_doc(methods=[
            {"name": "km", "kind": "kmeans_x"},
            {"name": "gm", "kind": "gmm_x"},
            {"name": "vote", "kind": "kgg", "params": {"voters": voters}},
        ])
        with pytest.raises(ConfigError, match=rf"methods\[2\].params.voters: .*{message}"):
            parse_config(doc)

    def test_a_repeated_sweep_dim_is_rejected(self):
        doc = minimal_doc(methods=[{"name": "m", "kind": "deep_gaussian_sweep",
                                    "params": {"dims": [2, 2, 3]}}])
        with pytest.raises(ConfigError, match=r"methods\[0\].params.dims: embed dim 2 is repeated"):
            parse_config(doc)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="profile"):
            parse_config(minimal_doc(profile="laptop"))

    def test_duplicate_cohort_names(self):
        doc = minimal_doc(cohorts=[{"name": "c"}, {"name": "c"}])
        with pytest.raises(ConfigError, match=r"cohorts\[1\].name"):
            parse_config(doc)

    @pytest.mark.parametrize("cohorts", [[], {}, 0, "", False, None, "all"])
    def test_cohorts_other_than_a_non_empty_list_are_rejected(self, cohorts):
        with pytest.raises(ConfigError, match="cohorts: expected a non-empty list"):
            parse_config(minimal_doc(cohorts=cohorts))

    def test_nullable_fields_take_null(self):
        doc = minimal_doc(cohorts=[{"name": "c", "group_column": None, "subsample_n": None}])
        assert parse_config(doc).cohorts[0].group_column is None

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fields_swapped_for_any_json_value_parse_or_raise_config_error(self, data):
        doc = swap_fields(data, copy.deepcopy(FROZEN_DOC))
        try:
            parse_config(doc)
        except ConfigError:
            pass

    def test_profiles_table(self):
        assert PROFILES["desk"]["pretrain_epochs"] == 200
        assert PROFILES["desk"]["finetune_epochs"] == 100
        assert PROFILES["paper"]["pretrain_epochs"] == 1000
        assert PROFILES["paper"]["hidden"] == (500, 500, 2000)

    @pytest.mark.parametrize("profile, schedule", [
        ("desk", {"hidden": (64, 64), "pretrain_epochs": 200, "finetune_epochs": 100}),
        ("paper", {"hidden": (500, 500, 2000), "pretrain_epochs": 1000, "finetune_epochs": 1000}),
    ])
    def test_every_kind_s_params_at_each_profile_are_written_out(self, profile, schedule):
        # each default written out once here, so a default that moves in any of its sources is seen
        kmeans = {"n_init": 10, "max_iter": 300, "tol": 1e-4}
        gmm = {"cov_type": "full", "max_iter": 300, "tol": 1e-3, "reg_covar": 1e-6}
        trained = {"hidden": schedule["hidden"], "activation": "relu", "pretrain_epochs": schedule["pretrain_epochs"],
                   "learning_rate": 1e-3, "batch_size": 256}
        finetuned = {**trained, "finetune_epochs": schedule["finetune_epochs"], "target_update_interval": 10}
        idec = {**finetuned, "embed_dim": 10, "gamma": 0.1, "recon_weight": 1.0}
        expected = {
            "kmeans_x": kmeans,
            "gmm_x": gmm,
            "kmeans_z": {**trained, "embed_dim": 10, **kmeans},
            "gmm_z": {**trained, "embed_dim": 10, **gmm},
            "deep_student_t": {**finetuned, "embed_dim": 10, "gamma": 1.0, "recon_weight": 0.0},
            "deep_student_t_recon": idec,
            "deep_gaussian": idec,
            "deep_gaussian_sweep": {**finetuned, "gamma": 0.1, "recon_weight": 1.0},
            "kgg": {},
        }
        assert expected.keys() == METHODS.keys()
        for kind, params in expected.items():
            assert _with_defaults(kind, profile, {}) == params, kind

    @pytest.mark.parametrize("kind", ["deep_student_t", "deep_gaussian", "deep_gaussian_sweep"])
    def test_every_deep_cluster_config_field_a_param_names_reaches_the_config(self, kind):
        p = _with_defaults(kind, "desk", {})
        defaults = {f.name: f.default for f in fields(DeepClusterConfig)}
        assert defaults.keys() - p.keys() == {"variant", "train"}
        changed = {name: p[name] * 2 + 3 for name in defaults.keys() & p.keys()}
        assert all(changed[name] != defaults[name] for name in changed)
        cfg = _finetune_config({**p, **changed}, "student_t", 5)
        assert {name: getattr(cfg, name) for name in changed} == changed
        assert cfg.variant == "student_t" and cfg.train == _train_config(p, 5)


class TestRunExperiment:
    def tiny_config(self, out, with_deep=False):
        methods = [
            {"name": "kmeans_x", "kind": "kmeans_x"},
            {"name": "gmm_x", "kind": "gmm_x"},
        ]
        if with_deep:
            methods += [
                {"name": "sweep", "kind": "deep_gaussian_sweep",
                 "params": {"dims": [2, 3], "hidden": [8], "pretrain_epochs": 8,
                            "finetune_epochs": 4, "target_update_interval": 2}},
                {"name": "kgg", "kind": "kgg"},
            ]
        return parse_config(minimal_doc(
            methods=methods,
            output_dir=str(out),
            cohorts=[{"name": "main"}],
        ))

    def test_score_and_label_files(self, tmp_path):
        res = run_experiment(self.tiny_config(tmp_path / "o"))
        assert not res.failures
        assert (tmp_path / "o" / "labels" / "main__kmeans_x.csv").exists()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert len(manifest["cells"]) == 2
        assert all(c["wall_clock_seconds"] > 0 for c in manifest["cells"])

    def test_timings_rows_and_result_cells_are_the_manifest_cells(self, tmp_path):
        cfg = parse_config(minimal_doc(
            methods=[{"name": "kmeans_x", "kind": "kmeans_x"}, {"name": "gmm_x", "kind": "gmm_x"}],
            output_dir=str(tmp_path / "o"),
            cohorts=[{"name": "a"}, {"name": "b"}],
        ))
        res = run_experiment(cfg)
        cells = json.loads((tmp_path / "o" / "manifest.json").read_text())["cells"]
        assert res.cells == cells
        assert [c["seed"] for c in cells] == [derive_seed(3, ci, j) for ci in range(2) for j in range(2)]
        assert [(r.cohort, r.method) for r in res.scores] == [(c["cohort"], c["method"]) for c in cells]
        lines = (tmp_path / "o" / "timings.csv").read_text().splitlines()
        assert lines[0] == "cohort,method,wall_clock_seconds"
        assert len(lines) == len(cells) + 1
        for line, cell in zip(lines[1:], cells):
            cohort, method, seconds = line.split(",")
            assert (cohort, method, float(seconds)) == (cell["cohort"], cell["method"], cell["wall_clock_seconds"])

    def test_kgg_votes_from_diskworthy_labels(self, tmp_path):
        res = run_experiment(self.tiny_config(tmp_path / "o", with_deep=True))
        assert not res.failures
        from ehrcluster.ensemble import majority_vote

        def labels_of(name):
            lines = (tmp_path / "o" / "labels" / f"main__{name}.csv").read_text().splitlines()[1:]
            return np.array([int(l.split(",")[1]) for l in lines])

        voters = [labels_of(v) for v in ("kmeans_x", "gmm_x", "sweep")]
        assert np.array_equal(majority_vote(voters), labels_of("kgg"))
        assert (tmp_path / "o" / "labels_runs" / "main__sweep.csv").exists()

    def test_a_kgg_cell_whose_voter_failed_fails_with_a_record_naming_it(self, tmp_path):
        doc = minimal_doc(methods=[
            {"name": "km", "kind": "kmeans_x"},
            {"name": "boom", "kind": "deep_gaussian", "params": {  # a network that diverges
                "hidden": [4], "embed_dim": 2, "pretrain_epochs": 2, "finetune_epochs": 1, "learning_rate": 1e200}},
            {"name": "km2", "kind": "kmeans_x", "params": {"n_init": 2}},
            {"name": "vote", "kind": "kgg", "params": {"voters": ["km", "boom", "km2"]}},
        ], output_dir=str(tmp_path / "o"))
        res = run_experiment(parse_config(doc))
        assert [r.method for r in res.scores] == ["km", "km2"]
        boom, vote = res.failures
        assert boom["method"] == "boom" and vote["method"] == "vote"
        assert vote["type"] == "ToolkitError"
        assert vote["error"] == f"voter 'boom' failed: {boom['error']}"
        assert boom["error"].startswith("loss or parameters became non-finite at epoch ")
        # the voter's own exception, chained
        assert "NonFiniteLoss: loss or parameters became non-finite" in vote["traceback"]
        assert "The above exception was the direct cause" in vote["traceback"]
        assert not (tmp_path / "o" / "labels" / "all__vote.csv").exists()

    def test_a_sweep_cell_times_its_jobs_and_its_vote(self, tmp_path, monkeypatch):
        import ehrcluster.experiment as experiment

        clock = itertools.count(0, 10)  # every reading 10 s after the last, so each timed span is 10 s
        monkeypatch.setattr(experiment.time, "perf_counter", lambda: next(clock))
        doc = minimal_doc(methods=[{"name": "sweep", "kind": "deep_gaussian_sweep", "params": {
            "dims": [2, 3], "hidden": [4], "pretrain_epochs": 1, "finetune_epochs": 1}}],
            output_dir=str(tmp_path / "o"))
        (cell,) = run_experiment(parse_config(doc)).cells
        assert cell["wall_clock_seconds"] == 30  # two jobs and the vote

    def test_single_method_high_separation(self, tmp_path):
        doc = minimal_doc(output_dir=str(tmp_path / "o"))
        doc["data"]["synthetic"]["separation"] = 10.0
        doc["data"]["synthetic"]["n_samples"] = 400
        res = run_experiment(parse_config(doc))
        assert len(res.scores) == 1
        assert res.scores[0].acc >= 0.99

    def test_profiles_share_file_schema(self, tmp_path):
        headers = {}
        for profile in ("desk", "paper"):
            out = tmp_path / profile
            # kmeans_x ignores epochs, so the paper profile stays cheap here
            cfg = parse_config(minimal_doc(profile=profile, output_dir=str(out)))
            run_experiment(cfg)
            headers[profile] = {
                name: (out / name).read_text().splitlines()[0]
                for name in ("scores.csv", "ranks.csv", "timings.csv")
            }
            manifest = json.loads((out / "manifest.json").read_text())
            headers[profile]["epochs"] = manifest["profile"]["pretrain_epochs"]
        assert {k: v for k, v in headers["desk"].items() if k != "epochs"} == {
            k: v for k, v in headers["paper"].items() if k != "epochs"
        }
        assert headers["desk"]["epochs"] != headers["paper"]["epochs"]

    def test_rerun_byte_identical(self, tmp_path):
        run_experiment(self.tiny_config(tmp_path / "a"))
        run_experiment(self.tiny_config(tmp_path / "b"))
        assert (tmp_path / "a" / "scores.csv").read_bytes() == (tmp_path / "b" / "scores.csv").read_bytes()
        assert (tmp_path / "a" / "ranks.csv").read_bytes() == (tmp_path / "b" / "ranks.csv").read_bytes()

    def test_failed_method_does_not_abort_grid(self, tmp_path):
        doc = minimal_doc(
            methods=[
                {"name": "kmeans_x", "kind": "kmeans_x"},
                {"name": "boom", "kind": "deep_gaussian",
                 "params": {"hidden": [8], "pretrain_epochs": 5, "finetune_epochs": 3,
                            "embed_dim": 2, "learning_rate": 1e200}},
            ],
            output_dir=str(tmp_path / "o"),
        )
        with np.errstate(all="ignore"):
            res = run_experiment(parse_config(doc))
        assert [f["method"] for f in res.failures] == ["boom"]
        assert [r.method for r in res.scores] == ["kmeans_x"]
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["failures"][0]["method"] == "boom"
        # an incomplete grid cannot be ranked
        assert not (tmp_path / "o" / "ranks.csv").exists()

    def test_failed_sweep_run_does_not_abort_grid(self, tmp_path):
        doc = minimal_doc(
            methods=[
                {"name": "kmeans_x", "kind": "kmeans_x"},
                {"name": "sweep", "kind": "deep_gaussian_sweep",
                 "params": {"dims": [2, 5], "hidden": [8], "pretrain_epochs": 3,
                            "finetune_epochs": 2, "learning_rate": 1e12}},
            ],
            output_dir=str(tmp_path / "o"),
        )
        doc["data"]["synthetic"]["n_samples"] = 200
        with np.errstate(all="ignore"):
            res = run_experiment(parse_config(doc))
        assert [f["method"] for f in res.failures] == ["sweep"]
        assert "embed_dim=2" in res.failures[0]["error"]
        assert [r.method for r in res.scores] == ["kmeans_x"]
        for name in ("scores.csv", "timings.csv", "manifest.json"):
            assert (tmp_path / "o" / name).exists()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["failures"][0]["method"] == "sweep"

    @pytest.mark.parametrize("kind, fitter", [
        ("kmeans_x", "kmeans_fit"),
        ("kmeans_z", "kmeans_fit"),
        ("gmm_x", "gmm_fit"),
        ("gmm_z", "gmm_fit"),
    ])
    def test_max_iter_reaches_the_fitter(self, tmp_path, monkeypatch, kind, fitter):
        import ehrcluster.experiment as experiment

        seen = []
        real = getattr(experiment, fitter)

        def spy(*args, **kwargs):
            seen.append(kwargs.get("max_iter"))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, fitter, spy)
        params = {"max_iter": 7}
        if kind.endswith("_z"):
            params.update(hidden=[8], embed_dim=2, pretrain_epochs=2)
        doc = minimal_doc(methods=[{"name": "m", "kind": kind, "params": params}],
                          output_dir=str(tmp_path / "o"))
        run_experiment(parse_config(doc))
        assert seen == [7]

    def test_non_toolkit_error_in_one_cell_is_recorded(self, tmp_path, monkeypatch):
        import ehrcluster.experiment as experiment

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(experiment, "gmm_fit", singular)
        doc = minimal_doc(
            methods=[
                {"name": "kmeans_x", "kind": "kmeans_x"},
                {"name": "gmm_x", "kind": "gmm_x"},
                {"name": "again", "kind": "kmeans_x", "params": {"n_init": 2}},
            ],
            output_dir=str(tmp_path / "o"),
        )
        res = run_experiment(parse_config(doc))
        assert [r.method for r in res.scores] == ["kmeans_x", "again"]
        (failure,) = res.failures
        assert failure["method"] == "gmm_x"
        assert failure["type"] == "LinAlgError"
        assert "Singular matrix" in failure["error"]
        assert "LinAlgError" in failure["traceback"]
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["failures"][0]["type"] == "LinAlgError"

    def test_config_hash_ignores_output_dir(self, tmp_path):
        def config_hash(out, seed=3):
            run_experiment(parse_config(minimal_doc(seed=seed, output_dir=str(tmp_path / out))))
            return json.loads((tmp_path / out / "manifest.json").read_text())["config_hash"]

        first = config_hash("a")
        assert config_hash("b") == first
        assert config_hash("c", seed=4) != first

    def test_profile_defaults_filled_at_run_time(self, monkeypatch):
        import ehrcluster.experiment as experiment

        seen = []

        def stop(input_dim, embed_dim, hidden, activation, seed, dtype):
            seen.append((embed_dim, tuple(hidden), activation))
            raise RuntimeError("stop before training")

        monkeypatch.setattr(experiment, "build", stop)
        ds = generate_synthetic(SyntheticSpec(40, 5, 1.0, 4.0, "spherical", 0.0, seed=1))
        for profile, params in (("desk", {}), ("paper", {}), ("paper", {"hidden": (8,), "embed_dim": 2})):
            with pytest.raises(RuntimeError, match="stop"):
                fit_cell(MethodSpec("m", "kmeans_z", params), ds, 2, 0, profile)
        assert seen == [(10, (64, 64), "relu"), (10, (500, 500, 2000), "relu"), (2, (8,), "relu")]

    def test_a_sweep_cell_is_the_vote_of_run_dimension_sweep(self):
        from ehrcluster.autoencoder import TrainConfig
        from ehrcluster.deepcluster import DeepClusterConfig
        from ehrcluster.ensemble import majority_vote, run_dimension_sweep

        ds = generate_synthetic(SyntheticSpec(80, 5, 1.0, 4.0, "spherical", 0.0, seed=1))
        params = {"dims": (2, 3), "hidden": (8,), "pretrain_epochs": 4, "finetune_epochs": 3}
        got = fit_cell(MethodSpec("m", "deep_gaussian_sweep", params), ds, 2, 5, "desk")
        cfg = DeepClusterConfig(finetune_epochs=3, train=TrainConfig(epochs=4, seed=5))
        runs = run_dimension_sweep(ds, [2, 3], cfg, k=2, hidden=(8,))
        assert np.array_equal(got.label_runs, runs)
        assert np.array_equal(got.labels, majority_vote(runs))
        assert got.run_columns == ["d2", "d3"]

    def test_missing_labels_rejected(self, tmp_path):
        doc = minimal_doc(output_dir=str(tmp_path / "o"))
        cfg = parse_config(doc)
        # strip labels by synthesizing without them is not possible here, so
        # check the csv path instead: a csv source with no label column
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("f00,f01\n1,2\n3,4\n5,6\n")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps([
            {"name": "f00", "unit": "", "bound_lo": -10, "bound_hi": 10},
            {"name": "f01", "unit": "", "bound_lo": -10, "bound_hi": 10},
        ]))
        doc["data"] = {"csv": {"path": str(csv_path), "schema": str(schema)}}
        with pytest.raises(ConfigError, match="labels"):
            run_experiment(parse_config(doc))


class TestConfigBuiltInPython:
    """``run_experiment`` checks a config built in Python as ``parse_config`` checks a document."""

    @staticmethod
    def run(out, methods):
        return run_experiment(ExperimentConfig(
            seed=1, methods=methods, cohorts=[CohortSpec("all")], output_dir=str(out),
            data=SyntheticSpec(60, 4, 1.0, 4.0, missing_rate=0.0, seed=2),
        ))

    def test_kgg_without_voters_votes_the_first_method_of_each_voter_kind(self, tmp_path):
        sweep = {"dims": (2,), "hidden": (4,), "pretrain_epochs": 1, "finetune_epochs": 1}
        res = self.run(tmp_path, [MethodSpec("km", "kmeans_x"), MethodSpec("gm", "gmm_x"),
                                  MethodSpec("sw", "deep_gaussian_sweep", sweep), MethodSpec("vote", "kgg")])
        assert res.failures == [] and [r.method for r in res.scores] == ["km", "gm", "sw", "vote"]
        assert (tmp_path / "labels_runs" / "all__vote.csv").read_text().startswith("km,gm,sw\n")

    def test_a_numeric_string_param_is_cast_as_a_document_casts_it(self, tmp_path):
        cast = self.run(tmp_path / "a", [MethodSpec("km", "kmeans_x", {"n_init": "3"})])
        number = self.run(tmp_path / "b", [MethodSpec("km", "kmeans_x", {"n_init": 3})])
        assert cast.failures == [] and cast.scores == number.scores
        labels = [tmp_path / d / "labels" / "all__km.csv" for d in "ab"]
        assert labels[0].read_bytes() == labels[1].read_bytes()

    @pytest.mark.parametrize("methods, named", [
        ([MethodSpec("m", "kmeans_x"), MethodSpec("m", "gmm_x")], "methods[1].name: duplicate 'm'"),
        ([MethodSpec("../x", "kmeans_x")], "methods[0].name: must be 1 to 119 bytes"),
        ([MethodSpec("m", "kmeans_x", {"n_init": 0})], "methods[0].params.n_init: n_init must be >= 1"),
    ])
    def test_a_config_its_document_would_refuse_fails_before_any_file(self, tmp_path, methods, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            self.run(tmp_path / "o", methods)
        assert not (tmp_path / "o").exists()


class TestCohorts:
    """Every cohort loads before any cell fits, from one read of the CSV, and one pool fits them all."""

    @staticmethod
    def csv_doc(tmp_path, cohorts, rows=12):
        (tmp_path / "d.csv").write_text(
            "f00,f01,y\n" + "".join(f"{i % 2},{i % 7 + 3 * (i % 2)},{i % 2}\n" for i in range(rows))
        )
        (tmp_path / "s.json").write_text(json.dumps([
            {"name": name, "unit": "", "bound_lo": -100, "bound_hi": 100} for name in ("f00", "f01")
        ]))
        doc = {
            "seed": 1,
            "data": {"csv": {"path": "d.csv", "schema": "s.json", "label_column": "y"}},
            "cohorts": cohorts,
            "methods": [{"name": "km", "kind": "kmeans_x"}, {"name": "gm", "kind": "gmm_x"}],
            "output_dir": str(tmp_path / "o"),
        }
        return parse_config(doc, base_dir=tmp_path)

    def test_the_manifest_config_echo_loads_back_to_the_config_that_wrote_it(self, tmp_path):
        config = self.csv_doc(tmp_path, [{"name": "a"}, {"name": "b", "subsample_n": 6}])
        run_experiment(config)
        assert parse_config(json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]) == config

    @pytest.mark.parametrize("last, error", [
        ({"name": "b", "group_column": "f00", "group_value": 7}, "cohort 'b': no row has f00 == 7.0"),
        ({"name": "b", "subsample_n": 20}, "class 0: need 10 samples but only 6 available"),
    ])
    def test_a_last_cohort_that_cannot_load_fails_before_any_fit_or_file(
        self, tmp_path, monkeypatch, last, error
    ):
        import ehrcluster.experiment as experiment
        from ehrcluster.errors import InsufficientClassSamples

        fits = []
        monkeypatch.setattr(experiment, "kmeans_fit", lambda X, *a, **kw: fits.append(len(X)))
        config = self.csv_doc(tmp_path, [{"name": "a"}, last])
        with pytest.raises((ConfigError, InsufficientClassSamples), match=re.escape(error)):
            run_experiment(config)
        assert fits == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("last, error", [
        ({"name": "b", "subsample_n": 0}, "cohorts[1].subsample_n: must be finite and >= 1, got 0"),
        ({"name": "b", "subsample_n": 4, "subsample_ratio": -1},
         "cohorts[1].subsample_ratio: must be finite and >= 0, got -1.0"),
        ({"name": "b", "subsample_n": 4, "subsample_ratio": float("inf")},
         "cohorts[1].subsample_ratio: must be finite and >= 0, got inf"),
    ])
    def test_an_out_of_range_subsample_fails_the_config_load(self, tmp_path, last, error):
        with pytest.raises(ConfigError, match=re.escape(error)):
            self.csv_doc(tmp_path, [{"name": "a"}, last])

    def test_an_over_large_subsample_names_its_cohort_and_field(self, tmp_path):
        config = self.csv_doc(tmp_path, [{"name": "a"}, {"name": "b", "subsample_n": 20}])
        error = "cohorts[1].subsample_n: cohort 'b': class 0: need 10 samples but only 6 available"
        with pytest.raises(ConfigError, match=re.escape(error)):
            run_experiment(config)
        assert not (tmp_path / "o").exists()

    def test_a_two_cohort_grid_reads_its_csv_once_and_fits_on_one_pool(self, tmp_path, monkeypatch):
        import concurrent.futures

        import ehrcluster.experiment as experiment

        config = self.csv_doc(tmp_path, [{"name": "a"}, {"name": "b", "subsample_n": 20}], rows=60)
        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        # the class itself: a spy on a package function would keep every job in this process
        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
            res = run_experiment(config)
        assert [(r.cohort, r.method) for r in res.scores] == [(c, m) for c in "ab" for m in ("km", "gm")]
        assert len(pools) == (1 if len(os.sched_getaffinity(0)) >= 2 else 0)
        assert multiprocessing.active_children() == []

        reads = []
        real = experiment.load_csv
        monkeypatch.setattr(experiment, "load_csv", lambda *a, **kw: reads.append(a) or real(*a, **kw))
        run_experiment(config)
        assert len(reads) == 1


def _reuse_cases():
    """(kind, params): each kind on pretrain {0, 2} x finetune {0, 2} epochs, then gamma 0."""
    cases = []
    for kind in ("deep_gaussian", "deep_student_t", "kmeans_z", "deep_gaussian_sweep"):
        size = {"dims": (2,)} if kind == "deep_gaussian_sweep" else {"embed_dim": 2}
        finetunes = [{}] if kind == "kmeans_z" else [{"finetune_epochs": f} for f in (0, 2)]
        cases += [(kind, {"hidden": (8,), **size, "pretrain_epochs": p, **f}) for p in (0, 2) for f in finetunes]
    for kind in ("deep_gaussian", "deep_student_t"):
        params = {"hidden": (8,), "embed_dim": 2, "pretrain_epochs": 2, "finetune_epochs": 2, "gamma": 0.0}
        cases.append((kind, params))
    return cases


class TestEncodeReuseInPipeline:
    """A cell whose encodes reuse the model's last full-data pass writes what one that
    recomputes every Z writes."""

    DS = generate_synthetic(SyntheticSpec(60, 5, 1.0, 4.0, "spherical", 0.0, seed=1))

    @staticmethod
    def spy_layers(monkeypatch, reuse: bool) -> list[bool]:
        # one entry per pass through the layer loop: whether it ran the encoder half only
        from ehrcluster import autoencoder as ae

        passes, run_layers = [], ae._run_layers

        def spy(model, batch, out, new_cache, layers):
            passes.append(layers == model.bottleneck + 1)
            result = run_layers(model, batch, out, new_cache, layers)
            if not reuse:
                model.last_pass = (-1, None, None)
            return result

        monkeypatch.setattr(ae, "_run_layers", spy)
        return passes

    def fit(self, monkeypatch, kind, params, reuse):
        with monkeypatch.context() as patch:
            passes = self.spy_layers(patch, reuse)
            result = fit_cell(MethodSpec("m", kind, params), self.DS, 2, 4, "desk")
        return result, passes

    @pytest.mark.parametrize("kind,params", _reuse_cases())
    def test_outputs_equal_a_run_without_reuse_bit_for_bit(self, monkeypatch, kind, params):
        got, _ = self.fit(monkeypatch, kind, params, reuse=True)
        want, computed = self.fit(monkeypatch, kind, params, reuse=False)
        assert any(computed)  # the run without reuse did run encoder passes
        for name in ("labels", "embedding", "pretrain_history", "finetune_history", "label_runs"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name

    @pytest.mark.parametrize("kind", ["deep_gaussian", "deep_student_t"])
    def test_a_pretrained_deep_cell_runs_no_encoder_only_pass(self, monkeypatch, kind):
        params = {"hidden": (8,), "embed_dim": 2, "pretrain_epochs": 2, "finetune_epochs": 12}
        _, passes = self.fit(monkeypatch, kind, params, reuse=True)
        assert passes and not any(passes)


class TestPool:
    def test_one_failed_job_is_one_failed_cell(self, tmp_path):
        train = {"hidden": [8], "embed_dim": 2, "pretrain_epochs": 3}
        deep = {**train, "finetune_epochs": 2}
        doc = minimal_doc(methods=[
            {"name": "kmeans_z", "kind": "kmeans_z", "params": train},
            {"name": "boom", "kind": "deep_gaussian", "params": {**deep, "learning_rate": 1e200}},
            {"name": "idec", "kind": "deep_student_t_recon", "params": deep},
        ], output_dir=str(tmp_path / "o"))
        res = run_experiment(parse_config(doc))
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        if len(os.sched_getaffinity(0)) >= 2:
            assert manifest["workers"] == 2
        assert multiprocessing.active_children() == []
        assert [r.method for r in res.scores] == ["kmeans_z", "idec"]
        (failure,) = res.failures
        assert failure["method"] == "boom"
        assert failure["type"] == "NonFiniteLoss"
        assert re.fullmatch(r"loss or parameters became non-finite at epoch \d+", failure["error"])
        # the worker's frames, down to the raise
        assert "raise NonFiniteLoss(epoch)" in failure["traceback"]

    @pytest.mark.parametrize("spy", [False, True])
    def test_a_sweep_dim_above_the_feature_count_is_refused_before_training(self, tmp_path, monkeypatch, spy):
        import ehrcluster.experiment as experiment

        trained = []
        if spy:  # a swapped package function: every job would run in this process
            real = experiment.run_dimension_sweep
            monkeypatch.setattr(
                experiment, "run_dimension_sweep", lambda *args: trained.append(args[1]) or real(*args)
            )
        doc = minimal_doc(methods=[
            {"name": "kmeans_x", "kind": "kmeans_x"},
            {"name": "gmm_x", "kind": "gmm_x"},
            {"name": "sweep", "kind": "deep_gaussian_sweep",
             "params": {"dims": [2, 99], "hidden": [8], "pretrain_epochs": 2, "finetune_epochs": 2}},
        ], output_dir=str(tmp_path / "o"))
        with pytest.raises(ConfigError, match=re.escape("methods[2].params.dims: embed dim 99 outside [1, 5]")):
            run_experiment(parse_config(doc))
        assert not (tmp_path / "o").exists() and trained == []

    def test_a_dead_worker_fails_only_its_job(self):
        from concurrent.futures.process import BrokenProcessPool

        outcomes = _fit_on_pool([(1, os._exit, (3,)), (1, pow, (2, 10)), (1, pow, (3, 3))], 2)
        assert isinstance(outcomes[0], BrokenProcessPool)
        assert [result for result, seconds in outcomes[1:]] == [1024, 27]
        assert multiprocessing.active_children() == []

    def test_a_pool_that_breaks_between_two_submits_reruns_the_rest(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        submit, broken = ProcessPoolExecutor.submit, []

        def breaks_once(pool, fn, *args):
            # as when the worker running job 0 dies before job 1 is submitted
            if args == (1,) and not broken:
                broken.append(True)
                raise BrokenProcessPool("A child process terminated abruptly")
            return submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaks_once)
        outcomes = _fit_on_pool([(1, pow, (2, 10)), (1, pow, (3, 3))], 2)
        assert broken and [result for result, seconds in outcomes] == [1024, 27]
        assert multiprocessing.active_children() == []

    def test_a_job_that_cannot_be_pickled_runs_on_the_pool(self):
        import ehrcluster.experiment as experiment

        # a worker inherits the jobs when it forks and is sent only an index
        if _usable_cores() < 2:
            pytest.skip("fits in process")
        offset = 5

        def closure(x):
            return x + offset

        outcomes = _fit_on_pool([(1, lambda x: x * 2, (21,)), (2, closure, (1,))], 2)
        assert [result for result, seconds in outcomes] == [42, 6]
        assert multiprocessing.active_children() == []
        assert experiment._POOL_CALLS == []  # nothing of the jobs is held once the pool is gone

    def test_the_caller_pickles_no_job(self):
        if _usable_cores() < 2:
            pytest.skip("fits in process")
        arrays = [np.full(1 << 20, float(i)) for i in range(3)]  # 8 MB each
        _fit_on_pool([(1, pow, (2, 3))] * 2, 2)  # the pool's modules are imported before the trace
        tracemalloc.start()
        try:
            outcomes = _fit_on_pool([(1, np.sum, (a,)) for a in arrays], 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [result for result, seconds in outcomes] == [0.0, 2.0**20, 2.0**21]
        assert peak < 1 << 20, f"peak {peak} bytes"

    def test_an_unguarded_script_fits_every_cell_on_the_pool(self, tmp_path, monkeypatch):
        import ehrcluster.experiment as experiment

        if _usable_cores() < 2:
            pytest.skip("fits in process")
        doc = minimal_doc(methods=[
            {"name": "kmeans_x", "kind": "kmeans_x"},
            {"name": "kmeans_z", "kind": "kmeans_z", "params": {"hidden": [4], "pretrain_epochs": 1}},
            {"name": "gmm_z", "kind": "gmm_z", "params": {"hidden": [4], "pretrain_epochs": 1}},
        ], output_dir=str(tmp_path / "pool"))
        starts = tmp_path / "starts"
        script = tmp_path / "unguarded.py"
        # run_experiment at module level: a forked worker does not run the script again
        script.write_text(
            "import json\n"
            "from ehrcluster.experiment import parse_config, run_experiment\n"
            f"open({str(starts)!r}, 'a').write('start\\n')\n"
            f"run_experiment(parse_config(json.loads({json.dumps(doc)!r})))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, str(script)], env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        manifest = json.loads((tmp_path / "pool" / "manifest.json").read_text())
        assert manifest["failures"] == []
        assert manifest["workers"] == min(len(os.sched_getaffinity(0)), 3)
        assert starts.read_text() == "start\n"
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 1)
        run_experiment(parse_config({**doc, "output_dir": str(tmp_path / "here")}))

        def files(root):
            return {
                str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*"))
                if path.is_file() and path.name not in ("manifest.json", "timings.csv")
            }

        pool, here = files(tmp_path / "pool"), files(tmp_path / "here")
        assert "embeddings/all__gmm_z.csv" in pool
        assert pool == here

    def test_paper_grid_writes_the_same_bytes_on_the_pool_and_in_process(self, tmp_path, monkeypatch):
        import ehrcluster.experiment as experiment

        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("fits in process on one core")
        epochs = {"pretrain_epochs": 1, "finetune_epochs": 1}
        doc = minimal_doc(profile="paper", methods=[
            {"name": "kmeans_z", "kind": "kmeans_z", "params": {"pretrain_epochs": 1}},
            {"name": "dec", "kind": "deep_student_t", "params": epochs},
            {"name": "idec", "kind": "deep_student_t_recon", "params": epochs},
        ], cohorts=[{"name": "all"}, {"name": "part", "seed_offset": 5, "subsample_n": 150}])
        doc["data"]["synthetic"].update(n_samples=400, n_features=33, separation=2.5)
        run_experiment(parse_config({**doc, "output_dir": str(tmp_path / "pool")}))
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 1)
        run_experiment(parse_config({**doc, "output_dir": str(tmp_path / "here")}))

        def files(root):
            return {
                str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*"))
                if path.is_file() and path.name not in ("manifest.json", "timings.csv")
            }

        pool, here = files(tmp_path / "pool"), files(tmp_path / "here")
        assert {"embeddings/all__dec.csv", "embeddings/part__dec.csv"} <= pool.keys()
        assert pool.keys() == here.keys()
        assert [name for name in pool if pool[name] != here[name]] == []
        manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("pool", "here")]
        # both cohorts' six jobs on one pool
        assert [m["workers"] for m in manifests] == [min(len(os.sched_getaffinity(0)), 6), 1]

    def test_workers_run_at_one_blas_thread_and_leave_the_callers_count(self, monkeypatch):
        import ehrcluster.experiment as experiment

        if _blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        # a kind of four jobs, each reading the thread count of the process it runs in
        counts = Method({}, lambda ds, k, seed, p: ([(_blas_thread_count, ())] * 4, lambda runs: MethodResult(runs)))
        monkeypatch.setitem(experiment.METHODS, "kmeans_x", counts)
        config = parse_config(minimal_doc())
        get, set_ = _blas_threads()
        saved = get()
        set_(2)
        try:
            for cores in (2, 1):  # on the pool, then in process
                ((_, _, _, (result, _)),), workers = _fit_grid(config, _cohorts(config), cores)
                assert workers == cores and result.labels == [1] * 4
                assert get() == 2
        finally:
            set_(saved)

    def test_the_pool_needs_fork_one_thread_and_a_blas_thread_setter(self, monkeypatch):
        cores = len(os.sched_getaffinity(0))
        if _blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count setter")
        assert _usable_cores() == cores
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert _usable_cores() == 1
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert _usable_cores() == 1
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert _usable_cores() == cores
        # numpy's extension module, through which the setter is looked up, out of sight
        for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        assert _blas_threads() is None
        assert _usable_cores() == 1
        assert _versions()["blas_core"] is None and _versions()["blas_threads"] is None

    def test_the_manifest_names_the_blas_kernel_and_thread_count(self, tmp_path):
        if _blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        run_experiment(parse_config(minimal_doc(output_dir=str(tmp_path / "o"))))
        versions = json.loads((tmp_path / "o" / "manifest.json").read_text())["versions"]
        assert versions["blas_core"] == _blas_core() and versions["blas_core"]
        assert versions["blas_threads"] == _blas_thread_count() >= 1


def _blas_thread_count() -> int:
    """numpy's OpenBLAS thread count in the process that calls this."""
    return _blas_threads()[0]()


def test_frozen_benchmark_config_parses():
    from pathlib import Path

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "benchmark.json")
    assert cfg.k == 2
    assert len(cfg.methods) == 9
    assert cfg.data.n_samples == 2000
    assert cfg.data.n_features == 33


@pytest.mark.parametrize("path, digest", [
    ("configs/benchmark.json", "523b4de37c72cb5c855489ba1d2b2d85b77c91b3af1db9fa2f1fb6ff1fa6515a"),
    ("tests/golden/config.json", "1e3142c58c169acfee138f5f967fc3ea68f0021a4136615857b364a325427158"),
])
def test_the_frozen_configs_keep_their_hash_and_load_back_from_their_echo(path, digest):
    cfg = load_config(ROOT / path)
    doc = json.loads(json.dumps(_config_doc(cfg)))
    assert _config_hash(doc) == digest
    assert parse_config(doc) == cfg
