import csv
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ehrcluster import cli
from ehrcluster.cli import main
from ehrcluster.data import SyntheticSpec, generate_synthetic, load_csv, load_feature_schema, preprocess
from ehrcluster.errors import (
    ConfigError,
    EmptyFile,
    EmptyRuns,
    InsufficientClassSamples,
    InvalidDimension,
    LengthMismatch,
    MissingColumn,
    NonFiniteLoss,
    NonNumericCell,
    NonSquare,
    SingularCovariance,
    SweepRunFailed,
    UnsupportedK,
    ValidationError,
)
from ehrcluster.experiment import METHODS, MethodSpec, _cell, _check_ranges, _with_defaults, parse_config
from ehrcluster.traditional import kmeans_fit, kmeans_predict
from ehrcluster.util import _build

from conftest import JSON_VALUES, swap_fields


GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"
FROZEN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"

# params out of the range their fit accepts, each with its error's wording and the kind it applies to
OUT_OF_RANGE = [
    ({"batch_size": 0}, "batch_size must be >= 1", "deep_gaussian"),
    ({"embed_dim": 0}, "embed_dim included, must be >= 1", "deep_gaussian"),
    ({"learning_rate": -1}, "learning_rate must be > 0", "deep_gaussian"),
    ({"gamma": -1}, "gamma must be >= 0", "deep_gaussian"),
    # non-finite settings, and a negative fine-tuning schedule, which a fit would take and then fail
    # on mid-run or ignore
    ({"learning_rate": float("nan")}, "learning_rate must be > 0 and finite", "deep_gaussian"),
    ({"learning_rate": float("inf")}, "learning_rate must be > 0 and finite", "kmeans_z"),
    ({"gamma": float("nan")}, "gamma must be >= 0 and finite", "deep_gaussian"),
    ({"gamma": float("inf")}, "gamma must be >= 0 and finite", "deep_student_t"),
    ({"recon_weight": float("nan")}, "recon_weight must be >= 0 and finite", "deep_student_t_recon"),
    ({"recon_weight": float("inf")}, "recon_weight must be >= 0 and finite", "deep_gaussian"),
    ({"finetune_epochs": -3}, "finetune_epochs must be >= 0", "deep_gaussian"),
    ({"target_update_interval": 0}, "target_update_interval must be >= 1", "deep_gaussian"),
    ({"pretrain_epochs": -1}, "pretrain_epochs) must be >= 0", "deep_gaussian"),
    ({"activation": "sigmoid"}, "activation must be one of", "deep_gaussian"),
    ({"cov_type": "spherical"}, "unknown cov_type 'spherical'", "gmm_x"),
    ({"reg_covar": 0}, "reg_covar must be finite and > 0", "gmm_x"),
    ({"reg_covar": float("nan")}, "reg_covar must be finite and > 0", "gmm_x"),
    ({"n_init": 0}, "n_init must be >= 1", "kmeans_x"),
    ({"dims": []}, "dims must be non-empty", "deep_gaussian_sweep"),
    ({"max_iter": 0}, "max_iter must be >= 1", "kmeans_x"),
    ({"max_iter": -3}, "max_iter must be >= 1", "gmm_x"),
    ({"max_iter": 0}, "max_iter must be >= 1", "kmeans_z"),
    ({"max_iter": -3}, "max_iter must be >= 1", "gmm_z"),
    ({"tol": -1}, "tol must be finite and >= 0", "kmeans_x"),
    ({"tol": float("nan")}, "tol must be finite and >= 0", "gmm_x"),
    ({"tol": float("inf")}, "tol must be finite and >= 0", "kmeans_z"),
    ({"tol": -1}, "tol must be finite and >= 0", "gmm_z"),
    ({"reg_covar": float("inf")}, "reg_covar must be finite and > 0", "gmm_x"),
]


def run_cli(*argv):
    return main(list(argv))


def tiny_config(tmp_path, **overrides) -> str:
    """Write a one-method synthetic benchmark config with ``overrides``; return its path."""
    config = {
        "seed": 1,
        "data": {"synthetic": {"n_samples": 50, "n_features": 4,
                                "class_ratio": 1.0, "separation": 2.0}},
        "methods": [{"name": "m", "kind": "kmeans_x"}],
        **overrides,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    return str(p)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def synth_spec(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = {
        "n_samples": 160,
        "n_features": 6,
        "class_ratio": 1.0,
        "separation": 8.0,
        "cluster_shape": "spherical",
        "missing_rate": 0.02,
        "seed": 21,
    }
    p = root / "synth.json"
    p.write_text(json.dumps(spec))
    return p


@pytest.fixture(scope="module")
def generated(synth_spec, tmp_path_factory):
    out = tmp_path_factory.mktemp("generated")
    assert run_cli("generate", "--config", str(synth_spec), "--out", str(out)) == 0
    return out


class TestGenerate:
    def test_outputs_exist(self, generated):
        assert (generated / "synthetic.csv").exists()
        schema = json.loads((generated / "schema.json").read_text())
        assert len(schema) == 6

    def test_missing_cells_written_empty(self, generated):
        text = (generated / "synthetic.csv").read_text()
        assert ",," in text or text.rstrip().endswith(",")

    def test_the_csv_loads_back_to_the_generated_dataset(self, synth_spec, generated):
        ds = generate_synthetic(SyntheticSpec(**json.loads(synth_spec.read_text())))
        specs = load_feature_schema(generated / "schema.json")
        back = load_csv(generated / "synthetic.csv", specs, label_column="label")
        assert specs == ds.feature_specs
        assert np.array_equal(back.X, ds.X, equal_nan=True) and np.isnan(ds.X).any()
        assert np.array_equal(back.labels, ds.labels)

    def test_seed_flag_writes_what_the_spec_seed_writes(self, tmp_path, synth_spec, generated):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**json.loads(synth_spec.read_text()), "seed": 5}))
        assert run_cli("generate", "--config", str(synth_spec), "--seed", "5", "--out", str(tmp_path / "a")) == 0
        assert run_cli("generate", "--config", str(spec), "--out", str(tmp_path / "b")) == 0
        for name in ("synthetic.csv", "schema.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / "synthetic.csv").read_bytes() != (generated / "synthetic.csv").read_bytes()


def csv_config(tmp_path, generated, methods) -> str:
    """Write a benchmark config over ``generate``'s CSV and schema with ``methods``; return its path."""
    config = {
        "seed": 4,
        "data": {"csv": {"path": str(generated / "synthetic.csv"), "schema": str(generated / "schema.json"),
                         "label_column": "label"}},
        "methods": methods,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    return str(p)


PRETRAIN = {"embed_dim": 2, "hidden": [8], "pretrain_epochs": 3}
DEEP = {**PRETRAIN, "finetune_epochs": 2, "target_update_interval": 1}
SWEEP = {"dims": [2, 3], "hidden": [8], "pretrain_epochs": 3, "finetune_epochs": 2, "target_update_interval": 1}
# each kind's tiny params and the files its cell writes, by the names of CELL_FILES
KIND_FILES = {
    "kmeans_x": ({}, {"labels"}),
    "gmm_x": ({}, {"labels"}),
    "kmeans_z": (PRETRAIN, {"labels", "embeddings", "pretrain_history"}),
    "gmm_z": (PRETRAIN, {"labels", "embeddings", "pretrain_history"}),
    "deep_student_t": (DEEP, {"labels", "embeddings", "pretrain_history", "history"}),
    "deep_student_t_recon": (DEEP, {"labels", "embeddings", "pretrain_history", "history"}),
    "deep_gaussian": (DEEP, {"labels", "embeddings", "pretrain_history", "history"}),
    "deep_gaussian_sweep": (SWEEP, {"labels", "labels_runs"}),
    "kgg": ({}, {"labels", "labels_runs"}),
}
KGG_VOTERS = ("kmeans_x", "gmm_x", "deep_gaussian_sweep")
CELL_FILES = {"labels": "labels/{}.csv", "labels_runs": "labels_runs/{}.csv", "embeddings": "embeddings/{}.csv",
              "history": "history/{}.csv", "pretrain_history": "history/{}__pretrain.csv"}


class TestCsvBenchmark:
    """What ``cluster``, ``evaluate`` and ``rank`` did, by a benchmark over a CSV."""

    def test_kmeans_on_the_generated_csv_scores_high_accuracy(self, generated, tmp_path):
        config = csv_config(tmp_path, generated, [{"name": "kmeans_x", "kind": "kmeans_x"}])
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 0
        (score,) = read_rows(tmp_path / "o" / "scores.csv")
        assert float(score["acc"]) >= 0.97
        # one label per row preprocessing kept: a row missing one of its 6 cells is over the 5% rate
        complete = [r for r in read_rows(generated / "synthetic.csv") if "" not in r.values()]
        assert len(read_rows(tmp_path / "o" / "labels" / "all__kmeans_x.csv")) == len(complete) < 160
        assert read_rows(tmp_path / "o" / "ranks.csv")[0]["method"] == "kmeans_x"

    def test_deep_method_with_tiny_params(self, generated, tmp_path):
        params = {"embed_dim": 2, "hidden": [8], "pretrain_epochs": 5, "finetune_epochs": 4,
                  "target_update_interval": 2}
        config = csv_config(tmp_path, generated, [{"name": "dg", "kind": "deep_gaussian", "params": params}])
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "embeddings" / "all__dg.csv").read_text().startswith("z0,z1\n")

    @pytest.mark.parametrize("kind", list(METHODS))
    def test_every_kind_alone_writes_its_cells_files(self, generated, tmp_path, kind):
        params, files = KIND_FILES[kind]
        # kgg votes over its voter kinds, so it runs beside one of each
        voters = [{"name": k, "kind": k, "params": KIND_FILES[k][0]} for k in KGG_VOTERS] if kind == "kgg" else []
        config = csv_config(tmp_path, generated, [*voters, {"name": kind, "kind": kind, "params": params}])
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 0
        assert [r["method"] for r in read_rows(tmp_path / "o" / "scores.csv")][-1] == kind
        written = {
            name for name, path in CELL_FILES.items() if (tmp_path / "o" / path.format(f"all__{kind}")).exists()
        }
        assert written == files
        # one row per sample preprocessing kept, and one column per axis or per run
        kept = len([r for r in read_rows(generated / "synthetic.csv") if "" not in r.values()])
        columns = {"labels": ["sample_index", "label"], "embeddings": ["z0", "z1"],
                   "labels_runs": ["d2", "d3"] if kind == "deep_gaussian_sweep" else list(KGG_VOTERS)}
        for name in files & set(columns):
            rows = read_rows(tmp_path / "o" / CELL_FILES[name].format(f"all__{kind}"))
            assert len(rows) == kept and list(rows[0]) == columns[name]

    def test_a_csv_without_labels_clusters_through_the_library(self, generated):
        # the README's recipe for what benchmark refuses: a cohort with no label column
        ds = load_csv(generated / "synthetic.csv", load_feature_schema(generated / "schema.json"))
        prep, _ = preprocess(ds)
        labels = kmeans_predict(kmeans_fit(prep.X, 2, seed=3), prep.X)
        assert ds.labels is None and prep.n_samples < ds.n_samples == 160
        assert labels.shape == (prep.n_samples,) and set(labels.tolist()) == {0, 1}


class TestBenchmarkCommand:
    def test_tiny_grid_round_trip(self, tmp_path):
        config = {
            "seed": 5,
            "profile": "desk",
            "data": {"synthetic": {"n_samples": 120, "n_features": 6,
                                    "class_ratio": 1.0, "separation": 6.0,
                                    "cluster_shape": "spherical",
                                    "missing_rate": 0.0, "seed": 2}},
            "cohorts": [{"name": "c"}],
            "methods": [
                {"name": "kmeans_x", "kind": "kmeans_x"},
                {"name": "gmm_x", "kind": "gmm_x"},
            ],
        }
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(config))
        code = run_cli("benchmark", "--config", str(cfgp), "--out", str(tmp_path / "o"))
        assert code == 0
        assert (tmp_path / "o" / "scores.csv").exists()
        assert (tmp_path / "o" / "ranks.csv").exists()
        assert (tmp_path / "o" / "timings.csv").exists()
        assert (tmp_path / "o" / "manifest.json").exists()
        timings = read_rows(tmp_path / "o" / "timings.csv")
        assert all(float(r["wall_clock_seconds"]) > 0 for r in timings)

    @pytest.mark.parametrize("flag, value, field", [("--seed", "9", 9), ("--profile", "paper", "paper")])
    def test_a_flag_runs_what_its_config_field_runs(self, tmp_path, flag, value, field):
        key = flag.removeprefix("--")
        methods = [{"name": "kmeans_x", "kind": "kmeans_x"},
                   {"name": "kmeans_z", "kind": "kmeans_z", "params": {"hidden": [4], "embed_dim": 2}}]
        (tmp_path / "a").mkdir()
        by_flag = tiny_config(tmp_path / "a", methods=methods)
        assert run_cli("benchmark", "--config", by_flag, flag, value, "--out", str(tmp_path / "a" / "o")) == 0
        by_field = tiny_config(tmp_path, methods=methods, **{key: field})
        assert run_cli("benchmark", "--config", by_field, "--out", str(tmp_path / "o")) == 0
        manifests = [json.loads((out / "manifest.json").read_text()) for out in (tmp_path / "a" / "o", tmp_path / "o")]
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"] and manifests[0]["config"][key] == field
        assert manifests[0]["profile"] == manifests[1]["profile"]
        for name in ("scores.csv", "ranks.csv", "labels/all__kmeans_x.csv", "history/all__kmeans_z__pretrain.csv"):
            assert (tmp_path / "a" / "o" / name).read_bytes() == (tmp_path / "o" / name).read_bytes()

    def test_a_failed_cell_exits_2_and_points_at_the_manifest(self, tmp_path, capsys):
        config = tiny_config(tmp_path, methods=[
            {"name": "kmeans_x", "kind": "kmeans_x"},
            {"name": "boom", "kind": "deep_gaussian", "params": {
                "hidden": [8], "pretrain_epochs": 5, "finetune_epochs": 3, "embed_dim": 2, "learning_rate": 1e200}},
        ])
        with np.errstate(all="ignore"):
            assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 2
        out, err = capsys.readouterr()
        assert out == f"wrote {tmp_path / 'o' / 'scores.csv'} (1 rows)\n"
        assert err == "1 method run(s) failed; see manifest.json\n"
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["failures"][0]["method"] == "boom"

    def test_help_lists_generate_and_benchmark(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli("--help")
        assert exit_.value.code == 0
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert list(sub.choices) == ["generate", "benchmark"]
        assert "{generate,benchmark}" in capsys.readouterr().out


class TestExitCodes:
    def test_bad_flag_is_validation_error(self, capsys):
        assert run_cli("benchmark", "--nope") == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli("benchmark", "--config", str(tmp_path / "nope.json")) == 1

    def test_invalid_config_schema(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 1, "data": {}, "methods": []}))
        assert run_cli("benchmark", "--config", str(p)) == 1

    def test_kgg_without_voters_rejected(self, tmp_path):
        config = {
            "seed": 1,
            "data": {"synthetic": {"n_samples": 50, "n_features": 4,
                                    "class_ratio": 1.0, "separation": 2.0,
                                    "cluster_shape": "spherical",
                                    "missing_rate": 0.0, "seed": 1}},
            "methods": [{"name": "kgg", "kind": "kgg"}],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        assert run_cli("benchmark", "--config", str(p)) == 1

    @pytest.mark.parametrize("kind, params", [
        ("kmeans_x", {"n_init": "ten"}),
        ("gmm_z", {"hidden": 5}),
        ("kgg", {"voters": "kmeans_x"}),
        ("kmeans_x", {"n_init": 2.7}),
    ])
    def test_mistyped_param_is_validation_error(self, tmp_path, capsys, kind, params):
        config = {
            "seed": 1,
            "data": {"synthetic": {"n_samples": 50, "n_features": 4,
                                    "class_ratio": 1.0, "separation": 2.0,
                                    "cluster_shape": "spherical",
                                    "missing_rate": 0.0, "seed": 1}},
            "methods": [{"name": "m", "kind": kind, "params": params}],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        assert run_cli("benchmark", "--config", str(p), "--out", str(tmp_path / "o")) == 1
        assert f"methods[0].params.{next(iter(params))}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"methods": ["kmeans_x"]}, "methods[0]"),
        ({"methods": {"a": 1}}, "methods"),
        ({"methods": [{"name": ["m"], "kind": "kmeans_x"}]}, "methods[0].name"),
        ({"methods": [{"name": "m", "kind": ["kmeans_x"]}]}, "methods[0].kind"),
        ({"k": "two"}, "k"),
        ({"seed": None}, "seed"),
        ({"max_missing_rate": "lots"}, "max_missing_rate"),
        ({"profile": ["desk"]}, "profile"),
        ({"output_dir": 5}, "output_dir"),
        ({"cohorts": "all"}, "cohorts"),
        ({"cohorts": ["c"]}, "cohorts[0]"),
        ({"cohorts": [{"seed_offset": 1}]}, "cohorts[0].name"),
        ({"cohorts": [{"name": "c", "seed_offset": "x"}]}, "cohorts[0].seed_offset"),
        ({"cohorts": [{"name": "c", "subsample_n": "ten"}]}, "cohorts[0].subsample_n"),
        ({"cohorts": [{"name": "c", "group_column": 3}]}, "cohorts[0].group_column"),
        ({"cohorts": [{"name": "c", "subsample": 10}]}, "cohorts[0].subsample"),
        ({"cohort": [{"name": "female"}, {"name": "male"}]}, "cohort"),
        ({"max_missing_rte": 0.2}, "max_missing_rte"),
        ({"data": {"synthetic": {"n_samples": 50, "n_features": 4, "class_ratio": 1.0, "separation": 2.0},
                   "extra": 1}}, "data.extra"),
        ({"methods": [{"name": "m", "kind": "kmeans_x", "param": {"n_init": 3}}]}, "methods[0].param"),
        ({"data": {"synthetic": {"n_samples": "many", "n_features": 4,
                                 "class_ratio": 1.0, "separation": 2.0}}}, "data.synthetic.n_samples"),
        ({"data": {"synthetic": "synth.json"}}, "data.synthetic"),
        ({"data": {"csv": "data.csv"}}, "data.csv"),
        ({"data": {"csv": {"schema": "s.json"}}}, "data.csv.path"),
        ({"data": {"csv": {"path": 1}}}, "data.csv.path"),
        ({"k": 0}, "k"),
        ({"k": 3, "methods": [{"name": "km", "kind": "kmeans_x"}, {"name": "gm", "kind": "gmm_x"},
                              {"name": "sw", "kind": "deep_gaussian_sweep"},
                              {"name": "vote", "kind": "kgg"}]}, "k"),
        ({"k": 2.9}, "k"),
        ({"k": True}, "k"),
        ({"seed": 1.5}, "seed"),
        ({"max_missing_rate": 2}, "max_missing_rate"),
        ({"cohorts": [{"name": "c", "group_column": "f00", "group_value": 1}]}, "cohorts[0].group_column"),
        ({"cohorts": [{"name": "c", "group_value": 1}]}, "cohorts[0].group_value"),
        ({"cohorts": [{"name": "c", "subsample_ratio": 0.5}]}, "cohorts[0].subsample_ratio"),
        # a name is part of output file names, <cohort>__<method> and <cohort>__<method>__pretrain
        ({"cohorts": [{"name": ""}]}, "cohorts[0].name"),
        ({"cohorts": [{"name": "a"}, {"name": "a__b"}]}, "cohorts[1].name"),
        ({"cohorts": [{"name": "a/b"}]}, "cohorts[0].name"),
        ({"cohorts": [{"name": "a\\b"}]}, "cohorts[0].name"),
        ({"cohorts": [{"name": "a"}, {"name": "a_"}]}, "cohorts[1].name"),
        ({"methods": [{"name": "/../../../escape", "kind": "kmeans_x"}]}, "methods[0].name"),
        ({"methods": [{"name": "b__c", "kind": "kmeans_x"}, {"name": "c", "kind": "gmm_x"}]}, "methods[0].name"),
        ({"methods": [{"name": "m", "kind": "kmeans_z"}, {"name": "m__pretrain", "kind": "kmeans_x"}]},
         "methods[1].name"),
        ({"methods": [{"name": "_b", "kind": "kmeans_x"}]}, "methods[0].name"),
        # a name the file system refuses: one holding a NUL, and one whose pretrain history file,
        # <cohort>__<method>__pretrain.csv, would pass 255 bytes
        ({"cohorts": [{"name": "a\u0000b"}]}, "cohorts[0].name"),
        ({"cohorts": [{"name": "x" * 300}]}, "cohorts[0].name"),
        ({"methods": [{"name": "x" * 120, "kind": "kmeans_x"}]}, "methods[0].name"),
        ({"methods": [{"name": "\u00e9" * 60, "kind": "kmeans_x"}]}, "methods[0].name"),
        # a lone surrogate, which a JSON escape can hold, has no UTF-8 form to name a file with
        ({"cohorts": [{"name": "a\ud800"}]}, "cohorts[0].name"),
        ({"methods": [{"name": "m\udfff", "kind": "kmeans_x"}]}, "methods[0].name"),
        # in a CSV path, a lone surrogate outside surrogateescape's range has no file-system form to open
        ({"data": {"csv": {"path": "a\ud800.csv"}}}, "data.csv.path"),
        ({"data": {"csv": {"path": "d.csv", "schema": "a\ud800.json"}}}, "data.csv.schema"),
    ])
    def test_malformed_config_field_is_validation_error(self, tmp_path, capsys, overrides, field):
        assert run_cli("benchmark", "--config", tiny_config(tmp_path, **overrides),
                       "--out", str(tmp_path / "o")) == 1
        assert f"error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_names_of_119_utf8_bytes_load_and_write_their_longest_file(self, tmp_path):
        # the longest names the rule lets through: their cell's longest file name,
        # <cohort>__<method>__pretrain.csv, is 254 bytes, and the file system takes it
        cohort, method = "x" * 119, "\u00e9" * 59 + "y"
        config = tiny_config(tmp_path, cohorts=[{"name": cohort}], methods=[
            {"name": method, "kind": "kmeans_z", "params": {"pretrain_epochs": 1, "hidden": [4]}}])
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 0
        history = tmp_path / "o" / "history" / f"{cohort}__{method}__pretrain.csv"
        assert len(history.name.encode()) == 254 and history.exists()

    @pytest.mark.parametrize("overrides", [
        {"data": {"synthetic": {"n_samples": -3, "n_features": 4,
                                "class_ratio": 1.0, "separation": 2.0}}},
        {"cohorts": [{"name": "c", "subsample_n": -4}]},
        {"cohorts": [{"name": "c", "subsample_n": 10, "subsample_ratio": -0.5}]},
    ])
    def test_negative_config_size_is_validation_error(self, tmp_path, overrides):
        assert run_cli("benchmark", "--config", tiny_config(tmp_path, **overrides),
                       "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("extra, field", [
        ({"n_features": 3.5}, "synthetic.n_features"),
        ({"shape": "spherical"}, "synthetic.shape"),
        ({"seed": -3}, "synthetic.seed"),
    ])
    def test_malformed_generate_spec_is_validation_error(self, tmp_path, capsys, extra, field):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"n_samples": 50, "n_features": 4, "class_ratio": 1.0,
                                 "separation": 2.0, **extra}))
        assert run_cli("generate", "--config", str(p), "--out", str(tmp_path / "o")) == 1
        assert f"error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra, named", [
        ({"separation": float("nan")}, "synthetic: separation must be >= 0 and finite"),
        ({"separation": float("inf")}, "synthetic: separation must be >= 0 and finite"),
        ({"separation": True}, "synthetic.separation: expected a number, got True"),
        ({"class_ratio": {"a": 1}}, "synthetic.class_ratio: expected a number, got {'a': 1}"),
        ({"n_samples": None}, "synthetic.n_samples: expected an integer, got None"),
        ({"n_features": [4]}, "synthetic.n_features: expected an integer, got [4]"),
    ])
    def test_a_generate_spec_value_out_of_range_or_not_a_number_is_named(self, tmp_path, capsys, extra, named):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"n_samples": 50, "n_features": 4, "class_ratio": 1.0, "separation": 2.0, **extra}))
        assert run_cli("generate", "--config", str(p), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, named", [
        ({"methods": [{"name": "m", "kind": "deep_gaussian", "params": {"learning_rate": True}}]},
         "methods[0].params.learning_rate: expected a number, got True"),
        ({"methods": [{"name": "m", "kind": "gmm_x", "params": {"tol": [0.1]}}]},
         "methods[0].params.tol: expected a number, got [0.1]"),
        ({"methods": [{"name": "m", "kind": "kmeans_x", "params": {"n_init": None}}]},
         "methods[0].params.n_init: expected an integer, got None"),
        ({"max_missing_rate": True}, "max_missing_rate: expected a number, got True"),
        ({"cohorts": [{"name": "c", "subsample_n": {"n": 3}}]},
         "cohorts[0].subsample_n: expected an integer, got {'n': 3}"),
    ])
    def test_a_config_value_that_is_not_a_number_is_named(self, tmp_path, capsys, overrides, named):
        assert run_cli("benchmark", "--config", tiny_config(tmp_path, **overrides),
                       "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "o").exists()

    def test_numeric_strings_are_read_as_numbers(self, tmp_path):
        params = {"learning_rate": "0.01", "pretrain_epochs": "1", "hidden": ["4"], "n_init": "2"}
        config = tiny_config(tmp_path, max_missing_rate="0.1",
                             methods=[{"name": "m", "kind": "kmeans_z", "params": params}])
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 0

    def test_negative_seed_flag_is_validation_error(self, tmp_path, capsys, synth_spec):
        assert run_cli("generate", "--config", str(synth_spec), "--seed", "-1", "--out", str(tmp_path / "o")) == 1
        assert "error: --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_benchmark_takes_any_integer_seed(self, tmp_path):
        # a grid seed only ever reaches numpy through derive_seed, which takes any integer
        config = tiny_config(tmp_path, seed=-5)
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "a")) == 0
        assert run_cli("benchmark", "--config", config, "--seed", "-7", "--out", str(tmp_path / "b")) == 0

    @pytest.mark.parametrize("cell", ["nan", "oops"])
    def test_a_csv_cell_that_is_not_a_finite_number_is_validation_error(self, tmp_path, capsys, cell):
        (tmp_path / "d.csv").write_text(f"f00,f01,y\n1.0,2.0,0\n{cell},3.0,1\n4.0,5.0,1\n")
        (tmp_path / "s.json").write_text(json.dumps([
            {"name": name, "bound_lo": -100, "bound_hi": 100} for name in ("f00", "f01")
        ]))
        config = tiny_config(tmp_path, data={"csv": {"path": "d.csv", "schema": "s.json", "label_column": "y"}})
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 1
        assert f"{tmp_path / 'd.csv'}: data row 1: column 'f00'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_cohort_of_fewer_than_k_samples_fails_before_the_output_dir(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("f00,y\n1.0,0\n")
        (tmp_path / "s.json").write_text(json.dumps([{"name": "f00", "bound_lo": -100, "bound_hi": 100}]))
        config = tiny_config(tmp_path, data={"csv": {"path": "d.csv", "schema": "s.json", "label_column": "y"}})
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 1
        assert "error: cohort 'all': 1 sample(s) kept, need more than k=2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["kmeans_x", "gmm_x"])
    def test_a_cohort_of_exactly_k_samples_fails_before_the_output_dir(self, tmp_path, capsys, kind):
        # k rows split only into singletons: gmm_x failed its cell (exit 2), kmeans_x scored ARI 0 (exit 0)
        (tmp_path / "d.csv").write_text("f00,y\n1.0,0\n2.0,1\n")
        (tmp_path / "s.json").write_text(json.dumps([{"name": "f00", "bound_lo": -100, "bound_hi": 100}]))
        config = tiny_config(tmp_path, data={"csv": {"path": "d.csv", "schema": "s.json", "label_column": "y"}},
                             methods=[{"name": "m", "kind": kind}])
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 1
        assert "error: cohort 'all': 2 sample(s) kept, need more than k=2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    def test_an_out_that_names_a_file_is_validation_error(self, tmp_path, capsys, synth_spec, command, out):
        (tmp_path / "afile").write_text("kept")
        config = str(synth_spec) if command == "generate" else tiny_config(tmp_path)
        assert run_cli(command, "--config", config, "--out", str(tmp_path / out)) == 1
        assert capsys.readouterr().err == f"error: --out: {str(tmp_path / 'afile')!r} is not a directory\n"
        assert (tmp_path / "afile").read_text() == "kept"

    def test_an_output_dir_that_names_a_file_is_validation_error(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("kept")
        assert run_cli("benchmark", "--config", tiny_config(tmp_path, output_dir=str(tmp_path / "afile"))) == 1
        assert capsys.readouterr().err == f"error: output_dir: {str(tmp_path / 'afile')!r} is not a directory\n"

    def test_malformed_json_configs_are_validation_errors(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert run_cli("generate", "--config", str(p), "--out", str(tmp_path)) == 1
        assert run_cli("benchmark", "--config", str(p), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("params, named, kind", OUT_OF_RANGE)
    def test_out_of_range_param_fails_the_benchmark_config_load(self, tmp_path, capsys, params, named, kind):
        doc = json.loads(GOLDEN_CONFIG.read_text())
        i = next(i for i, m in enumerate(doc["methods"]) if m["kind"] == kind)
        doc["methods"][i]["params"].update(params)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert run_cli("benchmark", "--config", str(p), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert f"methods[{i}].params.{next(iter(params))}: " in err and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("params, named, kind", OUT_OF_RANGE)
    def test_out_of_range_param_fails_the_fit_as_it_fails_the_config_load(self, params, named, kind):
        # the load refuses a param with the error its fit would raise; in the library the fit raises it itself
        ds = generate_synthetic(SyntheticSpec(30, 4, 1.0, 4.0, missing_rate=0.0, seed=3))
        with pytest.raises(ValidationError, match=re.escape(named)) as at_load:
            _check_ranges(_with_defaults(kind, "desk", params))
        with pytest.raises(type(at_load.value), match=re.escape(named)):
            jobs, finish = _cell(MethodSpec("m", kind, params), ds, 2, 1, "desk")
            finish([fn(*args) for _, fn, args in jobs])

    @pytest.mark.parametrize("cohort, named", [
        ({"name": "c", "group_column": "f00"}, "cohorts[0].group_column: requires group_value"),
        ({"name": "c", "group_column": "f00", "group_value": 7}, "cohort 'c': no row has f00 == 7.0"),
    ])
    def test_csv_group_that_selects_no_row_is_named(self, tmp_path, capsys, cohort, named):
        (tmp_path / "d.csv").write_text("f00,f01,y\n" + "".join(f"{i % 2},{i},{i % 2}\n" for i in range(12)))
        (tmp_path / "s.json").write_text(json.dumps([
            {"name": name, "unit": "", "bound_lo": -100, "bound_hi": 100} for name in ("f00", "f01")
        ]))
        config = {
            "seed": 1,
            "data": {"csv": {"path": "d.csv", "schema": "s.json", "label_column": "y"}},
            "cohorts": [cohort],
            "methods": [{"name": "m", "kind": "kmeans_x"}],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli("benchmark", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")) == 1
        assert named in capsys.readouterr().err

    def test_csv_group_column_not_in_schema_fails_before_the_output_dir(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("f00,f01,y\n" + "".join(f"{i % 2},{i},{i % 2}\n" for i in range(12)))
        (tmp_path / "s.json").write_text(json.dumps([
            {"name": name, "unit": "", "bound_lo": -100, "bound_hi": 100} for name in ("f00", "f01")
        ]))
        config = {
            "seed": 1,
            "data": {"csv": {"path": "d.csv", "schema": "s.json", "label_column": "y"}},
            "cohorts": [{"name": "a"}, {"name": "c", "group_column": "zz", "group_value": 1}],
            "methods": [{"name": "m", "kind": "kmeans_x"}],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli("benchmark", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")) == 1
        assert "cohorts[1].group_column: 'zz' not in schema" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subsample, named", [
        ({"subsample_n": 20}, "cohorts[1].subsample_n: cohort 'c': class 0: need 10 samples but only 6 available"),
        ({"subsample_n": 0}, "cohorts[1].subsample_n: must be finite and >= 1, got 0"),
        ({"subsample_n": 4, "subsample_ratio": -1}, "cohorts[1].subsample_ratio: must be finite and >= 0, got -1.0"),
        ({"group_column": "f00", "group_value": 1, "subsample_n": 4},
         "cohorts[1].subsample_n: cohort 'c': stratified_subsample expects binary labels {0, 1}"),
    ])
    def test_a_cohort_subsample_error_names_its_cohort_and_field(self, tmp_path, capsys, subsample, named):
        (tmp_path / "d.csv").write_text("f00,f01,y\n" + "".join(f"{i % 2},{i},{i % 2}\n" for i in range(12)))
        (tmp_path / "s.json").write_text(json.dumps([
            {"name": name, "unit": "", "bound_lo": -100, "bound_hi": 100} for name in ("f00", "f01")
        ]))
        config = {
            "seed": 1,
            "data": {"csv": {"path": "d.csv", "schema": "s.json", "label_column": "y"}},
            "cohorts": [{"name": "a"}, {"name": "c", **subsample}],
            "methods": [{"name": "m", "kind": "kmeans_x"}],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli("benchmark", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")) == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_param_the_method_does_not_use_is_validation_error(self, tmp_path, capsys):
        config = tiny_config(tmp_path, methods=[{"name": "m", "kind": "kmeans_z", "params": {"cov_type": "diagonal"}}])
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "o")) == 1
        assert "methods[0].params.cov_type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, code",
    [
        (MissingColumn("cohort.csv", "age"), 1),
        (NonNumericCell("cohort.csv", 3, "age"), 1),
        (EmptyFile("empty"), 1),
        (ConfigError("bad"), 1),
        (LengthMismatch("length"), 1),
        (UnsupportedK("k"), 1),
        (EmptyRuns("runs"), 1),
        (NonSquare("shape"), 1),
        (InvalidDimension("batch_size must be >= 1"), 1),
        (InsufficientClassSamples(0, 250, 30), 1),
        (NonFiniteLoss(4), 2),
        (SingularCovariance("singular"), 2),
        (SweepRunFailed(2, NonFiniteLoss(1)), 2),
        (RuntimeError("boom"), 2),
        (OSError(28, "No space left on device"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_follows_error_type(monkeypatch, tmp_path, exc, code):
    def fail(_path):
        raise exc

    monkeypatch.setattr(cli, "load_config", fail)
    assert run_cli("benchmark", "--config", str(tmp_path / "cfg.json")) == code


def test_import_leaves_scipy_unloaded():
    probe = (
        "import sys, ehrcluster, ehrcluster.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# Each input below is one bad file (None: a directory, False: no file); every command must
# exit 1 with an error that starts with that file's path or, where ``named`` is given, with
# what is wrong with the input, where ``{bad}`` is that file's path.
# ``{csv_config}`` reads the bad file as its CSV, ``{schema_config}`` as its schema, and
# ``{labelled_schema_config}`` as its schema beside the label column ``label``.
LABELS = "sample_index,label\n0,0\n1,1\n2,1\n"
SCHEMA = [{"name": name, "bound_lo": 0, "bound_hi": 10} for name in ("f00", "f01")]
CSV_CONFIG = {"seed": 1, "data": {"csv": {"path": "bad", "schema": "schema.json", "label_column": "y"}},
              "methods": [{"name": "m", "kind": "kmeans_x"}]}
SCHEMA_CONFIG = {"seed": 1, "data": {"csv": {"path": "labels.csv", "schema": "bad"}},
                 "methods": [{"name": "m", "kind": "kmeans_x"}]}
LABELLED_SCHEMA_CONFIG = {**SCHEMA_CONFIG, "data": {"csv": {**SCHEMA_CONFIG["data"]["csv"], "label_column": "label"}}}
BENCHMARK_CSV = ["benchmark", "--config", "{csv_config}", "--out", "{out}"]
BENCHMARK_SCHEMA = ["benchmark", "--config", "{schema_config}", "--out", "{out}"]
BENCHMARK_LABELLED_SCHEMA = ["benchmark", "--config", "{labelled_schema_config}", "--out", "{out}"]


@pytest.mark.parametrize("argv, content, named", [
    (BENCHMARK_CSV, b"f00,f01,y\n1.0,2.0,0\n1.0,\xff,1\n", None),
    (["benchmark", "--config", "{bad}", "--out", "{out}"], b'{"seed": "\xff"}', None),
    (["generate", "--config", "{bad}", "--out", "{out}"], b'{"n_samples": "\xff"}', None),
    (BENCHMARK_SCHEMA, b'[{"name": "\xff"}]', None),
    (BENCHMARK_SCHEMA, "[{oops", None),
    (BENCHMARK_SCHEMA, '{"name": "label", "bound_lo": 0, "bound_hi": 1}', None),
    (BENCHMARK_SCHEMA, '[{"unit": "u", "bound_lo": 0, "bound_hi": 1}]', None),
    (BENCHMARK_SCHEMA, '[{"name": "label", "bound_lo": "x", "bound_hi": 1}]', None),
    (BENCHMARK_CSV, None, None),  # a directory
    (BENCHMARK_CSV, "f00,f01,y\n1.0,2,0\n2.0,3,1.9\n3.0,4,1\n", None),
    (BENCHMARK_CSV, "f00,f00,f01,y\n1,2,3,0\n3,4,5,1\n5,6,7,1\n", None),
    (BENCHMARK_CSV, "y\n1\n0\n", None),
    (BENCHMARK_SCHEMA, '[{"name": "label", "bound_lo": 5, "bound_hi": 9}]',
     "no sample has missing rate <= 0.05; all 3 removed"),
    # one case for each way the README's input-file table says a dataset CSV or schema can be wrong
    (BENCHMARK_CSV, "", None),
    (BENCHMARK_CSV, "f00,f01,y\n", None),
    (BENCHMARK_CSV, "f00,f01\n1,2\n3,4\n5,6\n", None),
    (BENCHMARK_CSV, "f00,y\n1,0\n3,1\n5,1\n", None),
    (BENCHMARK_CSV, "f00,f01,y\n1,2,0\n2,3,-1\n3,4,1\n", None),
    (BENCHMARK_CSV, "f00,f01,y\n1,2,0\n2,3,x\n3,4,1\n", None),
    (BENCHMARK_CSV, "f00,f01,y\n1,2,0\n2,3,\n3,4,1\n", None),
    (BENCHMARK_CSV, "f00,f01,y\n1,2,0\n2,3,1e30\n3,4,1\n", None),
    (BENCHMARK_CSV, "f00,f01,y\n1,2,0\n2,inf,1\n3,4,1\n", None),
    (BENCHMARK_CSV, 'f00,f01,y\n1,2,0\n"2,3,1\n3,4,1\n', None),
    (BENCHMARK_CSV, "f00,f01,y\n1,2,0\n2\n3,4,1\n", None),
    (BENCHMARK_CSV, "f00,f01,y\n1,2,0\n2,\x003,1\n3,4,1\n", None),
    (BENCHMARK_CSV, False, None),  # no such file
    (BENCHMARK_SCHEMA, "", None),
    (BENCHMARK_SCHEMA, "[]", None),
    (BENCHMARK_SCHEMA, json.dumps([{"name": "label", "bound_lo": 0, "bound_hi": 1}] * 2), None),
    (BENCHMARK_SCHEMA, '[{"name": "label", "bound_lo": 5, "bound_hi": 1}]', "{bad}[0]: feature 'label': bound_lo"),
    (BENCHMARK_SCHEMA, '[{"name": "label", "bound_lo": NaN, "bound_hi": 1}]', "{bad}[0]: feature 'label': bound_lo"),
    (BENCHMARK_SCHEMA, '[{"name": "label", "unit": 1, "bound_lo": 0, "bound_hi": 1}]', "{bad}[0].unit: "),
    (BENCHMARK_SCHEMA, '[{"name": "label", "lo": 0, "bound_lo": 0, "bound_hi": 1}]', "{bad}[0].lo: unknown field"),
    (BENCHMARK_SCHEMA, None, None),  # a directory
    (BENCHMARK_SCHEMA, '[{"name": "zz", "bound_lo": 0, "bound_hi": 1}]', "{labels}: required column 'zz'"),
    (BENCHMARK_LABELLED_SCHEMA, '[{"name": "label", "bound_lo": -1, "bound_hi": 2}]',
     "{labels}: label column 'label' is also a feature"),
], ids=[
    "csv-not-utf8", "config-not-utf8", "spec-not-utf8", "schema-not-utf8", "schema-not-json",
    "schema-an-object", "schema-entry-without-name", "schema-bound-not-a-number", "csv-a-directory",
    "csv-label-a-fraction", "csv-column-named-twice", "csv-only-the-label-column", "schema-leaves-no-sample",
    "csv-empty", "csv-without-a-data-row", "csv-without-the-label-column", "csv-without-a-feature-column",
    "csv-label-negative", "csv-label-not-a-number", "csv-label-missing", "csv-label-past-int64",
    "csv-cell-infinite", "csv-quote-never-closed", "csv-row-short-of-the-label", "csv-cell-holding-a-nul",
    "csv-missing", "schema-empty", "schema-an-empty-list", "schema-name-repeated", "schema-bounds-reversed",
    "schema-bound-nan", "schema-unit-not-a-string", "schema-entry-with-an-unknown-field", "schema-a-directory",
    "schema-names-a-column-the-csv-lacks", "schema-lists-the-label-column",
])
def test_bad_input_file_exits_1_and_names_itself(tmp_path, capsys, argv, content, named):
    tmp_path = tmp_path.resolve()
    bad, configs = tmp_path / "bad", {
        "csv_config": CSV_CONFIG, "schema_config": SCHEMA_CONFIG, "labelled_schema_config": LABELLED_SCHEMA_CONFIG}
    labels = tmp_path / "labels.csv"
    labels.write_text(LABELS)
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA))
    for key, config in configs.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(config))
    if content is None:
        bad.mkdir()
    elif content is not False:
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    paths = {key: tmp_path / f"{key}.json" for key in configs}
    argv = [a.format(bad=bad, out=tmp_path / "o", **paths) for a in argv]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {(named or '{bad}').format(bad=bad, labels=labels)}")
    assert not (tmp_path / "o").exists()


def fuzzed_csv(header: bytes, alphabet: str):
    """Arbitrary bytes, alone or after a valid header, and header-led text of CSV-ish characters."""
    return st.one_of(
        st.binary(max_size=40),
        st.binary(max_size=40).map(lambda body: header + body),
        st.text(alphabet=alphabet, max_size=60).map(lambda body: header + body.encode()),
    )


def fuzzed_json(keys):
    """Arbitrary bytes, and JSON documents of lists and objects whose keys are drawn from ``keys``."""
    leaves = st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.sampled_from(["", "a", "y"])
    docs = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=4),
        max_leaves=10,
    )
    return st.one_of(st.binary(max_size=40), docs.map(lambda doc: json.dumps(doc).encode()))


NUMBERS = ",\n\r\" NA0123456789.-e"
def fuzzed_table(header: bytes, width: int):
    """Header-led rows of ``width`` cells in bounds, one cell of them perhaps swapped for one that
    is missing, out of bounds or not a number, so that most of the files load and reach a fit."""
    rows = st.lists(st.lists(st.sampled_from(["0", "1", "2", "7", " 3 "]), min_size=width, max_size=width),
                    max_size=8)
    swap = st.none() | st.tuples(st.integers(0, 7), st.integers(0, width - 1),
                                 st.sampled_from(["", "NA", "-1", "1.5", "11", "x", "nan", "1e3"]))

    def table(rows, swap):
        if swap is not None and swap[0] < len(rows):
            rows[swap[0]][swap[1]] = swap[2]
        return header + "".join(",".join(row) + "\n" for row in rows).encode()

    return st.builds(table, rows, swap)


# schema documents, half of them lists of whole entries with distinct names, most of them the data's columns
SCHEMA_ENTRY = st.fixed_dictionaries(
    {"name": st.sampled_from(["a", "b", "y", "z"]), "bound_lo": st.integers(-2, 3), "bound_hi": st.integers(0, 12)},
    optional={"unit": st.sampled_from(["", "u", 1])},
)
FUZZED_SCHEMAS = st.one_of(
    fuzzed_json(st.sampled_from(["name", "unit", "bound_lo", "bound_hi"])),
    st.lists(SCHEMA_ENTRY, max_size=3, unique_by=lambda entry: entry["name"]).map(
        lambda entries: json.dumps(entries).encode()),
)


def some(valid):
    """Mostly ``valid``'s values, one in eight times a JSON leaf in their place: null, a boolean, a
    number small or huge (integers past int64, 1e300, NaN and both infinities) or a string (one of
    them a lone surrogate). A document that holds a huge size, schedule, step or loss weight is only
    loaded, see ``too_big``."""
    leaves = (st.none() | st.booleans() | st.integers(-3, 50) | st.floats(-3, 50)
              | st.sampled_from([float("nan"), float("inf"), float("-inf")])
              | st.sampled_from([1e300, 2**63, -2**64, 10**40]) | st.text(alphabet="ax.-\ud800", max_size=3))
    return st.integers(0, 7).flatmap(lambda draw: valid if draw else leaves)


# fields whose size a run pays for, in rows, columns, layer widths, epochs or iterations, and the
# step size and loss weights, which past a point make a network's loss non-finite, failing its cell
SIZED = {"n_samples", "n_features", "embed_dim", "hidden", "dims", "pretrain_epochs", "finetune_epochs",
         "n_init", "max_iter", "learning_rate", "gamma", "recon_weight"}


def too_big(node, key=None, limit=50) -> bool:
    """Whether a SIZED field of the JSON ``node`` holds a finite number above ``limit`` (a CSV cohort
    here has 12 rows; a synthetic one is made with as many as n_samples says)."""
    if isinstance(node, dict):
        return any(too_big(value, name, limit) for name, value in node.items())
    if isinstance(node, list):
        return any(too_big(value, key, limit) for value in node)
    if key not in SIZED or isinstance(node, bool) or not isinstance(node, (int, float)):
        return False
    return (isinstance(node, int) or math.isfinite(node)) and abs(node) > limit  # an int past any float too


# a spec's fields over small cohorts, most of them in range
SPEC = st.fixed_dictionaries(
    {"n_samples": some(st.integers(0, 40)), "n_features": some(st.integers(1, 5)),
     "class_ratio": some(st.floats(0, 1.1)), "separation": some(st.floats(-1, 9))},
    optional={"cluster_shape": some(st.sampled_from(["spherical", "diagonal", "correlated"])),
              "missing_rate": some(st.floats(0, 0.3)), "seed": some(st.integers(-1, 9))},
)
# the cohorts of a CSV of 12 rows (two with b missing), whose column a takes 0 and 1, grouped,
# subsampled and named
COHORTS = st.lists(st.builds(
    lambda name, *fields: {"name": name, **fields[0], **fields[1], **fields[2]},
    st.sampled_from(["a", "b", "c"]),
    st.just({}) | st.fixed_dictionaries({"group_column": some(st.sampled_from(["a", "b", "y"])),
                                         "group_value": some(st.integers(-1, 2))}),
    st.just({}) | st.fixed_dictionaries({"subsample_n": some(st.integers(0, 8))},
                                        optional={"subsample_ratio": some(st.floats(0, 3))}),
    st.just({}) | st.fixed_dictionaries({"seed_offset": some(st.integers(-3, 3))}),
), max_size=3, unique_by=lambda cohort: cohort["name"])
# methods of the traditional kinds and kgg, their params drawn from the names those kinds read
METHOD_LIST = st.lists(st.fixed_dictionaries(
    {"name": st.sampled_from(["m", "n", "v"]), "kind": some(st.sampled_from(["kmeans_x", "gmm_x", "kgg"]))},
    optional={"params": st.dictionaries(
        st.sampled_from(["n_init", "max_iter", "tol", "cov_type", "reg_covar", "voters", "embed_dim"]),
        some(st.integers(-1, 4) | st.floats(0, 1) | st.sampled_from(["full", "diagonal"])
             | st.lists(st.sampled_from(["m", "n", "x"]), max_size=3)),
        max_size=3)},
), max_size=3, unique_by=lambda method: method["name"])
# methods of the kinds that train a network, at one-epoch schedules, with params drawn from the
# names their kind reads, each mostly in range
TRAINED = {
    "embed_dim": st.integers(1, 3), "hidden": st.lists(st.integers(1, 4), max_size=2),
    "activation": st.sampled_from(["relu", "tanh", "x"]), "learning_rate": st.floats(1e-4, 1),
    "batch_size": st.integers(1, 16),
    "gamma": st.floats(0, 2), "target_update_interval": st.integers(1, 3), "recon_weight": st.floats(0, 2),
    "dims": st.lists(st.integers(1, 2), min_size=1, max_size=2), "n_init": st.integers(1, 3),
    "max_iter": st.integers(1, 20), "tol": st.floats(0, 1), "cov_type": st.sampled_from(["full", "diagonal"]),
    "reg_covar": st.floats(1e-9, 1),
}
# one epoch of each schedule, so that a step or weight a fit cannot use is always used
SCHEDULE = {"pretrain_epochs": st.just(1), "finetune_epochs": st.just(1), "hidden": some(TRAINED["hidden"])}


def trained_method(kind):
    names = METHODS[kind].params
    return st.fixed_dictionaries({"kind": st.just(kind), "params": st.fixed_dictionaries(
        {name: value for name, value in SCHEDULE.items() if name in names},
        optional={name: some(TRAINED[name]) for name in names if name not in SCHEDULE},
    )})


TRAINED_METHODS = st.lists(st.sampled_from(
    ["kmeans_z", "gmm_z", "deep_student_t", "deep_student_t_recon", "deep_gaussian", "deep_gaussian_sweep"],
).flatmap(trained_method), min_size=1, max_size=2).map(
    lambda methods: [{"name": f"m{i}", **m} for i, m in enumerate(methods)])
FIELDS = st.fixed_dictionaries({}, optional={
    "k": some(st.integers(0, 4)), "max_missing_rate": some(st.floats(0, 1)),
    "profile": some(st.sampled_from(["desk", "paper", "x"])), "seed": some(st.integers()),
})


def config_doc(**fields):
    """A config over the CSV cohort.in, one ``kmeans_x`` method and one cohort, with ``fields`` in their place."""
    source = {"csv": {"path": "cohort.in", "schema": "schema.in", "label_column": "y"}}
    doc = {"seed": 1, "data": source, "methods": [{"name": "m", "kind": "kmeans_x"}], **fields}
    return json.dumps(doc).encode()


# keys too short to spell a spec's or config's required fields, so no document starts a run
FUZZED_INPUTS = {
    "generate --config": (["generate", "--config", "{f}", "--out", "{out}"], fuzzed_json(st.text(max_size=3))),
    "benchmark --config": (["benchmark", "--config", "{f}", "--out", "{out}"], fuzzed_json(st.text(max_size=3))),
    # behind a valid one-method config, so a file that loads is fitted, scored and ranked
    "benchmark data.csv.path": (["benchmark", "--config", "{csv_config}", "--out", "{out}"],
                                st.one_of(fuzzed_csv(b"a,b,y\n", NUMBERS), fuzzed_table(b"a,b,y\n", 3))),
    "benchmark data.csv.schema": (["benchmark", "--config", "{schema_config}", "--out", "{out}"],
                                  FUZZED_SCHEMAS),
}
# a spec's or config's fields, each drawn from the values its reader takes and some it does not
FUZZED_FIELDS = {
    "generate spec": ("generate", SPEC.map(lambda spec: json.dumps(spec).encode())),
    "benchmark data.synthetic": ("benchmark", SPEC.map(lambda spec: config_doc(data={"synthetic": spec}))),
    "benchmark cohorts": ("benchmark", COHORTS.map(lambda cohorts: config_doc(cohorts=cohorts))),
    "benchmark methods": ("benchmark", METHOD_LIST.map(lambda methods: config_doc(methods=methods))),
    "benchmark trained methods": ("benchmark", TRAINED_METHODS.map(lambda methods: config_doc(methods=methods))),
    "benchmark top-level fields": ("benchmark", FIELDS.map(lambda fields: config_doc(**fields))),
}


def check_fuzzed(tmp_path, argv, content: bytes) -> None:
    """Run ``argv`` with ``content`` as the file fuzzed.in beside the files it refers to: it must
    exit 0 or 1, and an exit 1 must leave no output directory."""
    source = {"path": "fuzzed.in", "schema": "schema.in", "label_column": "y"}
    files = {
        "schema": json.dumps([{"name": n, "bound_lo": 0, "bound_hi": 10} for n in "ab"]),
        "data": "a,b,y\n1,2,0\n3,,1\n5,6,1\n1,1,0\n",
        "cohort": "a,b,y\n" + "".join(f"{i % 2},{i % 7 or ''},{i // 2 % 2}\n" for i in range(12)),
        "csv_config": json.dumps({"seed": 1, "data": {"csv": source},
                                  "methods": [{"name": "m", "kind": "kmeans_x"}]}),
        "schema_config": json.dumps({"seed": 1, "data": {"csv": {**source, "path": "data.in", "schema": "fuzzed.in"}},
                                     "methods": [{"name": "m", "kind": "kmeans_x"}]}),
    }
    paths = {key: tmp_path / f"{key}.in" for key in files}
    for key, text in files.items():
        paths[key].write_text(text)
    fuzzed = tmp_path / "fuzzed.in"
    fuzzed.write_bytes(content)
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)  # hypothesis runs every example in the one tmp_path
    code = run_cli(*[a.format(f=fuzzed, out=out, **paths) for a in argv])
    assert code in (0, 1)
    assert code == 0 or not out.exists()


@pytest.mark.parametrize("name", FUZZED_INPUTS)
@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_bytes_in_any_input_file_exit_0_or_1(tmp_path, name, data):
    argv, contents = FUZZED_INPUTS[name]
    check_fuzzed(tmp_path, argv, data.draw(contents))


# fewer examples than the byte fuzz: about a third of these documents load, and each of those runs
@pytest.mark.parametrize("name", FUZZED_FIELDS)
@settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_value_in_any_config_field_exit_0_or_1(tmp_path, name, data):
    command, docs = FUZZED_FIELDS[name]
    content = data.draw(docs)
    if not too_big(json.loads(content)):
        check_fuzzed(tmp_path, [command, "--config", "{f}", "--out", "{out}"], content)
        return
    doc = json.loads(content)
    try:  # too big to run: it loads, or fails to with a validation error (exit 1)
        _build(SyntheticSpec, doc, "synthetic") if command == "generate" else parse_config(doc, base_dir=tmp_path)
    except ValidationError:
        pass


def cut_frozen_doc() -> dict:
    """configs/benchmark.json with its schedules cut: every trained method at 1 pretraining and
    1 fine-tuning epoch, the sweep at dims [2, 5] and the cohort at 200 rows."""
    doc = json.loads(FROZEN_CONFIG.read_text())
    doc["data"]["synthetic"]["n_samples"] = 200
    cut = {"pretrain_epochs": 1, "finetune_epochs": 1, "dims": [2, 5]}
    for method in doc["methods"]:
        method["params"] = {name: value for name, value in cut.items() if name in METHODS[method["kind"]].params}
    return doc


# beside any JSON value, values like those the document's fields hold, so more documents load and fit
NEAR_VALUES = (st.integers(-2, 250) | st.floats(-1, 3) | st.lists(st.integers(0, 40), max_size=3)
               | st.sampled_from(["", "c", "desk", "full", "diagonal", "correlated", "tanh", "kmeans_x", "kgg"]))


# about 1 in 35 of these documents loads, and each of those fits the frozen nine-method grid
@settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fields_of_the_cut_frozen_document_swapped_for_any_json_value_exit_0_or_1(tmp_path, data):
    doc = swap_fields(data, cut_frozen_doc(), JSON_VALUES | NEAR_VALUES)
    if too_big(doc, limit=200):  # a size, schedule or step above the cut cohort's 200 rows is only loaded
        try:
            parse_config(doc, base_dir=tmp_path)
        except ValidationError:
            pass
        return
    config, out = tmp_path / "config.json", tmp_path / "o"
    config.write_text(json.dumps(doc))
    shutil.rmtree(out, ignore_errors=True)  # hypothesis runs every example in the one tmp_path
    code = run_cli("benchmark", "--config", str(config), "--out", str(out))
    assert code in (0, 1)
    assert code == 0 or not out.exists()


def test_a_sweep_size_above_the_cohort_s_features_exits_1_before_any_fit(tmp_path, capsys):
    # found by the test above: the sweep's cell failed at run time, and the run exited 2
    doc = cut_frozen_doc()
    doc["methods"][7]["params"]["dims"] = [2, 98]
    config, out = tmp_path / "config.json", tmp_path / "o"
    config.write_text(json.dumps(doc))
    assert run_cli("benchmark", "--config", str(config), "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: methods[7].params.dims: embed dim 98 outside [1, 33]\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "benchmark"])
@settings(max_examples=40, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers() | st.sampled_from([-1, 2**63, 2**64, -2**63, 10**40, -10**40]),
       profile=st.none() | st.text(max_size=6) | st.sampled_from(["desk", "paper", "Desk"]))
def test_any_seed_and_profile_flag_exit_0_or_1(tmp_path, synth_spec, command, seed, profile):
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)  # hypothesis runs every example in the one tmp_path
    config = str(synth_spec) if command == "generate" else tiny_config(tmp_path)
    argv = [command, "--config", config, "--seed", str(seed), "--out", str(out)]
    code = run_cli(*argv, *([] if profile is None else ["--profile", profile]))
    # generate has no --profile and seeds numpy with its seed as it is; a grid derives its seeds from any integer
    if command == "generate":
        assert code == (0 if profile is None and seed >= 0 else 1)
    else:
        assert code == (0 if profile in (None, "desk", "paper") else 1)
    assert code == 0 or not out.exists()
