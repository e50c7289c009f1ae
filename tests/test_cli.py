import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ehrcluster import cli
from ehrcluster.cli import main
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
)
from ehrcluster.metrics import ScoreReport, read_score_reports


GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"

# params out of the range their fit accepts, each with its error's wording and the kind it applies to
OUT_OF_RANGE = [
    ({"batch_size": 0}, "batch_size must be >= 1", "deep_gaussian"),
    ({"embed_dim": 0}, "embed_dim included, must be >= 1", "deep_gaussian"),
    ({"learning_rate": -1}, "learning_rate must be > 0", "deep_gaussian"),
    ({"gamma": -1}, "gamma must be >= 0", "deep_gaussian"),
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


@pytest.fixture(scope="module")
def preprocessed(generated, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    code = run_cli(
        "preprocess",
        "--csv", str(generated / "synthetic.csv"),
        "--schema", str(generated / "schema.json"),
        "--label-column", "label",
        "--out", str(out),
    )
    assert code == 0
    return out


class TestGenerate:
    def test_outputs_exist(self, generated):
        assert (generated / "synthetic.csv").exists()
        schema = json.loads((generated / "schema.json").read_text())
        assert len(schema) == 6

    def test_missing_cells_written_empty(self, generated):
        text = (generated / "synthetic.csv").read_text()
        assert ",," in text or text.rstrip().endswith(",")


class TestPreprocess:
    def test_no_missing_left(self, preprocessed):
        rows = read_rows(preprocessed / "preprocessed.csv")
        assert all(all(v != "" for v in r.values()) for r in rows)
        scaler = json.loads((preprocessed / "scaler.json").read_text())
        assert len(scaler["mean"]) == 6


class TestCluster:
    def test_kmeans_then_evaluate_high_accuracy(self, preprocessed, tmp_path):
        code = run_cli(
            "cluster", "--csv", str(preprocessed / "preprocessed.csv"),
            "--label-column", "label", "--method", "kmeans_x",
            "--seed", "4", "--out", str(tmp_path),
        )
        assert code == 0
        labels = read_rows(tmp_path / "kmeans_x_labels.csv")
        prep = read_rows(preprocessed / "preprocessed.csv")
        assert len(labels) == len(prep)

        truth_path = tmp_path / "truth.csv"
        with open(truth_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sample_index", "label"])
            for i, r in enumerate(prep):
                w.writerow([i, r["label"]])
        code = run_cli(
            "evaluate", "--truth", str(truth_path),
            "--pred", str(tmp_path / "kmeans_x_labels.csv"),
            "--out", str(tmp_path),
        )
        assert code == 0
        score = read_rows(tmp_path / "scores.csv")[0]
        assert float(score["acc"]) >= 0.97

    def test_deep_method_with_tiny_params(self, preprocessed, tmp_path):
        params = json.dumps({
            "embed_dim": 2, "hidden": [8], "pretrain_epochs": 5,
            "finetune_epochs": 4, "target_update_interval": 2,
        })
        code = run_cli(
            "cluster", "--csv", str(preprocessed / "preprocessed.csv"),
            "--label-column", "label", "--method", "deep_gaussian",
            "--seed", "4", "--params", params, "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "deep_gaussian_embedding.csv").exists()

    def test_the_embedding_file_is_the_one_the_grid_writes_for_the_same_cell(self, generated, preprocessed,
                                                                               tmp_path):
        params = {"embed_dim": 2, "hidden": [8], "pretrain_epochs": 3}
        config = {
            "seed": 9,
            "data": {"csv": {"path": str(generated / "synthetic.csv"), "schema": str(generated / "schema.json"),
                             "label_column": "label"}},
            "methods": [{"name": "kmeans_z", "kind": "kmeans_z", "params": params}],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli("benchmark", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "grid")) == 0
        seed = json.loads((tmp_path / "grid" / "manifest.json").read_text())["cells"][0]["seed"]
        assert run_cli(
            "cluster", "--csv", str(preprocessed / "preprocessed.csv"), "--label-column", "label",
            "--method", "kmeans_z", "--seed", str(seed), "--params", json.dumps(params),
            "--out", str(tmp_path / "runs"),
        ) == 0
        written = (tmp_path / "runs" / "kmeans_z_embedding.csv").read_bytes()
        assert written.startswith(b"z0,z1\n")
        assert written == (tmp_path / "grid" / "embeddings" / "all__kmeans_z.csv").read_bytes()
        assert (tmp_path / "runs" / "kmeans_z_labels.csv").read_bytes() == (
            tmp_path / "grid" / "labels" / "all__kmeans_z.csv").read_bytes()


class TestEvaluate:
    def test_identical_files_score_one(self, tmp_path):
        p = tmp_path / "labels.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sample_index", "label"])
            for i, v in enumerate([0, 0, 1, 1, 0, 1]):
                w.writerow([i, v])
        code = run_cli("evaluate", "--truth", str(p), "--pred", str(p), "--out", str(tmp_path))
        assert code == 0
        row = read_rows(tmp_path / "scores.csv")[0]
        assert float(row["acc"]) == 1.0
        assert float(row["ari"]) == 1.0
        assert float(row["nmi"]) == 1.0

    def test_out_writes_the_benchmark_scores_format_and_reads_back_to_the_printed_scores(self, tmp_path, capsys):
        assert run_cli("benchmark", "--config", tiny_config(tmp_path), "--out", str(tmp_path / "grid")) == 0
        pred = tmp_path / "grid" / "labels" / "all__m.csv"
        truth = tmp_path / "truth.csv"
        n = len(read_rows(pred))
        truth.write_text("sample_index,label\n" + "".join(f"{i},{i % 3 == 0:d}\n" for i in range(n)))
        capsys.readouterr()
        argv = ["--truth", str(truth), "--pred", str(pred), "--method", "m", "--cohort", "c"]
        assert run_cli("evaluate", *argv, "--out", str(tmp_path / "eval")) == 0
        printed = json.loads(capsys.readouterr().out)
        lines = (tmp_path / "eval" / "scores.csv").read_text().splitlines()
        assert lines[0] == (tmp_path / "grid" / "scores.csv").read_text().splitlines()[0]
        assert len(lines) == 2
        assert read_score_reports(tmp_path / "eval" / "scores.csv") == [ScoreReport("m", "c", **printed)]


class TestEnsembleCommand:
    def test_disjoint_errors_recover_truth(self, tmp_path):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 2, size=30)
        paths = []
        for k in range(3):
            v = truth.copy()
            v[np.arange(10 * k, 10 * k + 3)] ^= 1
            p = tmp_path / f"v{k}.csv"
            with open(p, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["sample_index", "label"])
                w.writerows(enumerate(v.tolist()))
            paths.append(str(p))
        code = run_cli("ensemble", *paths, "--out", str(tmp_path))
        assert code == 0
        got = np.array([int(r["label"]) for r in read_rows(tmp_path / "ensemble_labels.csv")])
        assert np.array_equal(got, truth)


class TestRank:
    def test_hand_ranked(self, tmp_path):
        p = tmp_path / "scores.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cohort", "method", "acc", "ari", "nmi"])
            w.writerow(["c", "good", 0.9, 0.9, 0.9])
            w.writerow(["c", "bad", 0.1, 0.1, 0.1])
        assert run_cli("rank", "--scores", str(p), "--out", str(tmp_path)) == 0
        rows = read_rows(tmp_path / "ranks.csv")
        assert rows[0]["method"] == "good" and float(rows[0]["mean_rank"]) == 1.0
        assert rows[1]["method"] == "bad" and float(rows[1]["mean_rank"]) == 2.0


def test_method_choices_are_the_table_kinds_but_kgg():
    from ehrcluster.experiment import METHODS

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    method = next(a for a in sub.choices["cluster"]._actions if a.dest == "method")
    assert list(method.choices) == [kind for kind in METHODS if kind != "kgg"]


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
        # rank rewrites the grid's ranks.csv byte for byte
        assert run_cli("rank", "--scores", str(tmp_path / "o" / "scores.csv"), "--out", str(tmp_path)) == 0
        assert (tmp_path / "ranks.csv").read_bytes() == (tmp_path / "o" / "ranks.csv").read_bytes()


class TestExitCodes:
    def test_bad_flag_is_validation_error(self, capsys):
        assert run_cli("evaluate", "--nope") == 1

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

    @pytest.mark.parametrize("argv", [
        ["--method", "kmeans_x", "--k", "1"],
        ["--method", "deep_gaussian_sweep", "--k", "3"],
    ])
    def test_cluster_k_is_checked(self, tmp_path, capsys, argv):
        p = tmp_path / "d.csv"
        p.write_text("f00,f01\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        assert run_cli("cluster", "--csv", str(p), *argv, "--out", str(tmp_path / "o")) == 1
        assert "error: --k:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("argv", [
        ["generate", "--config", "{spec}"],
        ["cluster", "--csv", "{csv}", "--method", "kmeans_x"],
        ["cluster", "--csv", "{csv}", "--method", "kmeans_z"],
    ])
    def test_negative_seed_flag_is_validation_error(self, tmp_path, capsys, synth_spec, argv):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("f00,f01\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        argv = [a.format(spec=synth_spec, csv=csv_path) for a in argv]
        assert run_cli(*argv, "--seed", "-1", "--out", str(tmp_path / "o")) == 1
        assert "error: --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_benchmark_takes_any_integer_seed(self, tmp_path):
        # a grid seed only ever reaches numpy through derive_seed, which takes any integer
        config = tiny_config(tmp_path, seed=-5)
        assert run_cli("benchmark", "--config", config, "--out", str(tmp_path / "a")) == 0
        assert run_cli("benchmark", "--config", config, "--seed", "-7", "--out", str(tmp_path / "b")) == 0

    @pytest.mark.parametrize("command", ["evaluate", "ensemble"])
    @pytest.mark.parametrize("cell", ["1.9", "-1"])
    def test_label_that_is_not_a_class_is_validation_error(self, tmp_path, capsys, command, cell):
        good = tmp_path / "good.csv"
        good.write_text("sample_index,label\n0,0\n1,1\n2,1\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"sample_index,label\n0,0\n1,{cell}\n2,1\n")
        if command == "evaluate":
            argv = ["evaluate", "--truth", str(bad), "--pred", str(good)]
        else:
            argv = ["ensemble", str(good), str(bad), str(good), "--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 1
        assert f"{bad}: data row 1:" in capsys.readouterr().err

    def test_nan_cluster_input_is_validation_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f00,f01\n1.0,2.0\nnan,3.0\n4.0,5.0\n")
        assert run_cli("cluster", "--csv", str(p), "--method", "kmeans_x",
                       "--out", str(tmp_path)) == 1

    def test_unreadable_labels_is_validation_error(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("label\n")
        assert run_cli("evaluate", "--truth", str(p), "--pred", str(p)) == 1

    def test_non_numeric_cluster_input_is_validation_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f00,f01\n1.0,oops\n")
        assert run_cli("cluster", "--csv", str(p), "--method", "kmeans_x",
                       "--out", str(tmp_path)) == 1

    def test_malformed_json_configs_are_validation_errors(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert run_cli("generate", "--config", str(p), "--out", str(tmp_path)) == 1
        data = tmp_path / "d.csv"
        data.write_text("f00\n1.0\n2.0\n")
        code = run_cli(
            "cluster", "--csv", str(data), "--method", "kmeans_x",
            "--params", "{oops", "--out", str(tmp_path),
        )
        assert code == 1

    @pytest.mark.parametrize("params, named, kind", OUT_OF_RANGE)
    def test_out_of_range_param_is_validation_error(self, tmp_path, capsys, params, named, kind):
        p = tmp_path / "d.csv"
        p.write_text("f00,f01\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        assert run_cli("cluster", "--csv", str(p), "--method", kind,
                       "--params", json.dumps(params), "--out", str(tmp_path / "o")) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cluster_sweep_dim_above_the_feature_count_fails_before_training(self, tmp_path, capsys, monkeypatch):
        from ehrcluster import experiment

        trained = []
        monkeypatch.setattr(experiment, "run_dimension_sweep", lambda *args: trained.append(args[1]))
        p = tmp_path / "d.csv"
        p.write_text("f00,f01\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        assert run_cli("cluster", "--csv", str(p), "--method", "deep_gaussian_sweep",
                       "--params", '{"dims": [2, 99]}', "--out", str(tmp_path / "o")) == 1
        assert "embed dim 99 outside [1, 2]" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command", ["evaluate", "ensemble"])
    def test_label_files_of_differing_length_are_named(self, tmp_path, capsys, command):
        short, long = tmp_path / "short.csv", tmp_path / "long.csv"
        short.write_text("sample_index,label\n0,0\n1,1\n2,1\n")
        long.write_text("sample_index,label\n0,0\n1,1\n2,1\n3,0\n")
        if command == "evaluate":
            argv = ["evaluate", "--truth", str(short), "--pred", str(long)]
        else:
            argv = ["ensemble", str(short), str(long), "--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 1
        assert f"{short} has 3 rows, {long} has 4 rows" in capsys.readouterr().err

    def test_param_the_method_does_not_use_is_validation_error(self, preprocessed, tmp_path):
        code = run_cli(
            "cluster", "--csv", str(preprocessed / "preprocessed.csv"),
            "--label-column", "label", "--method", "kmeans_z",
            "--params", json.dumps({"cov_type": "diagonal"}), "--out", str(tmp_path),
        )
        assert code == 1


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


# Each input below is one bad file; every command must exit 1 with an error that starts
# with that file's path or, where ``named`` is given, with what is wrong with the input.
LABELS = "sample_index,label\n0,0\n1,1\n2,1\n"
NOT_UTF8 = b"sample_index,label\n0,\xff\xfe\n"
SCHEMA_CONFIG = {"seed": 1, "data": {"csv": {"path": "labels.csv", "schema": "bad"}},
                 "methods": [{"name": "m", "kind": "kmeans_x"}]}


@pytest.mark.parametrize("argv, content, named", [
    (["evaluate", "--truth", "{labels}", "--pred", "{bad}"], "sample_index,label\n0,0\n0,1\n2,1\n", None),
    (["evaluate", "--truth", "{labels}", "--pred", "{bad}"], "sample_index,label\n0,0\n1,1\n5,1\n", None),
    (["evaluate", "--truth", "{labels}", "--pred", "{bad}"], "sample_index,cls\n0,0\n1,1\n2,1\n", None),
    (["rank", "--scores", "{bad}", "--out", "{out}"], "cohort,method,acc,ari,nmi\nc,m,x,0.5,0.5\n", None),
    (["rank", "--scores", "{bad}", "--out", "{out}"], "cohort,method,acc,nmi\nc,m,0.5,0.5\n", None),
    (["rank", "--scores", "{bad}", "--out", "{out}"], "cohort,method,acc,ari,nmi\nc,m,nan,0.5,0.5\n", None),
    (["rank", "--scores", "{bad}", "--out", "{out}"],
     "cohort,method,acc,ari,nmi\nc,m,0.5,0.5,0.5\nc,n,0.4,0.4,0.4\nc,m,0.3,0.3,0.3\n",
     "method 'm' has more than one score for cohort 'c'"),
    (["rank", "--scores", "{bad}", "--out", "{out}"],
     "cohort,method,acc,ari,nmi\nc1,a,0.9,0.9,0.9\nc1,b,0.5,0.5,0.5\nc2,a,0.9,0.9,0.9\n",
     "method 'b' has no score for cell (c2, acc)"),
    (["ensemble", "{bad}", "--out", "{out}"], LABELS, "ensemble: needs two or more label files, got 1"),
    (["cluster", "--csv", "{bad}", "--method", "kmeans_x", "--out", "{out}"], b"f00,f01\n1.0,\xff\n", None),
    (["evaluate", "--truth", "{bad}", "--pred", "{labels}"], NOT_UTF8, None),
    (["rank", "--scores", "{bad}", "--out", "{out}"], b"cohort,method,acc,ari,nmi\nc,\xe9,1,1,1\n", None),
    (["benchmark", "--config", "{bad}", "--out", "{out}"], b'{"seed": "\xff"}', None),
    (["generate", "--config", "{bad}", "--out", "{out}"], b'{"n_samples": "\xff"}', None),
    (["preprocess", "--csv", "{labels}", "--schema", "{bad}", "--out", "{out}"], b'[{"name": "\xff"}]', None),
    (["preprocess", "--csv", "{labels}", "--schema", "{bad}", "--out", "{out}"], "[{oops", None),
    (["preprocess", "--csv", "{labels}", "--schema", "{bad}", "--out", "{out}"],
     '{"name": "label", "bound_lo": 0, "bound_hi": 1}', None),
    (["preprocess", "--csv", "{labels}", "--schema", "{bad}", "--out", "{out}"],
     '[{"unit": "u", "bound_lo": 0, "bound_hi": 1}]', None),
    (["preprocess", "--csv", "{labels}", "--schema", "{bad}", "--out", "{out}"],
     '[{"name": "label", "bound_lo": "x", "bound_hi": 1}]', None),
    (["benchmark", "--config", "{config}", "--out", "{out}"],
     '[{"unit": "u", "bound_lo": 0, "bound_hi": 1}]', None),
    (["evaluate", "--truth", "{bad}", "--pred", "{labels}"], None, None),  # a directory
    (["cluster", "--csv", "{bad}", "--label-column", "y", "--method", "kmeans_x", "--out", "{out}"],
     "f00,y\n1.0,0\n2.0,1.9\n3.0,1\n", None),
    (["cluster", "--csv", "{bad}", "--method", "kmeans_x", "--out", "{out}"], "f00,f00\n1,2\n3,4\n5,6\n", None),
    (["cluster", "--csv", "{bad}", "--label-column", "y", "--method", "kmeans_x", "--out", "{out}"],
     "y\n1\n2\n", None),
    (["preprocess", "--csv", "{labels}", "--schema", "{bad}", "--out", "{out}"],
     '[{"name": "label", "bound_lo": 5, "bound_hi": 9}]', "no sample has missing rate <= 0.05; all 3 removed"),
], ids=[
    "pred-index-repeated", "pred-index-out-of-range", "pred-without-label-column", "score-x",
    "scores-without-ari", "score-nan", "scores-pair-repeated", "scores-cell-missing", "ensemble-one-file",
    "cluster-not-utf8", "truth-not-utf8", "scores-not-utf8", "config-not-utf8", "spec-not-utf8",
    "schema-not-utf8", "schema-not-json", "schema-an-object", "schema-entry-without-name",
    "schema-bound-not-a-number", "config-schema-entry-without-name", "truth-a-directory",
    "cluster-label-a-fraction", "cluster-column-named-twice", "cluster-only-the-label-column",
    "schema-leaves-no-sample",
])
def test_bad_input_file_exits_1_and_names_itself(tmp_path, capsys, argv, content, named):
    tmp_path = tmp_path.resolve()
    labels, bad, config = tmp_path / "labels.csv", tmp_path / "bad", tmp_path / "cfg.json"
    labels.write_text(LABELS)
    config.write_text(json.dumps(SCHEMA_CONFIG))
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = [a.format(labels=labels, bad=bad, config=config, out=tmp_path / "o") for a in argv]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {named or bad}")


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
FUZZED_INPUTS = {
    "cluster --csv": (["cluster", "--csv", "{f}", "--method", "kmeans_x", "--out", "{out}"],
                      fuzzed_csv(b"a,b\n", NUMBERS)),
    "evaluate --truth": (["evaluate", "--truth", "{f}", "--pred", "{labels}"],
                         fuzzed_csv(b"sample_index,label\n", NUMBERS)),
    "evaluate --pred": (["evaluate", "--truth", "{labels}", "--pred", "{f}"],
                        fuzzed_csv(b"sample_index,label\n", NUMBERS)),
    **{
        f"ensemble file {i}": (["ensemble", *["{labels}"] * i, "{f}", *["{labels}"] * (2 - i), "--out", "{out}"],
                               fuzzed_csv(b"sample_index,label\n", NUMBERS))
        for i in range(3)
    },
    "rank --scores": (["rank", "--scores", "{f}", "--out", "{out}"],
                      fuzzed_csv(b"cohort,method,acc,ari,nmi\n", NUMBERS + "cm")),
    "preprocess --csv": (["preprocess", "--csv", "{f}", "--schema", "{schema}", "--label-column", "y",
                          "--out", "{out}"], fuzzed_csv(b"a,b,y\n", NUMBERS)),
    "preprocess --schema": (["preprocess", "--csv", "{data}", "--schema", "{f}", "--label-column", "y",
                             "--out", "{out}"],
                            fuzzed_json(st.sampled_from(["name", "unit", "bound_lo", "bound_hi"]))),
    # keys too short to spell a spec's or config's required fields, so no document starts a run
    "generate --config": (["generate", "--config", "{f}", "--out", "{out}"], fuzzed_json(st.text(max_size=3))),
    "benchmark --config": (["benchmark", "--config", "{f}", "--out", "{out}"], fuzzed_json(st.text(max_size=3))),
}


@pytest.mark.parametrize("name", FUZZED_INPUTS)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_bytes_in_any_input_file_exit_0_or_1(tmp_path, name, data):
    argv, contents = FUZZED_INPUTS[name]
    files = {
        "labels": LABELS,
        "schema": json.dumps([{"name": n, "bound_lo": 0, "bound_hi": 10} for n in "ab"]),
        "data": "a,b,y\n1,2,0\n3,,1\n5,6,1\n",
    }
    paths = {key: tmp_path / f"{key}.in" for key in files}
    for key, text in files.items():
        paths[key].write_text(text)
    fuzzed = tmp_path / "fuzzed.in"
    fuzzed.write_bytes(data.draw(contents))
    argv = [a.format(f=fuzzed, out=tmp_path / "o", **paths) for a in argv]
    assert run_cli(*argv) in (0, 1)
