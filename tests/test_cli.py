import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from ehrcluster import cli
from ehrcluster.cli import main
from ehrcluster.errors import (
    ConfigError,
    EmptyFile,
    EmptyRuns,
    LengthMismatch,
    MissingColumn,
    NonFiniteLoss,
    NonNumericCell,
    NonSquare,
    SingularCovariance,
    SweepRunFailed,
    UnsupportedK,
)


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
        ({"data": {"synthetic": {"n_samples": "many", "n_features": 4,
                                 "class_ratio": 1.0, "separation": 2.0}}}, "data.synthetic.n_samples"),
        ({"data": {"synthetic": "synth.json"}}, "data.synthetic"),
        ({"data": {"csv": "data.csv"}}, "data.csv"),
        ({"data": {"csv": {"schema": "s.json"}}}, "data.csv.path"),
        ({"data": {"csv": {"path": 1}}}, "data.csv.path"),
    ])
    def test_malformed_config_field_is_validation_error(self, tmp_path, capsys, overrides, field):
        assert run_cli("benchmark", "--config", tiny_config(tmp_path, **overrides),
                       "--out", str(tmp_path / "o")) == 1
        assert f"error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides", [
        {"data": {"synthetic": {"n_samples": -3, "n_features": 4,
                                "class_ratio": 1.0, "separation": 2.0}}},
        {"cohorts": [{"name": "c", "subsample_n": -4}]},
        {"cohorts": [{"name": "c", "subsample_n": 10, "subsample_ratio": -0.5}]},
    ])
    def test_negative_config_size_is_validation_error(self, tmp_path, overrides):
        assert run_cli("benchmark", "--config", tiny_config(tmp_path, **overrides),
                       "--out", str(tmp_path / "o")) == 1

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
        (MissingColumn("age"), 1),
        (NonNumericCell(3, "age"), 1),
        (EmptyFile("empty"), 1),
        (ConfigError("bad"), 1),
        (LengthMismatch("length"), 1),
        (UnsupportedK("k"), 1),
        (EmptyRuns("runs"), 1),
        (NonSquare("shape"), 1),
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
