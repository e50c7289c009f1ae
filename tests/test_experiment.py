import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrcluster.data import SyntheticSpec, generate_synthetic
from ehrcluster.errors import ConfigError
from ehrcluster.experiment import (
    PROFILES,
    MethodSpec,
    load_config,
    parse_config,
    run_experiment,
    run_method,
)


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


FROZEN_DOC = json.loads((Path(__file__).resolve().parents[1] / "configs" / "benchmark.json").read_text())

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def field_paths(node, path=()):
    """The path of every field under a JSON object or list, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


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
    ])
    def test_param_of_the_wrong_type_carries_field_path(self, kind, params, field):
        doc = minimal_doc(methods=[{"name": "m", "kind": kind, "params": params}])
        with pytest.raises(ConfigError, match=rf"methods\[0\].params.{field}"):
            parse_config(doc)

    def test_params_are_cast_once_at_load(self):
        doc = minimal_doc(methods=[{"name": "m", "kind": "kmeans_z",
                                    "params": {"n_init": "3", "tol": 1, "hidden": [8, 4]}}])
        assert parse_config(doc).methods[0].params == {"n_init": 3, "tol": 1.0, "hidden": (8, 4)}

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
    ])
    def test_explicit_kgg_voters_validated(self, voters, message):
        doc = minimal_doc(methods=[
            {"name": "km", "kind": "kmeans_x"},
            {"name": "gm", "kind": "gmm_x"},
            {"name": "vote", "kind": "kgg", "params": {"voters": voters}},
        ])
        with pytest.raises(ConfigError, match=rf"methods\[2\].params.voters: .*{message}"):
            parse_config(doc)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="profile"):
            parse_config(minimal_doc(profile="laptop"))

    def test_duplicate_cohort_names(self):
        doc = minimal_doc(cohorts=[{"name": "c"}, {"name": "c"}])
        with pytest.raises(ConfigError, match=r"cohorts\[1\].name"):
            parse_config(doc)

    def test_nullable_fields_take_null(self):
        doc = minimal_doc(cohorts=[{"name": "c", "group_column": None, "subsample_n": None}])
        assert parse_config(doc).cohorts[0].group_column is None

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fields_swapped_for_any_json_value_parse_or_raise_config_error(self, data):
        doc = copy.deepcopy(FROZEN_DOC)
        for _ in range(data.draw(st.integers(1, 3))):
            *parents, key = data.draw(st.sampled_from(list(field_paths(doc))))
            node = doc
            for step in parents:
                node = node[step]
            node[key] = data.draw(JSON_VALUES)
        try:
            parse_config(doc)
        except ConfigError:
            pass

    def test_profiles_table(self):
        assert PROFILES["desk"].pretrain_epochs == 200
        assert PROFILES["desk"].finetune_epochs == 100
        assert PROFILES["paper"].pretrain_epochs == 1000
        assert PROFILES["paper"].hidden == (500, 500, 2000)


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

        def stop(input_dim, embed_dim, hidden, activation, seed):
            seen.append((embed_dim, tuple(hidden), activation))
            raise RuntimeError("stop before training")

        monkeypatch.setattr(experiment, "build", stop)
        ds = generate_synthetic(SyntheticSpec(40, 5, 1.0, 4.0, "spherical", 0.0, seed=1))
        for profile, params in (("desk", {}), ("paper", {}), ("paper", {"hidden": (8,), "embed_dim": 2})):
            with pytest.raises(RuntimeError, match="stop"):
                run_method(MethodSpec("m", "kmeans_z", params), ds, 2, 0, PROFILES[profile])
        assert seen == [(10, (64, 64), "relu"), (10, (500, 500, 2000), "relu"), (2, (8,), "relu")]

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


def test_frozen_benchmark_config_parses():
    from pathlib import Path

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "benchmark.json")
    assert cfg.k == 2
    assert len(cfg.methods) == 9
    assert cfg.synthetic.n_samples == 2000
    assert cfg.synthetic.n_features == 33
