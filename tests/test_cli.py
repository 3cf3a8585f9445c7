"""CLI tests: config handling, exit codes, and a tiny end-to-end pipeline."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from oodseg.cli import ConfigError, DEFAULT_CONFIG, SECTIONS, _section, load_config, main
from oodseg.estimators import load_score_map
from oodseg.tensorio import read_pgm, read_tensor, write_tensor

TINY = [
    "--set", "scene.height=32",
    "--set", "scene.width=32",
    "--set", "scene.classes=3",
    "--set", "data.train_scenes=3",
    "--set", "data.eval_scenes=2",
    "--set", "frozen.feature_dim=8",
    "--set", "frozen.fit_scenes=10",
    "--set", "head.blocks=2",
    "--set", "head.hidden=8",
    "--set", "train.iterations=4",
    "--set", "train.batch_size=2",
    "--set", "train.warmup_iters=2",
    "--set", "train.n_patches=2",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + fit-frozen + train once; the artifacts back several tests."""
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["gen-data", *TINY, "--out", str(root / "data")]) == 0
    assert main(["fit-frozen", *TINY, "--out", str(root / "frozen")]) == 0
    assert (
        main(
            [
                "train",
                *TINY,
                "--data", str(root / "data"),
                "--frozen", str(root / "frozen"),
                "--out", str(root / "run"),
            ]
        )
        == 0
    )
    return root


class TestLoadConfig:
    def test_defaults_returned_fresh(self):
        config = load_config(None, [])
        assert config == DEFAULT_CONFIG
        config["train"]["iterations"] = 1
        assert DEFAULT_CONFIG["train"]["iterations"] == 2000

    def test_file_merge(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"iterations": 7, "lr": 1}}))
        config = load_config(str(p), [])
        assert config["train"]["iterations"] == 7
        assert config["train"]["lr"] == 1.0 and isinstance(config["train"]["lr"], float)
        assert config["train"]["batch_size"] == 8  # untouched default

    @pytest.mark.parametrize(
        "payload",
        [
            {"nosuch": {}},
            {"train": {"nosuch": 1}},
            {"train": 5},
            {"train": {"iterations": 1.5}},
            {"train": {"iterations": True}},
            {"train": {"per_region": 1}},
            {"train": {"refine_mode": 3}},
            {"train": {"lr": float("nan")}},       # written as NaN
            {"train": {"gamma": float("inf")}},    # written as Infinity
        ],
    )
    def test_file_rejections(self, tmp_path, payload):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_config(str(p), [])

    def test_missing_or_invalid_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"), [])
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(ConfigError):
            load_config(str(bad), [])
        arr = tmp_path / "arr.json"
        arr.write_text("[1]")
        with pytest.raises(ConfigError):
            load_config(str(arr), [])

    def test_set_overrides(self):
        config = load_config(
            None,
            [
                "train.iterations=9",
                "train.lr=0.5",
                "train.per_region=true",
                "train.refine_mode=otsu",
            ],
        )
        assert config["train"]["iterations"] == 9
        assert config["train"]["lr"] == 0.5
        assert config["train"]["per_region"] is True
        assert config["train"]["refine_mode"] == "otsu"

    @pytest.mark.parametrize(
        "expr",
        [
            "train.iterations",          # no value
            "iterations=9",              # no section
            "train.nosuch=1",
            "nosuch.iterations=1",
            "train.iterations=abc",
            "train.lr=x",
            "train.per_region=maybe",
            "train.lr=nan",
            "train.lr=inf",
            "train.gamma=nan",
            "scene.noise=-inf",
            "train.iterations=1.5",
            "train.iterations=true",
        ],
    )
    def test_set_rejections(self, expr):
        with pytest.raises(ConfigError):
            load_config(None, [expr])


def _text(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _assert_is_default(config):
    assert config == DEFAULT_CONFIG
    for section, keys in DEFAULT_CONFIG.items():
        for key, value in keys.items():
            assert type(config[section][key]) is type(value), f"{section}.{key}"


class TestSchemaRoundTrip:
    def test_every_key_round_trips_through_set(self):
        sets = [f"{section}.{key}={_text(v)}" for section, keys in DEFAULT_CONFIG.items() for key, v in keys.items()]
        assert len(sets) == 47
        _assert_is_default(load_config(None, sets))

    def test_every_key_round_trips_through_json(self, tmp_path):
        p = tmp_path / "defaults.json"
        p.write_text(json.dumps(DEFAULT_CONFIG))
        _assert_is_default(load_config(str(p), []))

    def test_sections_are_the_dataclass_defaults(self):
        config = load_config(None, [])
        assert _section(config, "scene") == SECTIONS["scene"]()
        assert _section(config, "patch") == SECTIONS["patch"]()
        assert _section(config, "head", feature_dim=16) == SECTIONS["head"](feature_dim=16)
        assert _section(config, "train", patch=_section(config, "patch")) == SECTIONS["train"]()

    def test_every_dataclass_field_is_settable(self):
        # feature_dim comes from the frozen model, train.patch from the patch section
        supplied = {("head", "feature_dim"), ("train", "patch")}
        for section, cls in SECTIONS.items():
            for f in dataclasses.fields(cls):
                assert f.name in DEFAULT_CONFIG[section] or (section, f.name) in supplied, f"{section}.{f.name}"


class TestPipeline:
    def test_gen_data_outputs(self, pipeline):
        data = pipeline / "data"
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["n_train"] == 3 and manifest["n_eval"] == 2
        assert (data / "train" / "scene_0000.ppm").exists()
        assert (data / "eval" / "scene_0001_anomaly.pgm").exists()
        echoed = json.loads((data / "config.json").read_text())
        assert echoed["scene"]["height"] == 32  # --set lands in the echo

    def test_fit_frozen_outputs(self, pipeline):
        frozen = pipeline / "frozen"
        digest = (frozen / "digest.txt").read_text().strip()
        assert len(digest) == 64
        assert (frozen / "projection.tnsr").exists()

    def test_train_outputs(self, pipeline):
        run = pipeline / "run"
        lines = (run / "trainlog.csv").read_text().splitlines()
        assert lines[0] == "iter,l_a,l_o,n_ood,n_ignored,eta,ms"
        assert len(lines) >= 2
        assert all(line.split(",")[6] == "0" for line in lines[1:])
        assert (run / "head" / "head.txt").exists()
        digest = (run / "frozen_digest.txt").read_text().strip()
        assert digest == (pipeline / "frozen" / "digest.txt").read_text().strip()

    def test_score_with_head_and_heatmap(self, pipeline, tmp_path):
        out = tmp_path / "map.tnsr"
        heat = tmp_path / "map.pgm"
        rc = main(
            [
                "score",
                "--head", str(pipeline / "run" / "head"),
                "--frozen", str(pipeline / "frozen"),
                "--image", str(pipeline / "data" / "eval" / "scene_0000.ppm"),
                "--out", str(out),
                "--heatmap", str(heat),
            ]
        )
        assert rc == 0
        sm = load_score_map(out)
        assert sm.scorer == "combined"
        assert sm.values.shape == (32, 32)
        img = read_pgm(heat)
        assert img.shape == (32, 32) and img.dtype == np.uint8

    def test_score_headless_baseline(self, pipeline, tmp_path):
        out = tmp_path / "jem.tnsr"
        rc = main(
            [
                "score",
                "--frozen", str(pipeline / "frozen"),
                "--image", str(pipeline / "data" / "eval" / "scene_0000.ppm"),
                "--out", str(out),
                "--scorer", "jem",
            ]
        )
        assert rc == 0
        assert load_score_map(out).scorer == "jem"

    def test_eval_with_head(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(
            [
                "eval",
                "--head", str(pipeline / "run" / "head"),
                "--frozen", str(pipeline / "frozen"),
                "--data", str(pipeline / "data"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "scorer,ap,auroc,fpr95,n_pos,n_neg"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "combined", "tae", "tore", "jem", "msp", "entropy", "max_logit",
        ]
        assert "combined: ap=" in capsys.readouterr().out

    def test_eval_headless(self, pipeline, tmp_path):
        out = tmp_path / "eval0"
        rc = main(
            [
                "eval",
                "--frozen", str(pipeline / "frozen"),
                "--data", str(pipeline / "data"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["jem", "msp", "entropy", "max_logit"]


def _edit_manifest(head_dir, old, new):
    text = (head_dir / "head.txt").read_text()
    assert old in text
    (head_dir / "head.txt").write_text(text.replace(old, new))


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        assert main(["gen-data", "--set", "nosuch.key=1", "--out", str(tmp_path / "d")]) == 2
        assert main(["gen-data", "--set", "scene.height=8", "--out", str(tmp_path / "d")]) == 2
        assert main(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")]) == 2

    def test_artifact_error_is_3(self, pipeline, tmp_path):
        rc = main(
            [
                "eval",
                "--frozen", str(tmp_path / "missing"),
                "--data", str(pipeline / "data"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert rc == 3
        rc = main(
            [
                "score",
                "--frozen", str(pipeline / "frozen"),
                "--image", str(tmp_path / "missing.ppm"),
                "--out", str(tmp_path / "s.tnsr"),
            ]
        )
        assert rc == 3
        rc = main(
            [
                "train",
                *TINY,
                "--data", str(tmp_path / "missing"),
                "--frozen", str(pipeline / "frozen"),
                "--out", str(tmp_path / "r"),
            ]
        )
        assert rc == 3

    def test_mismatched_head_is_3(self, pipeline, tmp_path):
        other = tmp_path / "other_frozen"
        assert main(["fit-frozen", *TINY, "--set", "frozen.seed=99", "--out", str(other)]) == 0
        rc = main(
            [
                "eval",
                "--head", str(pipeline / "run" / "head"),
                "--frozen", str(other),
                "--data", str(pipeline / "data"),
                "--out", str(tmp_path / "e2"),
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: _edit_manifest(d, "hidden=8\n", ""),  # TINY's head.hidden
            lambda d: _edit_manifest(d, "use_batchnorm=1", "use_batchnorm=yes"),
            # [8, 2] holds as many values as [2, 8], so only a shape check sees it
            lambda d: write_tensor(d / "out_w.tnsr", read_tensor(d / "out_w.tnsr").reshape(-1, 2)),
            lambda d: _edit_manifest(d, "frozen_digest=", "note="),
        ],
        ids=["no_hidden", "bad_bool", "out_w_shape", "no_digest"],
    )
    def test_corrupt_head_is_3(self, pipeline, tmp_path, corrupt):
        head = tmp_path / "head"
        shutil.copytree(pipeline / "run" / "head", head)
        corrupt(head)
        rc = main(
            [
                "eval",
                "--head", str(head),
                "--frozen", str(pipeline / "frozen"),
                "--data", str(pipeline / "data"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert rc == 3

    def test_degenerate_training_is_4(self, pipeline, tmp_path):
        # full-size square patches cover every pixel, leaving no ID set
        rc = main(
            [
                "train",
                *TINY,
                "--set", "patch.crop_min_div=1",
                "--set", "patch.crop_max_div=1",
                "--set", "patch.policy=square",
                "--data", str(pipeline / "data"),
                "--frozen", str(pipeline / "frozen"),
                "--out", str(tmp_path / "r"),
            ]
        )
        assert rc == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # divergence is reported, not warned about
    def test_diverging_training_is_4(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "train",
                *TINY,
                "--set", "train.lr=1e300",
                "--data", str(pipeline / "data"),
                "--frozen", str(pipeline / "frozen"),
                "--out", str(tmp_path / "r"),
            ]
        )
        assert rc == 4
        assert "iteration 1: loss is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--set", "data.train_scenes=1"],
            ["gen-data", "--set", "data.eval_scenes=0"],
            ["fit-frozen", "--set", "frozen.feature_dim=0"],
            ["fit-frozen", "--set", "frozen.fit_scenes=0"],
            ["sweep", "--param", "patches", "--values", "abc"],
            ["sweep", "--param", "gamma", "--values", "nan"],
            ["train", "--set", "train.lr=nan", "--data", "d", "--frozen", "f"],
            ["eval", "--lam", "nan", "--frozen", "f", "--data", "d"],
            ["score", "--lam", "inf", "--frozen", "f", "--image", "i.ppm"],
        ],
        ids=[
            "train_scenes",
            "eval_scenes",
            "feature_dim",
            "fit_scenes",
            "sweep_abc",
            "sweep_nan",
            "train_nan",
            "eval_lam_nan",
            "score_lam_inf",
        ],
    )
    def test_bad_value_is_2(self, tmp_path, argv):
        # TINY first, so that a value wrongly accepted costs a tiny run, not a desk-size one;
        # eval and score take no config.  Their missing inputs would exit 3 if read.
        tiny = [] if argv[0] in ("eval", "score") else TINY
        assert main([argv[0], *tiny, *argv[1:], "--out", str(tmp_path / "o")]) == 2
        if argv[0] in ("eval", "score"):
            assert not (tmp_path / "o").exists()


class TestGrids:
    def test_ablate(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        rc = main(["ablate", *TINY, "--out", str(out)])
        assert rc == 0
        lines = (out / "ablate.csv").read_text().splitlines()
        assert lines[0] == "arm,scorer,ap,auroc,fpr95,n_pos,n_neg"
        table = [l.split(",")[:2] for l in lines[1:]]
        assert table == [
            ["jem", "jem"],
            ["tae_only", "tae"],
            ["tore_only", "tore"],
            ["both", "combined"],
            ["margin_static", "combined"],
            ["margin_dynamic", "combined"],
        ]
        # the dynamic-margin row is the "both" arm under its margin name
        assert lines[4].split(",")[2:] == lines[6].split(",")[2:]
        assert (out / "data" / "manifest.json").exists()
        assert (out / "frozen" / "digest.txt").exists()

    def test_ablate_rebuilds_world_from_config(self, tmp_path):
        # a second ablate into the same --out must not reuse the seed-0 world
        args = ["ablate", *TINY, "--set", "train.iterations=2", "--set", "data.seed=7"]
        assert main(["ablate", *TINY, "--set", "train.iterations=2", "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "fresh")]) == 0
        for rel in ("ablate.csv", "data/train/scene_0000.ppm", "data/eval/scene_0000.ppm"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "fresh" / rel).read_bytes(), rel

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", *TINY, "--out", str(out), "--param", "gamma", "--values", "5", "15"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,ap,auroc,fpr95"
        assert len(lines) == 3
        assert lines[1].startswith("gamma,5.0,")
        assert lines[2].startswith("gamma,15.0,")

    def test_sweep_patches_values_are_integers(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", *TINY, "--out", str(out), "--param", "patches", "--values", "2", "3"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["patches", "2"], ["patches", "3"]]

    def test_sweep_unknown_param_is_2(self, tmp_path):
        rc = main(["sweep", *TINY, "--out", str(tmp_path / "s"), "--param", "depth", "--values", "1"])
        assert rc == 2
