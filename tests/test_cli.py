"""CLI tests: config handling, exit codes, and a tiny end-to-end pipeline."""

import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

import oodseg.cli
import oodseg.trainer
from oodseg.cli import ConfigError, DEFAULT_CONFIG, SECTIONS, _section, load_config, main
from oodseg.head import load_head
from oodseg.synthworld import frozen_digest, load_eval_set, load_frozen, save_frozen
from oodseg.tensorio import read_pgm, read_ppm, read_tensor, write_pgm, write_ppm, write_tensor
from oodseg.trainer import evaluate, write_eval_csv
from test_trainer import full_crops

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
        p.write_text(json.dumps({"train": {"iterations": 7, "gamma": 1}}))
        config = load_config(str(p), [])
        assert config["train"]["iterations"] == 7
        assert config["train"]["gamma"] == 1.0 and isinstance(config["train"]["gamma"], float)
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
            {"train": {"gamma": float("nan")}},    # written as NaN
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
                "train.gamma=0.5",
                "train.per_region=true",
                "train.refine_mode=otsu",
            ],
        )
        assert config["train"]["iterations"] == 9
        assert config["train"]["gamma"] == 0.5
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
            "train.gamma=x",
            "train.per_region=maybe",
            "train.gamma=inf",
            "train.gamma=nan",
            "train.lam=nan",
            "train.w_o=-inf",
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
        assert len(sets) == 24
        _assert_is_default(load_config(None, sets))

    def test_every_key_round_trips_through_json(self, tmp_path):
        p = tmp_path / "defaults.json"
        p.write_text(json.dumps(DEFAULT_CONFIG))
        _assert_is_default(load_config(str(p), []))

    def test_sections_are_the_dataclass_defaults(self):
        config = load_config(None, [])
        assert _section(config, "scene") == SECTIONS["scene"]()
        assert _section(config, "head", feature_dim=16) == SECTIONS["head"](feature_dim=16)
        assert _section(config, "train") == SECTIONS["train"]()

    def test_every_dataclass_field_is_settable(self):
        # feature_dim comes from the frozen model
        supplied = {"head": {"feature_dim"}}
        for section, cls in SECTIONS.items():
            fields = {f.name for f in dataclasses.fields(cls)} - supplied.get(section, set())
            assert set(DEFAULT_CONFIG[section]) == fields, section  # no key beside the fields


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
        assert read_tensor(out).shape == (32, 32)
        assert (tmp_path / "map.tnsr.txt").read_text() == "scorer=combined\nlambda=0.5\n"
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
        assert read_tensor(out).shape == (32, 32)
        assert (tmp_path / "jem.tnsr.txt").read_text() == "scorer=jem\nlambda=0.5\n"

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

    def test_each_command_records_the_sections_it_read(self, pipeline, tmp_path):
        def record(run_dir):
            text = (run_dir / "config.json").read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            return json.loads(text)

        config = load_config(None, TINY[1::2])  # the SECTION.KEY=VALUE items
        assert record(pipeline / "data") == {k: config[k] for k in ("scene", "data")}
        assert record(pipeline / "frozen") == {k: config[k] for k in ("scene", "frozen")}
        assert record(pipeline / "run") == {k: config[k] for k in ("head", "train")}
        args = ["--frozen", str(pipeline / "frozen"), "--data", str(pipeline / "data")]
        assert main(["eval", *args, "--out", str(tmp_path / "e")]) == 0
        assert record(tmp_path / "e") == {"lam": 0.5, "head": None, "frozen": args[1], "data": args[3]}
        sweep = [*TINY, "--set", "train.iterations=2"]
        assert main(["sweep", *sweep, "--out", str(tmp_path / "s"), "--param", "train.gamma", "--values", "5"]) == 0
        assert record(tmp_path / "s") == load_config(None, sweep[1::2])  # all five sections

    def test_eval_and_score_default_to_the_heads_lam(self, pipeline, tmp_path, capsys):
        world = ["--data", str(pipeline / "data"), "--frozen", str(pipeline / "frozen")]
        run = tmp_path / "run"
        assert main(["train", *TINY, "--set", "train.lam=0.25", *world, "--out", str(run)]) == 0
        manifest = (run / "head" / "head.txt").read_text().splitlines()
        assert manifest[-2:] == [
            "lam=0.25",
            "train_config=" + hashlib.sha256((run / "config.json").read_bytes()).hexdigest(),
        ]
        head = ["--head", str(run / "head"), "--frozen", str(pipeline / "frozen")]
        assert main(["eval", *head, "--data", str(pipeline / "data"), "--out", str(tmp_path / "e")]) == 0
        frozen = load_frozen(pipeline / "frozen")
        trained, lam = load_head(run / "head", frozen_digest(frozen))
        assert lam == 0.25
        eval_set = load_eval_set(pipeline / "data")
        results = evaluate(trained, frozen, eval_set, lam=0.25)
        assert results != evaluate(trained, frozen, eval_set, lam=0.5)  # the fixture tells the two apart
        write_eval_csv(results, tmp_path / "expected.csv")
        expected = (tmp_path / "expected.csv").read_text().splitlines()
        assert expected[1].startswith("combined,")
        assert expected[1] in (tmp_path / "e" / "eval.csv").read_text().splitlines()
        assert json.loads((tmp_path / "e" / "config.json").read_text())["lam"] == 0.25

        def score_sidecar(*extra):
            image = str(pipeline / "data" / "eval" / "scene_0000.ppm")
            assert main(["score", *head, "--image", image, "--out", str(tmp_path / "m.tnsr"), *extra]) == 0
            return (tmp_path / "m.tnsr.txt").read_text()

        assert score_sidecar() == "scorer=combined\nlambda=0.25\n"
        assert score_sidecar("--lam", "0.5") == "scorer=combined\nlambda=0.5\n"  # an explicit --lam wins
        _edit_manifest(run / "head", "lam=0.25\n", "")  # as written before lam was recorded
        image = str(pipeline / "data" / "eval" / "scene_0000.ppm")
        assert main(["score", *head, "--image", image, "--out", str(tmp_path / "lamless.tnsr")]) == 3
        assert "artifact error" in capsys.readouterr().err
        assert not (tmp_path / "lamless.tnsr").exists()


    def test_heatmap_directory_is_created(self, pipeline, tmp_path):
        heatmap = tmp_path / "new" / "heat.pgm"
        image = pipeline / "data" / "eval" / "scene_0000.ppm"
        argv = ["--frozen", str(pipeline / "frozen"), "--image", str(image), "--scorer", "jem"]
        assert main(["score", *argv, "--out", str(tmp_path / "s.tnsr"), "--heatmap", str(heatmap)]) == 0
        assert read_pgm(heatmap).shape == (32, 32)


def _unknown_part(key):
    """What an error names for a key that is no longer in the schema: the key,
    or its whole section once that section is gone."""
    section = key.partition(".")[0]
    return key if section in DEFAULT_CONFIG else section


def _edit_manifest(head_dir, old, new):
    text = (head_dir / "head.txt").read_text()
    assert old in text
    (head_dir / "head.txt").write_text(text.replace(old, new))


def _edit_dataset_manifest(data, edit):
    manifest = json.loads((data / "manifest.json").read_text())
    edit(manifest)
    (data / "manifest.json").write_text(json.dumps(manifest))


def _mask_with_a_7(data):
    mask = read_pgm(data / "eval" / "scene_0000_anomaly.pgm").copy()
    mask[0, 0] = 7
    write_pgm(data / "eval" / "scene_0000_anomaly.pgm", mask)


def _wider_train_image(data):
    image = read_ppm(data / "train" / "scene_0001.ppm")
    write_ppm(data / "train" / "scene_0001.ppm", np.concatenate([image, image[:, :8]], axis=1))


def _append_bytes(path, data):
    path.write_bytes(path.read_bytes() + data)


# every file that train, eval or score reads, with the commands that read it
SWEEP_READERS = {
    "data/manifest.json": ("train", "eval"),
    "data/train/scene_0000.ppm": ("train",),
    "data/eval/scene_0000.ppm": ("eval", "score"),
    "data/eval/scene_0000_anomaly.pgm": ("eval",),
    **{f"frozen/{name}": ("train", "eval", "score")
       for name in ("projection.tnsr", "dec_w.tnsr", "dec_b.tnsr", "digest.txt")},
    **{f"head/{name}": ("eval", "score")
       for name in ("head.txt", "block0_w.tnsr", "block0_run_var.tnsr", "out_b.tnsr")},
}
SWEEP_MUTATIONS = {
    "empty": lambda b: b"",
    "half": lambda b: b[: len(b) // 2],
    "cut_one": lambda b: b[:-1],
    "four_zeros": lambda b: b + b"\x00" * 4,
}
SWEEP_CASES = [
    pytest.param(path, mutation, command, id=f"{path}-{mutation}-{command}")
    for path, commands in SWEEP_READERS.items()
    for mutation in (("empty", "half") if path.endswith((".txt", ".json")) else SWEEP_MUTATIONS)
    for command in commands
]


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        assert main(["gen-data", "--set", "nosuch.key=1", "--out", str(tmp_path / "d")]) == 2
        assert main(["gen-data", "--set", "scene.height=8", "--out", str(tmp_path / "d")]) == 2
        assert main(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")]) == 2

    def test_unreadable_config_is_2(self, tmp_path):
        # a file that cannot be read exits 3, except the config, which is configuration
        assert main(["gen-data", "--config", str(tmp_path), "--out", str(tmp_path / "d")]) == 2

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
                "--scorer", "jem",  # a head scorer without --head would exit 2 first
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
            lambda d: _edit_manifest(d, "blocks=2\n", "blocks=two\n"),  # no head field is a bool
            # [8, 2] holds as many values as [2, 8], so only a shape check sees it
            lambda d: write_tensor(d / "out_w.tnsr", read_tensor(d / "out_w.tnsr").reshape(-1, 2)),
            lambda d: _edit_manifest(d, "frozen_digest=", "note="),
            # lines of a head with a conv bias, naming a model this head is not
            lambda d: _edit_manifest(d, "frozen_digest=", "use_batchnorm=0\nfrozen_digest="),
            lambda d: _edit_manifest(d, "frozen_digest=", "bn_epsilon=0.001\nfrozen_digest="),
        ],
        ids=["no_hidden", "bad_bool", "out_w_shape", "no_digest", "no_batchnorm", "bn_epsilon"],
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

    def test_degenerate_training_is_4(self, pipeline, tmp_path, monkeypatch):
        # full-size square patches cover every pixel, leaving no ID set
        full_crops(monkeypatch)
        rc = main(
            [
                "train",
                *TINY,
                "--data", str(pipeline / "data"),
                "--frozen", str(pipeline / "frozen"),
                "--out", str(tmp_path / "r"),
            ]
        )
        assert rc == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "half"])
    def test_bad_recorded_lam_is_3(self, pipeline, tmp_path, value):
        head = tmp_path / "head"
        shutil.copytree(pipeline / "run" / "head", head)
        _edit_manifest(head, "lam=0.5\n", f"lam={value}\n")
        args = ["--head", str(head), "--frozen", str(pipeline / "frozen"), "--data", str(pipeline / "data")]
        assert main(["eval", *args, "--out", str(tmp_path / "e")]) == 3

    @pytest.mark.parametrize(
        "case, code",
        [("min_side", 3), ("degenerate", 4), ("diverging", 4)],
        ids=["min_side", "degenerate", "diverging"],
    )
    def test_failed_train_leaves_no_out(self, pipeline, tmp_path, capsys, monkeypatch, case, code):
        data = pipeline / "data"
        if case == "min_side":  # a well-formed dataset whose 6x6 scenes no config can crop
            data = tmp_path / "data"
            shutil.copytree(pipeline / "data", data)
            for scene in (data / "train").glob("scene_*.ppm"):
                write_ppm(scene, read_ppm(scene)[:6, :6])
            _edit_dataset_manifest(data, lambda m: m.update(height=6, width=6))
        elif case == "degenerate":
            full_crops(monkeypatch)
        else:
            monkeypatch.setattr(oodseg.trainer, "ADAM_LR", 1e300)
        world = ["--data", str(data), "--frozen", str(pipeline / "frozen")]
        assert main(["train", *TINY, *world, "--out", str(tmp_path / "r")]) == code
        assert not (tmp_path / "r").exists()
        if code == 3:
            assert "smaller than MIN_SIDE=8" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # divergence is reported, not warned about
    def test_diverging_training_is_4(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oodseg.trainer, "ADAM_LR", 1e300)
        rc = main(
            [
                "train",
                *TINY,
                "--data", str(pipeline / "data"),
                "--frozen", str(pipeline / "frozen"),
                "--out", str(tmp_path / "r"),
            ]
        )
        assert rc == 4
        assert "iteration 1: loss is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, says",
        [
            (["gen-data", "--set", "data.train_scenes=1"], "data config invalid: need >= 2 training scenes"),
            (["gen-data", "--set", "data.eval_scenes=0"], "data config invalid: need >= 1 eval scene"),
            (["fit-frozen", "--set", "frozen.feature_dim=0"], "frozen config invalid: feature_dim must be >= 1"),
            (["fit-frozen", "--set", "frozen.fit_scenes=0"], "frozen config invalid: need at least one scene"),
            (["gen-data", "--set", "data.seed=-1"], "data config invalid: seed must be >= 0"),
            (["fit-frozen", "--set", "frozen.seed=-1"], "frozen config invalid: seed must be >= 0"),
            (["train", "--set", "train.seed=-1", "--data", "d", "--frozen", "f"], "train config invalid: seed"),
            (["ablate", "--set", "data.seed=-2"], "data config invalid: seed must be >= 0"),
            (["sweep", "--param", "train.n_patches", "--values", "abc"], "'train.n_patches' must be an integer"),
            (["sweep", "--param", "train.gamma", "--values", "nan"], "'train.gamma' must be finite"),
            (["train", "--set", "train.gamma=nan", "--data", "d", "--frozen", "f"], "'train.gamma' must be finite"),
            (["eval", "--lam", "nan", "--frozen", "f", "--data", "d"], "'--lam' must be finite"),
            (["score", "--lam", "inf", "--frozen", "f", "--image", "i.ppm"], "'--lam' must be finite"),
            # the default scorer needs --head
            (["score", "--frozen", "f", "--image", "i.ppm"], "--scorer combined needs --head"),
            (["ablate", "--set", "train.seed=-1"], "train config invalid: seed"),
            (["sweep", "--set", "head.blocks=0", "--param", "train.gamma", "--values", "5"], "head config invalid: blocks"),
            (["sweep", "--param", "train.gamma", "--values", "-5"], "train config invalid: gamma"),
            (["ablate", "--set", "frozen.fit_scenes=0"], "frozen config invalid: need at least one scene"),
            (["sweep", "--set", "frozen.seed=-1", "--param", "train.gamma", "--values", "5"],
             "frozen config invalid: seed must be >= 0"),
            (["gen-data", "--set", "scene.classes=300"], "scene config invalid: need 2 to 255 classes"),
            # the head takes its feature_dim from the world's frozen model, so the frozen section is at fault
            (["ablate", "--set", "frozen.feature_dim=0"], "frozen config invalid: feature_dim must be >= 1"),
        ],
        ids=[
            "train_scenes",
            "eval_scenes",
            "feature_dim",
            "fit_scenes",
            "data_seed",
            "frozen_seed",
            "train_seed",
            "ablate_data_seed",
            "sweep_abc",
            "sweep_nan",
            "train_nan",
            "eval_lam_nan",
            "score_lam_inf",
            "score_no_head",
            "ablate_train_seed",
            "sweep_head_blocks",
            "sweep_gamma",
            "ablate_fit_scenes",
            "sweep_frozen_seed",
            "scene_classes",
            "ablate_feature_dim",
        ],
    )
    def test_bad_value_is_2(self, pipeline, tmp_path, capsys, argv, says):
        # TINY first, so that a value wrongly accepted costs a tiny run, not a desk-size one;
        # eval and score take no config.  Their missing inputs would exit 3 if read.
        # DATA and FROZEN name the pipeline's world, for values only training can reach.
        world = {"DATA": str(pipeline / "data"), "FROZEN": str(pipeline / "frozen")}
        tiny = [] if argv[0] in ("eval", "score") else TINY
        argv = [world.get(a, a) for a in argv]
        assert main([argv[0], *tiny, *argv[1:], "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()  # every value is checked before anything is written
        assert f"config error: {says}" in capsys.readouterr().err  # and the message names its section or key

    @pytest.mark.parametrize(
        "key",
        [
            "head.use_batchnorm",
            "head.bn_epsilon",
            "train.beta1",
            "train.beta2",
            "train.adam_eps",
            "patch.harris_k",
            "patch.harris_sigma",
            "frozen.ridge_lambda",
            "train.timing",
            "patch.harris_thresh_frac",
            "patch.harris_nms_radius",
            "patch.min_side",
            "patch.crop_max_div",
            "patch.policy",
            "train.lr",
        ],
    )
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        # these were settable once; each is now a constant of the program, or gone
        section, name = key.split(".")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({section: {name: 1}}))
        for args in (["--set", f"{key}=1"], ["--config", str(config)]):
            assert main(["gen-data", *args, "--out", str(tmp_path / "d")]) == 2
            assert f"unknown config key {_unknown_part(key)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expr",
        [
            "scene.noise=0.03",
            "scene.shapes_min=3",
            "scene.shapes_max=6",
            "scene.anomaly_shapes_min=1",
            "scene.anomaly_shapes_max=3",
            "head.bn_momentum=0.9",
            "train.max_abort_frac=0.1",
            "patch.crop_min_div=16",
        ],
    )
    def test_constant_is_not_a_key(self, tmp_path, capsys, expr):
        # each took its constant's value here when it was a key; no run set another
        assert main(["gen-data", *TINY, "--set", expr, "--out", str(tmp_path / "d")]) == 2
        assert f"unknown config key {_unknown_part(expr.partition('=')[0])!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda m: {"projection": np.hstack([m.projection, m.projection[:, :1]])},  # [D, 30]
            lambda m: {"dec_w": m.dec_w[:, :5]},  # [K, 5] beside a D-row projection
        ],
        ids=["projection_cols", "dec_w_cols"],
    )
    def test_frozen_shapes_that_disagree_are_3(self, pipeline, tmp_path, capsys, reshape):
        model = load_frozen(pipeline / "frozen")
        save_frozen(dataclasses.replace(model, **reshape(model)), tmp_path / "frozen")  # the digest matches
        world = ["--frozen", str(tmp_path / "frozen"), "--data", str(pipeline / "data")]
        assert main(["eval", *world, "--out", str(tmp_path / "e")]) == 3
        assert "tnsr has shape" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, corrupt, code",
        [
            ("score", lambda t: _append_bytes(t / "head" / "head.txt", b"note=\xff\n"), 3),
            ("eval", lambda t: (t / "frozen" / "digest.txt").write_bytes(b"\xff\xfe"), 3),
            ("gen-data", lambda t: (t / "c.json").write_bytes(b"{}\xff"), 2),
        ],
        ids=["head_txt", "digest_txt", "config"],
    )
    def test_text_that_is_not_utf8(self, pipeline, tmp_path, command, corrupt, code):
        # an artifact exits 3 and the config 2, each without a traceback
        shutil.copytree(pipeline / "run" / "head", tmp_path / "head")
        shutil.copytree(pipeline / "frozen", tmp_path / "frozen")
        corrupt(tmp_path)
        frozen, image = str(tmp_path / "frozen"), str(pipeline / "data" / "eval" / "scene_0000.ppm")
        argv = {
            "score": ["--head", str(tmp_path / "head"), "--frozen", frozen, "--image", image],
            "eval": ["--frozen", frozen, "--data", str(pipeline / "data")],
            "gen-data": [*TINY, "--config", str(tmp_path / "c.json")],
        }
        assert main([command, *argv[command], "--out", str(tmp_path / "o")]) == code


    @pytest.mark.parametrize(
        "command, corrupt",
        [
            ("eval", lambda d: (d / "manifest.json").write_text("{")),
            ("eval", lambda d: (d / "manifest.json").write_text("[]")),
            ("eval", lambda d: _edit_dataset_manifest(d, lambda m: m.pop("n_eval"))),
            ("eval", lambda d: _edit_dataset_manifest(d, lambda m: m.update(n_eval="2"))),
            ("eval", _mask_with_a_7),
            ("eval", lambda d: write_pgm(d / "eval" / "scene_0000_anomaly.pgm", np.zeros((16, 16), np.uint8))),
            ("train", _wider_train_image),  # 32x40 among 32x32 scenes
        ],
        ids=["not_json", "list", "no_n_eval", "n_eval_string", "mask_value_7", "mask_shape", "mixed_train_size"],
    )
    def test_bad_dataset_is_3(self, pipeline, tmp_path, command, corrupt):
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        corrupt(data)
        world = ["--data", str(data), "--frozen", str(pipeline / "frozen"), "--out", str(tmp_path / "o")]
        assert main(["train", *TINY, *world] if command == "train" else ["eval", *world]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "gen-data"])
    def test_unwritable_out_is_3(self, pipeline, tmp_path, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran before --out was checked")

        monkeypatch.setattr(oodseg.cli, "train", no_training)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"  # a path under a regular file
        world = ["--data", str(pipeline / "data"), "--frozen", str(pipeline / "frozen")]
        argv = {"train": ["train", *TINY, *world], "eval": ["eval", *world], "gen-data": ["gen-data", *TINY]}
        assert main([*argv[command], "--out", str(out)]) == 3
        assert not out.exists()


    @pytest.mark.parametrize("command", ["score", "eval"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_head_is_3(self, pipeline, tmp_path, capsys, command, value):
        head = tmp_path / "head"
        shutil.copytree(pipeline / "run" / "head", head)
        w = read_tensor(head / "block0_w.tnsr")
        w.reshape(-1)[-1] = value
        write_tensor(head / "block0_w.tnsr", w)
        args = ["--head", str(head), "--frozen", str(pipeline / "frozen")]
        out = tmp_path / "o"
        if command == "score":
            image = str(pipeline / "data" / "eval" / "scene_0000.ppm")
            args += ["--image", image, "--out", str(out / "map.tnsr"), "--heatmap", str(out / "map.pgm")]
        else:
            args += ["--data", str(pipeline / "data"), "--out", str(out)]
        assert main([command, *args]) == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_head_over_other_features_is_3(self, pipeline, tmp_path, capsys, command):
        """A head whose feature_dim is not the frozen model's loads (its shapes
        agree with its own manifest and its frozen digest matches) but cannot
        read the frozen features, so it is a bad artifact, not a crash."""
        head = tmp_path / "head"
        shutil.copytree(pipeline / "run" / "head", head)
        dim = load_frozen(pipeline / "frozen").feature_dim
        manifest = (head / "head.txt").read_text()
        assert manifest.startswith(f"feature_dim={dim}\n")
        (head / "head.txt").write_text(manifest.replace(f"feature_dim={dim}\n", f"feature_dim={dim // 2}\n"))
        w = read_tensor(head / "block0_w.tnsr")
        write_tensor(head / "block0_w.tnsr", np.ascontiguousarray(w[:, : dim // 2]))
        args = ["--head", str(head), "--frozen", str(pipeline / "frozen")]
        out = tmp_path / "o"
        if command == "score":
            image = str(pipeline / "data" / "eval" / "scene_0000.ppm")
            args += ["--image", image, "--out", str(out / "map.tnsr"), "--heatmap", str(out / "map.pgm")]
        else:
            args += ["--data", str(pipeline / "data"), "--out", str(out)]
        assert main([command, *args]) == 3
        err = capsys.readouterr().err
        assert f"head takes feature_dim={dim // 2}, frozen model gives {dim}" in err
        assert not out.exists()

    def test_tensor_with_trailing_bytes_is_3(self, pipeline, tmp_path, capsys):
        shutil.copytree(pipeline / "frozen", tmp_path / "frozen")
        _append_bytes(tmp_path / "frozen" / "dec_b.tnsr", b"\x00" * 4)  # the digest hashes parsed arrays
        image = str(pipeline / "data" / "eval" / "scene_0000.ppm")
        argv = ["score", "--frozen", str(tmp_path / "frozen"), "--image", image, "--scorer", "jem"]
        assert main([*argv, "--out", str(tmp_path / "o" / "jem.tnsr")]) == 3
        assert "past the" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, mutation, command", SWEEP_CASES)
    def test_corruption_sweep_is_3(self, pipeline, tmp_path, capsys, path, mutation, command):
        """A text file emptied or halved, or a binary one also cut by a byte or
        given 4 zero bytes, exits 3 from every command that reads it and writes
        nothing.  Payload bit flips are left out: no head tensor or dataset
        scene carries a digest yet that could catch them.  NaN head tensors
        are ``test_non_finite_head_is_3``'s."""
        for name, src in (("data", "data"), ("frozen", "frozen"), ("head", "run/head")):
            shutil.copytree(pipeline / src, tmp_path / name)
        target = tmp_path / path
        target.write_bytes(SWEEP_MUTATIONS[mutation](target.read_bytes()))
        out = tmp_path / "o"  # --out, and score's --heatmap
        data, world = str(tmp_path / "data"), ["--frozen", str(tmp_path / "frozen")]
        head = ["--head", str(tmp_path / "head"), *world]
        argv = {
            "train": ["train", *TINY, "--data", data, *world, "--out", str(out)],
            "eval": ["eval", *head, "--data", data, "--out", str(out)],
            "score": ["score", *head, "--image", str(tmp_path / "data" / "eval" / "scene_0000.ppm"),
                      "--out", str(out / "map.tnsr"), "--heatmap", str(out / "map.pgm")],
        }
        assert main(argv[command]) == 3
        assert "artifact error" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    """``main`` parses every call with one parser, built once per process."""

    def test_set_does_not_carry_over(self, pipeline, tmp_path):
        world = ["--data", str(pipeline / "data"), "--frozen", str(pipeline / "frozen")]
        sets = ["--set", "train.iterations=3", "--set", "train.seed=5"]
        assert main(["train", *TINY, *sets, *world, "--out", str(tmp_path / "a")]) == 0
        assert main(["train", *TINY, *world, "--out", str(tmp_path / "b")]) == 0
        echoed = json.loads((tmp_path / "b" / "config.json").read_text())["train"]
        assert echoed["iterations"] == 4  # TINY's
        assert echoed["seed"] == DEFAULT_CONFIG["train"]["seed"]

    def test_good_call_after_a_parse_error(self, pipeline, tmp_path):
        argv = ["score", "--frozen", str(pipeline / "frozen"), "--scorer", "jem",
                "--image", str(pipeline / "data" / "eval" / "scene_0000.ppm"), "--out", str(tmp_path / "m.tnsr")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-such-flag"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["score", "--scorer", "nope"])
        assert exc.value.code == 2
        assert main(argv) == 0
        assert read_tensor(tmp_path / "m.tnsr").shape == (32, 32)

    @pytest.mark.parametrize(
        "argv",
        [["score", "--frozen", "f", "--image", "i", "--out", "o"], ["gen-data", "--out", "o"]],
        ids=["score", "gen-data"],
    )
    def test_command_is_looked_up_when_called(self, monkeypatch, argv):
        # a benchmark tracer rebinds cmd_* after the first parse; the rebound one must run
        name = "cmd_" + argv[0].replace("-", "_")
        calls = []
        monkeypatch.setattr(oodseg.cli, name, lambda args: calls.append(args) or 0)
        assert main(argv) == 0
        assert [(a.command, a.out) for a in calls] == [(argv[0], "o")]


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

    @pytest.mark.parametrize(
        "param, values, first, second",
        [
            ("train.gamma", ["5", "15"], "train.gamma,5.0,", "train.gamma,15.0,"),
            ("head.kernel_size", ["1", "3"], "head.kernel_size,1,", "head.kernel_size,3,"),
            ("train.seed", ["0", "1"], "train.seed,0,", "train.seed,1,"),
        ],
        ids=["train_gamma", "head_kernel_size", "train_seed"],
    )
    def test_sweep(self, tmp_path, param, values, first, second):
        out = tmp_path / "sweep"
        rc = main(["sweep", *TINY, "--out", str(out), "--param", param, "--values", *values])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,ap,auroc,fpr95"
        assert len(lines) == 3
        assert lines[1].startswith(first)
        assert lines[2].startswith(second)
        if param == "head.kernel_size":  # a head key reaches the trained head
            assert lines[1].split(",")[2:] != lines[2].split(",")[2:]

    def test_sweep_patches_values_are_integers(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", *TINY, "--out", str(out), "--param", "train.n_patches", "--values", "2", "3"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["train.n_patches", "2"], ["train.n_patches", "3"]]

    def test_sweep_unknown_param_is_2(self, tmp_path, capsys):
        # not a key, the old aliases, keys of the sections the world is built from,
        # a head key that the frozen model sets, and an unknown train key
        for param in ("depth", "gamma", "lambda", "patches", "scene.height", "data.seed", "frozen.seed",
                      "head.feature_dim", "train.depth"):
            rc = main(["sweep", *TINY, "--out", str(tmp_path / "s"), "--param", param, "--values", "1"])
            assert rc == 2, param
            assert not (tmp_path / "s").exists(), param
            assert f"--param must be a key of the train or head section, got {param!r}" in capsys.readouterr().err
