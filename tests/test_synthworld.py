"""Scene generator and frozen encoder/decoder tests."""

import numpy as np
import pytest

from oodseg.tensorio import IGNORE
from oodseg.synthworld import (
    NEIGHBORHOOD,
    ArtifactError,
    FrozenModel,
    SceneSpec,
    decoder_accuracy,
    export_dataset,
    fit_frozen_decoder,
    frozen_digest,
    frozen_encoder,
    generate_scene,
    load_eval_set,
    load_frozen,
    load_manifest,
    load_train_images,
    save_frozen,
    seg_logits_map,
)

SPEC = SceneSpec(height=32, width=32, classes=3)


def tiny_model(seed=5):
    return fit_frozen_decoder(SPEC, feature_dim=8, n_scenes=20, seed=seed)


class TestSceneSpec:
    def test_defaults_valid(self):
        SceneSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"height": 8},
            {"width": 15},
            {"classes": 1},
            {"noise": 0.5},
            {"noise": -0.1},
            {"shapes_min": 4, "shapes_max": 2},
            {"anomaly_shapes_min": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SceneSpec(**kwargs)


class TestGenerateScene:
    def test_shapes_and_dtypes(self):
        image, labels, anomaly = generate_scene(SPEC, np.random.default_rng(0))
        assert image.shape == (32, 32, 3) and image.dtype == np.uint8
        assert labels.shape == (32, 32) and labels.dtype == np.uint8
        assert anomaly.shape == (32, 32) and anomaly.dtype == np.bool_

    def test_training_mode_has_no_anomalies(self):
        for seed in range(10):
            _, labels, anomaly = generate_scene(SPEC, np.random.default_rng(seed))
            assert not anomaly.any()
            assert labels.max() < SPEC.classes

    def test_anomaly_mode_marks_ignore(self):
        for seed in range(10):
            _, labels, anomaly = generate_scene(
                SPEC, np.random.default_rng(seed), anomalies=True
            )
            assert anomaly.any()
            np.testing.assert_array_equal(labels == IGNORE, anomaly)

    def test_every_class_is_drawn(self):
        spec = SceneSpec(height=32, width=32, classes=4, shapes_min=5, shapes_max=5)
        for seed in range(10):
            _, labels, _, shapes = generate_scene(
                spec, np.random.default_rng(seed), return_shapes=True
            )
            assert len(shapes) == 5
            assert {cls for cls, _ in shapes} == {1, 2, 3}
            union = np.zeros((32, 32), dtype=bool)
            for _, mask in shapes:
                union |= mask
            np.testing.assert_array_equal(labels > 0, union)

    def test_deterministic(self):
        a = generate_scene(SPEC, np.random.default_rng(3), anomalies=True)
        b = generate_scene(SPEC, np.random.default_rng(3), anomalies=True)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestFrozenEncoder:
    def test_descriptor_layout(self):
        # hand-check one interior pixel: 3x3 window row-major, channels
        # innermost, then x/W and y/H
        rng = np.random.default_rng(7)
        image = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        proj = np.eye(NEIGHBORHOOD)
        model = FrozenModel(projection=proj, dec_w=np.zeros((2, NEIGHBORHOOD)), dec_b=np.zeros(2))
        feats = frozen_encoder(model, image)
        assert feats.shape == (NEIGHBORHOOD, 6, 5)
        i, j = 3, 2
        expect = [
            image[i + dy, j + dx, c] / 255.0
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            for c in range(3)
        ]
        expect += [j / 5.0, i / 6.0]
        np.testing.assert_allclose(feats[:, i, j], expect, atol=1e-12)

    def test_edge_replication(self):
        image = np.zeros((4, 4, 3), dtype=np.uint8)
        image[0, 0] = 255
        proj = np.eye(NEIGHBORHOOD)
        model = FrozenModel(projection=proj, dec_w=np.zeros((2, NEIGHBORHOOD)), dec_b=np.zeros(2))
        feats = frozen_encoder(model, image)
        # at the corner the out-of-bounds taps replicate the corner pixel
        corner = feats[:27, 0, 0].reshape(3, 3, 3)
        np.testing.assert_array_equal(corner[:2, :2], 1.0)
        assert corner[2, 2, 0] == 0.0

    def test_seg_logits_affine(self):
        model = tiny_model()
        image, _, _ = generate_scene(SPEC, np.random.default_rng(1))
        feats = frozen_encoder(model, image)
        logits = seg_logits_map(model, feats)
        assert logits.shape == (3, 32, 32)
        i, j = 10, 20
        expect = model.dec_w @ feats[:, i, j] + model.dec_b
        np.testing.assert_allclose(logits[:, i, j], expect, atol=1e-12)


class TestFitFrozenDecoder:
    def test_projection_seeding(self):
        model = tiny_model(seed=5)
        expect = np.random.default_rng([5, 0]).standard_normal((8, NEIGHBORHOOD))
        expect /= np.sqrt(NEIGHBORHOOD)
        np.testing.assert_array_equal(model.projection, expect)

    def test_deterministic(self):
        assert frozen_digest(tiny_model()) == frozen_digest(tiny_model())

    def test_accuracy_on_fresh_scenes(self):
        acc = decoder_accuracy(tiny_model(), SPEC, n_scenes=10)
        assert acc > 0.9

    def test_large_ridge_shrinks_weights(self):
        small = fit_frozen_decoder(SPEC, feature_dim=8, n_scenes=5, ridge_lam=1e-2, seed=5)
        big = fit_frozen_decoder(SPEC, feature_dim=8, n_scenes=5, ridge_lam=1e6, seed=5)
        assert np.abs(big.dec_w).max() < 1e-3 * np.abs(small.dec_w).max()

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_frozen_decoder(SPEC, feature_dim=0)
        with pytest.raises(ValueError):
            fit_frozen_decoder(SPEC, n_scenes=0)


class TestFrozenPersistence:
    def test_round_trip(self, tmp_path):
        model = tiny_model()
        digest = save_frozen(model, tmp_path / "frozen")
        loaded = load_frozen(tmp_path / "frozen")
        assert frozen_digest(loaded) == digest
        np.testing.assert_array_equal(loaded.projection, model.projection)
        np.testing.assert_array_equal(loaded.dec_w, model.dec_w)
        np.testing.assert_array_equal(loaded.dec_b, model.dec_b)

    def test_digest_sensitive_to_values(self):
        model = tiny_model()
        other = FrozenModel(
            projection=model.projection.copy(),
            dec_w=model.dec_w + 1e-12,
            dec_b=model.dec_b,
        )
        assert frozen_digest(model) != frozen_digest(other)
        assert len(frozen_digest(model)) == 64

    def test_corrupt_digest_rejected(self, tmp_path):
        save_frozen(tiny_model(), tmp_path / "frozen")
        (tmp_path / "frozen" / "digest.txt").write_text("0" * 64 + "\n")
        with pytest.raises(ArtifactError):
            load_frozen(tmp_path / "frozen")

    def test_missing_file_rejected(self, tmp_path):
        save_frozen(tiny_model(), tmp_path / "frozen")
        (tmp_path / "frozen" / "dec_w.tnsr").unlink()
        with pytest.raises(ArtifactError):
            load_frozen(tmp_path / "frozen")


class TestDatasetExport:
    def test_round_trip(self, tmp_path):
        export_dataset(SPEC, n_train=3, n_eval=2, out_dir=tmp_path / "data", seed=11)
        manifest = load_manifest(tmp_path / "data")
        assert manifest["n_train"] == 3 and manifest["n_eval"] == 2
        assert manifest["height"] == 32 and manifest["classes"] == 3

        images = load_train_images(tmp_path / "data")
        assert len(images) == 3
        for i, img in enumerate(images):
            expect, _, _ = generate_scene(SPEC, np.random.default_rng([11, 2, i]))
            np.testing.assert_array_equal(img, expect)

        pairs = load_eval_set(tmp_path / "data")
        assert len(pairs) == 2
        for i, (img, mask) in enumerate(pairs):
            expect_img, _, expect_anom = generate_scene(
                SPEC, np.random.default_rng([11, 3, i]), anomalies=True
            )
            np.testing.assert_array_equal(img, expect_img)
            np.testing.assert_array_equal(mask, expect_anom.astype(np.uint8))
            assert set(np.unique(mask)) <= {0, 1}

    def test_smaller_export_deletes_stale_scenes(self, tmp_path):
        out = tmp_path / "data"
        export_dataset(SPEC, n_train=5, n_eval=3, out_dir=out, seed=11)
        (out / "train" / "notes.txt").write_text("kept")
        export_dataset(SPEC, n_train=3, n_eval=2, out_dir=out, seed=11)
        expect = sorted(f"scene_{i:04d}{suffix}" for i in range(3) for suffix in (".ppm", "_labels.pgm"))
        assert sorted(p.name for p in (out / "train").glob("scene_*")) == expect
        assert (out / "train" / "notes.txt").read_text() == "kept"
        assert len(list((out / "eval").glob("scene_*"))) == 2 * 3

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            export_dataset(SPEC, n_train=1, n_eval=1, out_dir=tmp_path / "d1")
        with pytest.raises(ValueError):
            export_dataset(SPEC, n_train=2, n_eval=0, out_dir=tmp_path / "d2")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_manifest(tmp_path)
