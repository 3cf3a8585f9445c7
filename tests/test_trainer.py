"""Training loop tests at miniature scale: determinism, logging, evaluation."""

import copy
import dataclasses

import numpy as np
import pytest

from oodseg.estimators import SCORERS, jem_map
from oodseg.head import HeadConfig, head_init
import oodseg.estimators
import oodseg.head
import oodseg.trainer
from oodseg.losses import DegeneratePartitionError, batch_total_loss
import oodseg.patches
from oodseg.patches import donor_corners, synth_pasted_scene
from oodseg.synthworld import (
    SceneSpec,
    fit_frozen_decoder,
    frozen_digest,
    generate_scene,
)
from oodseg.tensorio import IGNORE
from oodseg.trainer import (
    AdamState,
    TrainConfig,
    TrainingAbortedError,
    TrainingDivergedError,
    evaluate,
    train,
    write_eval_csv,
    write_trainlog_csv,
)
from test_head import keeps_numpy_state

SPEC = SceneSpec(height=32, width=32, classes=3)
HEAD_CFG = HeadConfig(feature_dim=8, blocks=2, hidden=8)


@pytest.fixture(scope="module")
def frozen():
    return fit_frozen_decoder(SPEC, feature_dim=8, n_scenes=20, seed=5)


@pytest.fixture(scope="module")
def images():
    return [generate_scene(SPEC, np.random.default_rng([1, i]))[0] for i in range(4)]


@pytest.fixture(scope="module")
def eval_set():
    out = []
    for i in range(3):
        img, _, anom = generate_scene(SPEC, np.random.default_rng([2, i]), anomalies=True)
        out.append((img, anom.astype(np.uint8)))
    return out


def full_crops(monkeypatch):
    """Every crop is a whole 32x32 donor and stays a rectangle (no Harris
    response reaches twice the peak), so pasted patches cover every pixel."""
    monkeypatch.setattr(oodseg.patches, "MIN_SIDE", 32)
    monkeypatch.setattr(oodseg.patches, "CROP_MAX_DIV", 1)
    monkeypatch.setattr(oodseg.patches, "HARRIS_THRESH_FRAC", 2.0)


def count_jem_maps(monkeypatch) -> list:
    """Wrap ``jem_map`` where the trainer and the estimators call it; the
    returned list grows by one entry per call."""
    calls = []

    def counting(seg_logits):
        calls.append(np.shape(seg_logits))
        return jem_map(seg_logits)

    monkeypatch.setattr(oodseg.estimators, "jem_map", counting)
    monkeypatch.setattr(oodseg.trainer, "jem_map", counting)
    return calls


def tiny_cfg(**kwargs):
    base = dict(
        iterations=6,
        batch_size=2,
        warmup_iters=3,
        n_patches=2,
        gamma=5.0,
        seed=0,
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"batch_size": 0},
            {"n_patches": 0},
            {"warmup_iters": -1},
            {"gamma": -1.0},
            {"w_o": -0.5},
            {"refine_mode": "fixed"},
            {"margin": "soft"},
            {"w_a": -0.5},
            {"seed": -1},
            {"gamma": float("inf")},
            {"lam": float("inf")},
            {"lam": float("nan")},
            {"w_a": float("nan")},
            {"w_o": float("inf")},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestAdam:
    def test_constant_gradient_steps_by_lr(self):
        # with bias correction a constant gradient g gives m-hat = g and
        # v-hat = g*g at every step, so each update is ADAM_LR * g / (|g| + eps)
        params = head_init(HeadConfig(feature_dim=3, blocks=1, hidden=2), seed=0)
        adam = AdamState(params)
        grads = {name: np.full_like(arr, 2.0) for name, arr in params.trainable()}
        before = {name: arr.copy() for name, arr in params.trainable()}
        expected_delta = oodseg.trainer.ADAM_LR * 2.0 / (2.0 + oodseg.trainer.ADAM_EPS)
        for step in range(1, 3):
            adam.step(params, grads)
            for name, arr in params.trainable():
                np.testing.assert_allclose(
                    before[name] - arr, step * expected_delta, atol=1e-12
                )


class TestTrain:
    def test_tiny_run_logs_every_iteration(self, frozen, images):
        with keeps_numpy_state():
            head, log = train(images, frozen, tiny_cfg(), head_config=HEAD_CFG)
        assert len(log.records) + log.aborted == 6
        assert log.aborted == 0
        for i, rec in enumerate(log.records):
            assert rec.iteration == i
            assert rec.n_ood > 0
            assert np.isfinite(rec.eta)
            assert rec.ms > 0.0
        init = head_init(HEAD_CFG, seed=0)
        moved = any(
            not np.array_equal(arr, dict(init.trainable())[name])
            for name, arr in head.trainable()
        )
        assert moved

    def test_deterministic(self, frozen, images, tmp_path):
        runs = {}
        for tag in ("a", "b"):
            head, log = train(images, frozen, tiny_cfg(), head_config=HEAD_CFG)
            path = tmp_path / f"{tag}.csv"
            write_trainlog_csv(log, path)
            runs[tag] = (head, path.read_bytes())
        assert runs["a"][1] == runs["b"][1]
        for name, arr in runs["a"][0].trainable():
            np.testing.assert_array_equal(arr, dict(runs["b"][0].trainable())[name])

    def test_bytes_do_not_depend_on_buffer_size(self, frozen, monkeypatch):
        # the loop's ufunc buffer size only decides whether numpy copies
        # operands through its buffer, never what a ufunc computes
        spec = SceneSpec(height=64, width=64, classes=3)
        scenes = [generate_scene(spec, np.random.default_rng([3, i]))[0] for i in range(3)]
        runs, asked, derive = [], [], oodseg.head.ufunc_buffer_size
        for size in (None, 8192, 16):  # None: the size the loop derives, 64 * 64
            def buffer_size(pixels, size=size):
                asked.append(pixels)
                return derive(pixels) if size is None else size
            monkeypatch.setattr(oodseg.head, "ufunc_buffer_size", buffer_size)
            head, log = train(scenes, frozen, tiny_cfg(iterations=4, warmup_iters=2), head_config=HEAD_CFG)
            assert log.aborted == 0
            records = [dataclasses.replace(r, ms=0.0) for r in log.records]
            runs.append(([(name, arr.tobytes()) for name, arr in head.arrays()], records))
        assert asked == [64 * 64] * 3 and derive(64 * 64) == 64 * 64
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_frozen_model_untouched(self, frozen, images):
        before = frozen_digest(frozen)
        train(images, frozen, tiny_cfg(iterations=2), head_config=HEAD_CFG)
        assert frozen_digest(frozen) == before

    def test_frozen_model_change_is_caught(self, frozen, images, monkeypatch):
        model = copy.deepcopy(frozen)
        encode = oodseg.trainer.frozen_encoder

        def nudging(m, image):
            m.dec_b[0] += 1.0  # one frozen value changes in place
            return encode(m, image)

        monkeypatch.setattr(oodseg.trainer, "frozen_encoder", nudging)
        with pytest.raises(RuntimeError, match="frozen model changed during training"):
            train(images, model, tiny_cfg(iterations=2), head_config=HEAD_CFG)

    def test_warmup_changes_refinement(self, frozen, images, tmp_path):
        _, log_w = train(images, frozen, tiny_cfg(warmup_iters=6), head_config=HEAD_CFG)
        _, log_n = train(images, frozen, tiny_cfg(warmup_iters=0), head_config=HEAD_CFG)
        write_trainlog_csv(log_w, tmp_path / "w.csv")
        write_trainlog_csv(log_n, tmp_path / "n.csv")
        assert (tmp_path / "w.csv").read_bytes() != (tmp_path / "n.csv").read_bytes()

    def test_needs_two_images(self, frozen, images):
        with pytest.raises(ValueError):
            train(images[:1], frozen, tiny_cfg())

    def test_head_channel_mismatch(self, frozen, images):
        with pytest.raises(ValueError):
            train(images, frozen, tiny_cfg(), head_config=HeadConfig(feature_dim=5))

    def test_aborts_when_no_patch_fits(self, frozen, images):
        # a giant donor only yields crops wider than the small target, so
        # every patch is skipped whenever the small image is the target
        big = np.zeros((600, 600, 3), dtype=np.uint8)
        mixed = [images[0], big]
        with pytest.raises(TrainingAbortedError), keeps_numpy_state():
            train(mixed, frozen, tiny_cfg(iterations=8), head_config=HEAD_CFG)

    def test_abort_tolerance(self, frozen, images, monkeypatch):
        monkeypatch.setattr(oodseg.trainer, "MAX_ABORT_FRAC", 1.0)
        big = np.zeros((600, 600, 3), dtype=np.uint8)
        mixed = [images[0], big]
        head, log = train(mixed, frozen, tiny_cfg(iterations=8), head_config=HEAD_CFG)
        assert log.aborted > 0
        assert len(log.records) == 8 - log.aborted

    def test_aborted_iterations_leave_head_untouched(self, frozen, images, monkeypatch):
        monkeypatch.setattr(oodseg.trainer, "MAX_ABORT_FRAC", 1.0)
        # full-size square patches cover every pixel: no ID set, so the
        # pooled-set check aborts every iteration
        runs = [(images, tiny_cfg(iterations=3, warmup_iters=0), full_crops)]
        # a giant donor's crops never fit the small target, so its pasted
        # region is empty: refinement aborts after the slot's train-mode forward
        big = np.zeros((600, 600, 3), dtype=np.uint8)
        runs.append(([images[0], big], tiny_cfg(iterations=3, batch_size=4, warmup_iters=0), lambda mp: None))
        init = head_init(HEAD_CFG, seed=0)
        for train_images, cfg, constants in runs:
            with monkeypatch.context() as mp:
                constants(mp)
                head, log = train(train_images, frozen, cfg, head_config=HEAD_CFG)
            assert log.aborted == 3 and not log.records
            for blk, blk0 in zip(head.blocks, init.blocks):
                np.testing.assert_array_equal(blk.run_mean, blk0.run_mean)
                np.testing.assert_array_equal(blk.run_var, blk0.run_var)
            for (name, arr), (_, arr0) in zip(head.trainable(), init.trainable()):
                np.testing.assert_array_equal(arr, arr0, err_msg=name)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # divergence is reported, not warned about
    @pytest.mark.parametrize(
        "warmup_iters, what", [(3, "loss"), (0, "refinement score")], ids=["warmup_loss", "score"]
    )
    def test_divergence_names_the_iteration(self, frozen, images, monkeypatch, warmup_iters, what):
        # the first step throws the weights past float32 range; the next
        # iteration must stop before refinement or Adam sees the result
        monkeypatch.setattr(oodseg.trainer, "ADAM_LR", 1e300)
        cfg = tiny_cfg(warmup_iters=warmup_iters)
        with pytest.raises(TrainingDivergedError, match=f"^iteration 1: {what} is not finite$"):
            with keeps_numpy_state():
                train(images, frozen, cfg, head_config=HEAD_CFG)

    def test_non_finite_gradient_stops_before_any_update(self, frozen, images, monkeypatch):
        seen = []

        def nan_backward(head, cache, grad_logits):
            if not seen:  # the head as the iteration found it
                seen.append((head, [(name, arr.copy()) for name, arr in head.arrays()]))
            grads = oodseg.head.head_backward(head, cache, grad_logits)
            grads["out.b"][0] = np.nan
            return grads

        monkeypatch.setattr(oodseg.trainer, "head_backward", nan_backward)
        with pytest.raises(TrainingDivergedError, match="^iteration 0: gradient is not finite$"):
            with keeps_numpy_state():
                train(images, frozen, tiny_cfg(), head_config=HEAD_CFG)
        head, before = seen[0]
        for (name, arr), (_, arr0) in zip(head.arrays(), before):  # BN running statistics included
            np.testing.assert_array_equal(arr, arr0, err_msg=name)

    def test_batch_may_mix_shapes(self, frozen, monkeypatch):
        # the loss takes a batch slot by slot, so its scenes need not share a shape
        shapes = [(64, 64)] * 3 + [(64, 72), (48, 64)]
        scenes = [generate_scene(SceneSpec(height=h, width=w, classes=3), np.random.default_rng([4, i]))[0]
                  for i, (h, w) in enumerate(shapes)]
        batches = []

        def spy(items, *args):
            batches.append({logits.shape for logits, _, _ in items})
            return batch_total_loss(items, *args)

        monkeypatch.setattr(oodseg.trainer, "batch_total_loss", spy)
        cfg = tiny_cfg(iterations=10, batch_size=4, warmup_iters=5)
        _, log = train(scenes, frozen, cfg, head_config=HEAD_CFG)
        assert len(log.records) + log.aborted == cfg.iterations
        assert all(np.isfinite([r.l_a, r.l_o]).all() for r in log.records)
        assert max(len(b) for b in batches) > 1

    def test_crops_take_their_donors_corners(self, frozen, images, monkeypatch):
        # the target leaves the donor list and shifts the donors after it;
        # each donor's corners must shift with it
        calls = []

        def spy(target, donors, n_patches, rng, corners):
            calls.append((target, donors, corners))
            return synth_pasted_scene(target, donors, n_patches, rng, corners)

        monkeypatch.setattr(oodseg.trainer, "synth_pasted_scene", spy)
        train(images, frozen, tiny_cfg(iterations=3), head_config=HEAD_CFG)
        index = {id(image): i for i, image in enumerate(images)}
        target_before_donor = set()
        for target, donors, corners in calls:
            assert len(donors) == len(corners) == len(images) - 1
            for donor, pts in zip(donors, corners):
                np.testing.assert_array_equal(pts, donor_corners(donor))
                target_before_donor.add(index[id(target)] < index[id(donor)])
        assert target_before_donor == {True, False}
        assert len({tuple(map(tuple, donor_corners(image))) for image in images}) == len(images)

    def test_degenerate_partitions_abort_inside_the_loss(self, frozen, images, monkeypatch):
        # the loss's own pooled-set check aborts the iteration, so a caller
        # that watches the loss (a profiler span) sees every abort
        raised = []

        def spy(*args, **kwargs):
            try:
                return batch_total_loss(*args, **kwargs)
            except DegeneratePartitionError:
                raised.append(True)
                raise

        monkeypatch.setattr(oodseg.trainer, "batch_total_loss", spy)
        monkeypatch.setattr(oodseg.trainer, "MAX_ABORT_FRAC", 1.0)
        full_crops(monkeypatch)
        _, log = train(images, frozen, tiny_cfg(iterations=3, warmup_iters=0), head_config=HEAD_CFG)
        assert log.aborted == len(raised) == 3

    def test_one_free_energy_map_per_slot(self, frozen, images, monkeypatch):
        # the warmup score and, after warmup, the combined score read the
        # slot's one jem map
        calls = count_jem_maps(monkeypatch)
        cfg = tiny_cfg(iterations=2, warmup_iters=1)
        _, log = train(images, frozen, cfg, head_config=HEAD_CFG)
        assert log.aborted == 0
        assert len(calls) == cfg.iterations * cfg.batch_size

    @pytest.mark.parametrize("per_region", [False, True])
    def test_refine_mode_none_keeps_every_pasted_pixel(self, frozen, images, per_region):
        cfg = tiny_cfg(refine_mode="none", per_region=per_region)
        _, log = train(images, frozen, cfg, head_config=HEAD_CFG)
        assert log.aborted == 0 and len(log.records) == 6
        for rec in log.records:
            assert rec.n_ood > 0 and rec.n_ignored == 0
            assert np.isfinite(rec.eta)  # the pooled minimum, also with per_region


class TestEvaluate:
    def test_headless_reports_baselines_only(self, frozen, eval_set):
        results = evaluate(None, frozen, eval_set, 0.5)
        assert list(results) == ["jem", "msp", "entropy", "max_logit"]

    def test_with_head_reports_all_scorers_in_order(self, frozen, eval_set):
        head = head_init(HEAD_CFG, seed=3)
        results = evaluate(head, frozen, eval_set, 0.5)
        assert list(results) == list(SCORERS)
        n_pos = sum(int((gt == 1).sum()) for _, gt in eval_set)
        n_neg = sum(int((gt == 0).sum()) for _, gt in eval_set)
        for r in results.values():
            assert r.n_pos == n_pos and r.n_neg == n_neg
            assert 0.0 <= r.auroc <= 1.0

    def test_one_free_energy_map_per_image(self, frozen, eval_set, monkeypatch):
        # the jem, tore and combined scores all read the image's one jem map
        calls = count_jem_maps(monkeypatch)
        evaluate(head_init(HEAD_CFG, seed=3), frozen, eval_set, 0.5)
        assert len(calls) == len(eval_set)

    def test_ignore_pixels_are_excluded(self, frozen, eval_set):
        from oodseg.estimators import jem_map
        from oodseg.metrics import evaluate_scores
        from oodseg.synthworld import frozen_encoder, seg_logits_map

        img, gt = eval_set[0]
        gt = gt.copy()
        gt[:4, :] = IGNORE
        results = evaluate(None, frozen, [(img, gt)], 0.5)
        seg = seg_logits_map(frozen, frozen_encoder(frozen, img))
        valid = gt != IGNORE
        expect = evaluate_scores(jem_map(seg)[valid], gt[valid].astype(np.int64))
        assert results["jem"] == expect
        assert results["jem"].n_pos == int((gt == 1).sum())
        assert results["jem"].n_neg == int((gt == 0).sum())

    def test_validation(self, frozen, eval_set):
        with pytest.raises(ValueError):
            evaluate(None, frozen, [], 0.5)
        img, gt = eval_set[0]
        with pytest.raises(ValueError):
            evaluate(None, frozen, [(img, gt[:-1])], 0.5)
        bad = gt.copy()
        bad[0, 0] = 2
        with pytest.raises(ValueError):
            evaluate(None, frozen, [(img, bad)], 0.5)


class TestCsvEmission:
    def test_trainlog_schema_and_timing_suppression(self, frozen, images, tmp_path):
        _, log = train(images, frozen, tiny_cfg(iterations=3), head_config=HEAD_CFG)
        plain = tmp_path / "plain.csv"
        write_trainlog_csv(log, plain)
        lines = plain.read_text().splitlines()
        assert lines[0] == "iter,l_a,l_o,n_ood,n_ignored,eta,ms"
        assert len(lines) == 1 + len(log.records)
        assert all(r.ms > 0.0 for r in log.records)  # timed in memory, written as 0
        for line in lines[1:]:
            assert line.split(",")[6] == "0"
        # every float is emitted via repr and parses back exactly
        rec = log.records[0]
        row = lines[1].split(",")
        assert float(row[1]) == rec.l_a and float(row[5]) == rec.eta

    def test_eval_schema(self, frozen, eval_set, tmp_path):
        results = evaluate(None, frozen, eval_set, 0.5)
        path = tmp_path / "eval.csv"
        write_eval_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scorer,ap,auroc,fpr95,n_pos,n_neg"
        assert [l.split(",")[0] for l in lines[1:]] == list(results)
        row = lines[1].split(",")
        first = results[row[0]]
        assert float(row[1]) == first.ap
        assert float(row[2]) == first.auroc
        assert int(row[4]) == first.n_pos
