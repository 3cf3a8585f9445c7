"""Acceptance suite: one test per primary requirement.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; failure messages carry the measured values.  The desk-scale
pipeline (64x64 scenes, 16 feature channels, 2000 iterations) is trained
twice with the same seed inside the module fixture, which takes a few
minutes and backs the quality, determinism, and isolation criteria.

Reference measurements for this seed (2 vCPUs, Python 3.11, numpy 2.4,
OpenBLAS 0.3.31): combined ap 0.8334 / auroc 0.9354, tae 0.8324 / 0.9330,
tore 0.8308 / 0.9383, jem 0.4163 / 0.7472, training about 140 s.

The golden CSVs of criterion 6 live in ``tests/golden/<key>/``, where the
key is the numeric-platform fingerprint of ``numeric_platform.py``: the
same seed gives the same bytes only where the same kernels run.  A key
without a record is recorded on its first run; delete its directory to
re-record after an intentional change.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from numeric_platform import platform_key
from test_head import clear_instance, max_grad_error
from test_metrics import oracle_ap, oracle_auroc, oracle_fpr_at_tpr

from oodseg.head import HeadConfig
from oodseg.losses import batch_loss_tore
from oodseg.metrics import auroc, average_precision, fpr_at_tpr
from oodseg.patches import (
    DegenerateHullError,
    DegeneratePolygonError,
    convex_hull,
    harris_corners,
    rasterize,
    synth_pasted_scene,
)
from oodseg.refine import PixelPartition, search_threshold, threshold_objective
from oodseg.synthworld import (
    SceneSpec,
    fit_frozen_decoder,
    frozen_digest,
    generate_scene,
)
from oodseg.trainer import TrainConfig, evaluate, train, write_eval_csv, write_trainlog_csv


@pytest.fixture(scope="module")
def desk():
    spec = SceneSpec()
    frozen = fit_frozen_decoder(spec, feature_dim=16, n_scenes=100, seed=0)
    images = [generate_scene(spec, np.random.default_rng([0, 2, i]))[0] for i in range(48)]
    eval_set = []
    for i in range(16):
        img, _, anom = generate_scene(spec, np.random.default_rng([0, 3, i]), anomalies=True)
        eval_set.append((img, anom.astype(np.uint8)))
    cfg = TrainConfig()
    digest_before = frozen_digest(frozen)
    runs = []
    for _ in range(2):
        t0 = time.perf_counter()
        head, log = train(images, frozen, cfg)
        seconds = time.perf_counter() - t0
        results = evaluate(head, frozen, eval_set, lam=cfg.lam)
        runs.append((head, log, results, seconds))
    return {"frozen": frozen, "digest_before": digest_before, "cfg": cfg, "runs": runs}


def test_criterion_1_head_gradients_match_finite_differences():
    configs = [
        HeadConfig(feature_dim=6, blocks=2, hidden=8),
        HeadConfig(feature_dim=4, blocks=1, hidden=5),
        HeadConfig(feature_dim=5, blocks=2, hidden=6, use_batchnorm=False),
        HeadConfig(feature_dim=3, blocks=1, hidden=4, kernel_size=3),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    for ci, cfg in enumerate(configs):
        for s in range(6):
            params, x, tgt = clear_instance(100 * ci + s, cfg)
            worst = max(worst, max_grad_error(params, x, tgt))
            n += 1
    elapsed = time.perf_counter() - t0
    assert n >= 20
    assert worst < 1e-6, f"worst relative gradient error {worst:.3e} over {n} instances (limit 1e-6)"
    assert elapsed < 10.0, f"gradient check took {elapsed:.2f}s (limit 10s)"


def test_criterion_2_margin_formulations_agree():
    rng = np.random.default_rng(7)
    worst = 0.0
    n = 0
    for _ in range(120):
        items = []
        for _ in range(int(rng.integers(1, 4))):
            logits = rng.standard_normal((2, 5, 6)) * 2.0
            jem = rng.standard_normal((5, 6)) * 3.0
            u = rng.uniform(size=(5, 6))
            ood = u < 0.35
            ign = (u >= 0.35) & (u < 0.5)
            if not ood.any():
                ood[0, 0], ign[0, 0] = True, False
            if (ood | ign).all():
                ood[-1, -1], ign[-1, -1] = False, False
            part = PixelPartition(
                ood_mask=ood, id_mask=~(ood | ign), ignored_mask=ign, eta=0.0
            )
            items.append((logits, jem, part))
        gamma = float(rng.uniform(0.0, 12.0))
        v_dyn, _ = batch_loss_tore(items, gamma, "dynamic")
        n_ood = sum(int(p.ood_mask.sum()) for _, _, p in items)
        n_id = sum(int(p.id_mask.sum()) for _, _, p in items)
        mean_id = sum(j[p.id_mask].sum() for _, j, p in items) / n_id
        mean_ood = sum(j[p.ood_mask].sum() for _, j, p in items) / n_ood
        v_sta, _ = batch_loss_tore(items, gamma + mean_id - mean_ood, "static")
        worst = max(worst, abs(v_dyn - v_sta))
        n += 1
    assert n >= 100
    assert worst <= 1e-9, f"dynamic vs shifted-static margin differ by {worst:.3e} (limit 1e-9)"


def test_criterion_3_threshold_grid_matches_brute_force():
    # integer-valued scores spaced wider than the candidate grid, so the
    # grid realizes every possible split and must match midpoint enumeration
    rng = np.random.default_rng(11)
    worst = 0.0
    n_sets = 0
    for _ in range(120):
        size = int(rng.integers(4, 65))
        s = rng.integers(0, 180, size=size).astype(np.float64)
        if s.min() == s.max():
            s[0] += 1.0
        for mode in ("eq11", "otsu"):
            eta = search_threshold(s, mode=mode)
            vals = np.unique(s)
            cands = [float(vals[0])] + [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]
            best = min(threshold_objective(s, c, mode) for c in cands)
            got = threshold_objective(s, eta, mode)
            worst = max(worst, abs(got - best))
        n_sets += 1
    assert n_sets >= 100
    assert worst <= 1e-9, f"grid search off brute-force optimum by {worst:.3e} (limit 1e-9)"


def test_criterion_4_metrics_match_oracles():
    rng = np.random.default_rng(13)
    worst = 0.0
    n = 0
    for _ in range(210):
        size = int(rng.integers(4, 60))
        levels = int(rng.integers(2, 5))  # few levels force heavy ties
        s = rng.integers(0, levels, size=size).astype(np.float64)
        y = (rng.uniform(size=size) < 0.5).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        worst = max(
            worst,
            abs(auroc(s, y) - oracle_auroc(s, y)),
            abs(average_precision(s, y) - oracle_ap(s, y)),
            abs(fpr_at_tpr(s, y, 0.95) - oracle_fpr_at_tpr(s, y, 0.95)),
        )
        n += 1
    assert n >= 200
    assert worst <= 1e-12, f"metric disagrees with oracle by {worst:.3e} (limit 1e-12)"


def test_criterion_5_geometry_suite():
    img = np.zeros((32, 32))
    img[8:24, 8:24] = 255.0
    corners = sorted(harris_corners(img))
    assert corners == [(8, 8), (8, 23), (23, 8), (23, 23)], f"square corners: {corners}"

    rng = np.random.default_rng(17)
    exercised = 0
    for _ in range(60):
        pts = [tuple(p) for p in rng.uniform(0.0, 14.0, size=(int(rng.integers(3, 25)), 2))]
        try:
            hull = convex_hull(pts)
            mask = rasterize(hull, 14, 14)
        except (DegenerateHullError, DegeneratePolygonError):
            continue
        assert set(hull) <= set(pts), "hull vertex is not an input point"
        n = len(hull)
        for i in range(n):
            o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            turn = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert turn > 0.0, f"hull not strictly convex CCW at vertex {i}"
        for px, py in pts:
            assert all(
                (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0]) >= -1e-9
                for a, b in zip(hull, hull[1:] + hull[:1])
            ), "input point escapes its hull"
        oracle = np.empty((14, 14), dtype=bool)
        for i in range(14):
            for j in range(14):
                oracle[i, j] = all(
                    (b[0] - a[0]) * (i + 0.5 - a[1]) - (b[1] - a[1]) * (j + 0.5 - a[0]) > 0.0
                    for a, b in zip(hull, hull[1:] + hull[:1])
                )
        np.testing.assert_array_equal(mask, oracle, err_msg="rasterizer disagrees with oracle")
        exercised += 1
    assert exercised >= 40

    # pasting must leave every pixel outside the pasted mask byte-identical
    donors = [rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8) for _ in range(2)]
    for seed in range(10):
        target = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        scene = synth_pasted_scene(target, donors, 5, np.random.default_rng(seed))
        np.testing.assert_array_equal(
            scene.image[~scene.mask],
            target[~scene.mask],
            err_msg="pasting altered pixels outside the pasted mask",
        )


GOLDEN = Path(__file__).parent / "golden"


def test_criterion_6_end_to_end_beats_baseline(desk, tmp_path):
    _, log, results, seconds = desk["runs"][0]
    assert seconds < 300.0, f"training took {seconds:.1f}s (budget 300s)"
    assert len(log.records) + log.aborted == desk["cfg"].iterations

    combined, tae, tore, jem = (results[k] for k in ("combined", "tae", "tore", "jem"))
    gap = combined.auroc - jem.auroc
    assert gap >= 0.05, (
        f"combined auroc {combined.auroc:.4f} vs free-energy {jem.auroc:.4f} "
        f"(gap {gap:.4f}, need >= 0.05)"
    )
    floor = max(tae.ap, tore.ap) - 0.02
    assert combined.ap >= floor, (
        f"combined ap {combined.ap:.4f} below best single estimator "
        f"(tae {tae.ap:.4f}, tore {tore.ap:.4f}, allowed slack 0.02)"
    )
    for name in ("combined", "tae", "tore"):
        r = results[name]
        assert r.auroc > jem.auroc and r.ap > jem.ap, (
            f"trained arm {name} (ap {r.ap:.4f}, auroc {r.auroc:.4f}) does not beat "
            f"the frozen baseline (ap {jem.ap:.4f}, auroc {jem.auroc:.4f})"
        )

    # achieved values are locked by the seed: the first run on a numeric
    # platform records them as golden CSVs under that platform's key, later
    # runs on the same platform must reproduce the bytes (delete
    # tests/golden/<key>/ to re-record after an intentional change)
    write_trainlog_csv(log, tmp_path / "trainlog.csv")
    write_eval_csv(results, tmp_path / "eval.csv")
    key = platform_key()
    record = GOLDEN / key
    record.mkdir(parents=True, exist_ok=True)
    for name in ("trainlog.csv", "eval.csv"):
        got = (tmp_path / name).read_bytes()
        ref = record / name
        if ref.exists():
            assert got == ref.read_bytes(), f"{name} deviates from the golden record of platform {key}"
        else:
            ref.write_bytes(got)


def test_criterion_7_same_seed_runs_are_byte_identical(desk, tmp_path):
    (_, log_a, res_a, _), (_, log_b, res_b, _) = desk["runs"]
    write_trainlog_csv(log_a, tmp_path / "a.csv")
    write_trainlog_csv(log_b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes(), (
        "trainlog.csv differs between identically seeded runs"
    )
    write_eval_csv(res_a, tmp_path / "ea.csv")
    write_eval_csv(res_b, tmp_path / "eb.csv")
    assert (tmp_path / "ea.csv").read_bytes() == (tmp_path / "eb.csv").read_bytes(), (
        "eval.csv differs between identically seeded runs"
    )


def test_criterion_8_frozen_model_unchanged_by_training(desk):
    after = frozen_digest(desk["frozen"])
    assert after == desk["digest_before"], (
        f"frozen digest changed during training: {desk['digest_before'][:12]} -> {after[:12]}"
    )
