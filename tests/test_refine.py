"""Threshold search and pixel partition tests.

The fast prefix-sum search is checked against a literal loop over the same
candidate grid with per-group np.var, which is the defining behavior.  The
batched search over labelled groups is checked, byte for byte, against one
search per group.
"""

import math

import numpy as np
import pytest

import oodseg.refine
from oodseg.refine import (
    NUM_BINS,
    SEARCH_MODES,
    EmptyPastedRegionError,
    _grid,
    _group_means,
    refine_partition,
    search_threshold,
    threshold_objective,
)


def slow_search(scores, num_bins=256, mode="eq11"):
    s = np.asarray(scores, dtype=np.float64).ravel()
    lo, hi = s.min(), s.max()
    if lo == hi:
        return float(lo)
    cands = np.linspace(lo, hi, num_bins)
    objs = [threshold_objective(s, c, mode) for c in cands]
    return float(cands[int(np.argmin(objs))])


class TestThresholdObjective:
    def test_perfect_split_is_zero(self):
        assert threshold_objective([0.0, 0.0, 10.0, 10.0], 5.0) == 0.0
        assert threshold_objective([0.0, 0.0, 10.0, 10.0], 5.0, "otsu") == 0.0

    def test_hand_values(self):
        s = [0.0, 1.0, 10.0, 11.0]
        assert threshold_objective(s, 5.0, "eq11") == pytest.approx(0.5, abs=1e-15)
        assert threshold_objective(s, 5.0, "otsu") == pytest.approx(0.25, abs=1e-15)

    def test_small_group_contributes_zero(self):
        s = [0.0, 1.0, 2.0, 100.0]
        assert threshold_objective(s, 50.0, "eq11") == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert threshold_objective(s, 50.0, "otsu") == pytest.approx(0.5, abs=1e-15)

    def test_threshold_is_inclusive_above(self):
        # eta equal to a score puts that score in the upper group
        s = [0.0, 5.0, 5.0, 9.0]
        assert threshold_objective(s, 5.0, "eq11") == pytest.approx(
            np.var([5.0, 5.0, 9.0]), abs=1e-15
        )

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            threshold_objective([1.0, 2.0], 1.5, "mean")


class TestSearchThreshold:
    def test_two_clusters_pick_first_separating_candidate(self):
        # every candidate in the gap scores zero; ties go to the smallest,
        # which is the first grid point after the minimum
        eta = search_threshold([0.0, 0.0, 0.0, 10.0, 10.0])
        assert eta == pytest.approx(10.0 / 255.0, abs=1e-12)

    def test_constant_scores_returned_directly(self):
        assert search_threshold([7.0, 7.0, 7.0]) == 7.0

    def test_matches_slow_grid_search(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            if rng.uniform() < 0.5:
                s = rng.standard_normal(n) * rng.uniform(0.5, 20.0) + rng.uniform(-50, 50)
            else:
                s = rng.integers(0, 6, size=n).astype(np.float64)  # heavy ties
            if s.min() == s.max():
                continue
            for mode in ("eq11", "otsu"):
                fast = search_threshold(s, mode=mode)
                slow = slow_search(s, mode=mode)
                assert fast == slow
                assert threshold_objective(s, fast, mode) <= (
                    min(threshold_objective(s, c, mode) for c in np.linspace(s.min(), s.max(), 256))
                    + 1e-9
                )

    def test_large_offset_stays_accurate(self):
        # centered prefix sums must survive means that dwarf the spread
        base = np.array([0.0, 0.0, 1.0, 10.0, 10.0, 11.0]) + 1e8
        assert search_threshold(base) == slow_search(base)

    def test_errors(self):
        with pytest.raises(EmptyPastedRegionError):
            search_threshold([])
        with pytest.raises(ValueError):
            search_threshold([1.0, np.nan])
        with pytest.raises(ValueError):
            search_threshold([1.0, 2.0], mode="grid")


def search_per_group(scores, labels, mode):
    """The batched search's reference: one search per label, in label order."""
    return np.array([search_threshold(scores[labels == g], mode) for g in sorted(set(labels.tolist()))])


def random_groups(rng):
    """Scores and labels with gaps: continuous, tied, constant and one-pixel
    groups, signed zeros among them."""
    scores, labels = [], []
    for label in np.sort(rng.choice(100, size=int(rng.integers(1, 25)), replace=False)):
        n = int(rng.integers(1, 4)) if rng.uniform() < 0.2 else int(rng.integers(2, 120))
        kind = rng.integers(4)
        if kind == 0:
            s = rng.standard_normal(n) * rng.uniform(0.01, 20.0) + rng.uniform(-50, 50)
        elif kind == 1:
            s = rng.integers(-2, 3, size=n).astype(np.float64)  # heavy ties, zeros included
        elif kind == 2:
            s = np.full(n, rng.choice([-0.0, 0.0, 3.5]))
        else:
            s = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
        scores.append(s)
        labels.append(np.full(n, label))
    order = rng.permutation(sum(len(s) for s in scores))
    return np.concatenate(scores)[order], np.concatenate(labels)[order]


class TestBatchedSearch:
    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_matches_a_search_per_group(self, mode):
        rng = np.random.default_rng(47)
        for _ in range(150):
            scores, labels = random_groups(rng)
            assert search_threshold(scores, mode, labels).tobytes() == search_per_group(scores, labels, mode).tobytes()

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_signed_zeros(self, mode):
        scores = np.array([-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
        labels = np.array([1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4])
        eta = search_threshold(scores, mode, labels)
        assert eta.tobytes() == search_per_group(scores, labels, mode).tobytes()
        # constant zero groups come back as +0.0, whichever zeros they hold
        assert np.signbit(eta[:2]).tolist() == [False, False]
        assert not np.signbit(search_threshold([-0.0, -0.0], mode))

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_subnormal_spread_beside_normal_groups(self, mode):
        # (hi - lo) / 255 underflows to zero in group 5 only
        scores = np.array([0.0, 5e-322, 2e-322, 0.0, -3.0, 7.0, 1.0, 2.5, 0.25, 0.5, 0.0, 1.0])
        labels = np.array([5, 5, 5, 5, 6, 6, 6, 6, 9, 9, 9, 9])
        assert search_threshold(scores, mode, labels).tobytes() == search_per_group(scores, labels, mode).tobytes()

    def test_grid_rows_are_linspace(self):
        lo = np.array([0.0, 0.0, -3.0, 2.0])
        hi = np.array([1.0, 5e-322, 7.0, 2.0])
        rows = np.array([np.linspace(a, b, NUM_BINS) for a, b in zip(lo, hi)])
        assert _grid(lo, hi).tobytes() == rows.tobytes()
        # one linspace over the arrays takes the subnormal branch for every row
        assert np.linspace(lo, hi, NUM_BINS, axis=-1).tobytes() != rows.tobytes()

    def test_group_means_are_numpy_means(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            sizes = rng.integers(1, 400, size=int(rng.integers(1, 30)))
            v = rng.standard_normal(sizes.sum()) * 10 ** rng.uniform(-3, 3) + rng.uniform(-1e3, 1e3)
            ends = np.cumsum(sizes)
            expect = np.array([v[e - n : e].mean() for e, n in zip(ends, sizes)])
            got = _group_means(v, sizes, np.repeat(np.arange(sizes.size), sizes))
            assert got.tobytes() == expect.tobytes()

    def test_one_group_matches_the_plain_search(self):
        rng = np.random.default_rng(48)
        for mode in SEARCH_MODES:
            s = rng.standard_normal(300)
            (eta,) = search_threshold(s, mode, np.full(300, 7))
            assert eta == search_threshold(s, mode)

    def test_labels_must_match_scores(self):
        with pytest.raises(ValueError):
            search_threshold([1.0, 2.0, 3.0], "eq11", [1, 1])


class TestRefinePartition:
    def test_pooled_two_cluster_scene(self):
        scores = np.zeros((4, 4))
        pasted = np.zeros((4, 4), dtype=bool)
        pasted[1:3, 1:3] = True
        scores[1, 1:3] = 10.0  # high half of the pasted block
        part = refine_partition(scores, pasted)
        expect_ood = np.zeros((4, 4), dtype=bool)
        expect_ood[1, 1:3] = True
        np.testing.assert_array_equal(part.ood_mask, expect_ood)
        np.testing.assert_array_equal(part.id_mask, ~pasted)
        np.testing.assert_array_equal(part.ignored_mask, pasted & ~expect_ood)
        assert part.eta == pytest.approx(10.0 / 255.0, abs=1e-12)

    def test_partition_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            scores = rng.standard_normal((8, 8))
            pasted = rng.uniform(size=(8, 8)) < 0.4
            if not pasted.any():
                pasted[0, 0] = True
            part = refine_partition(scores, pasted, mode="otsu" if rng.uniform() < 0.5 else "eq11")
            total = (
                part.ood_mask.astype(int) + part.id_mask.astype(int) + part.ignored_mask.astype(int)
            )
            assert np.all(total == 1)  # disjoint cover
            assert np.all(part.ood_mask <= pasted)
            np.testing.assert_array_equal(part.id_mask, ~pasted)
            assert part.ood_mask.any()  # the max score is always kept
            assert math.isfinite(part.eta)

    def test_constant_region_all_kept(self):
        scores = np.full((3, 3), 2.5)
        pasted = np.ones((3, 3), dtype=bool)
        part = refine_partition(scores, pasted)
        assert part.ood_mask.all()
        assert not part.ignored_mask.any()
        assert part.eta == 2.5

    def test_per_region_thresholds(self):
        scores = np.zeros((2, 8))
        pasted = np.zeros((2, 8), dtype=bool)
        ids = np.zeros((2, 8), dtype=np.int32)
        pasted[0, 0:4] = True   # region 1: scores 0 0 1 1
        ids[0, 0:4] = 1
        scores[0, 2:4] = 1.0
        pasted[1, 0:4] = True   # region 2: scores 100 100 101 101
        ids[1, 0:4] = 2
        scores[1, 0:4] = [100.0, 100.0, 101.0, 101.0]
        part = refine_partition(scores, pasted, region_ids=ids, per_region=True)
        expect = np.zeros((2, 8), dtype=bool)
        expect[0, 2:4] = True
        expect[1, 2:4] = True  # each region splits internally
        np.testing.assert_array_equal(part.ood_mask, expect)
        assert math.isnan(part.eta)
        # pooled would instead keep all of region 2 and drop all of region 1
        pooled = refine_partition(scores, pasted)
        assert pooled.ood_mask[1, 0:4].all() and not pooled.ood_mask[0, 0:4].any()

    def test_per_region_is_pooled_refinement_of_each_region(self):
        rng = np.random.default_rng(32)
        for mode in ("eq11", "otsu"):
            for _ in range(10):
                ids = np.zeros((16, 16), dtype=np.int32)
                for rid in range(1, 7):  # later rectangles cover part, or all, of earlier ones
                    y, x = rng.integers(0, 12, size=2)
                    h, w = rng.integers(2, 10, size=2)
                    ids[y : y + h, x : x + w] = rid
                pasted = ids > 0
                scores = rng.standard_normal((16, 16))
                part = refine_partition(scores, pasted, mode=mode, region_ids=ids, per_region=True)
                expect = np.zeros_like(pasted)
                for rid in np.unique(ids[pasted]):
                    expect |= refine_partition(scores, ids == rid, mode=mode).ood_mask
                np.testing.assert_array_equal(part.ood_mask, expect)
                np.testing.assert_array_equal(part.ignored_mask, pasted & ~expect)

    @pytest.mark.parametrize("mode", ("eq11", "otsu", "none"))
    def test_per_region_matches_a_search_per_region(self, mode):
        rng = np.random.default_rng(49)
        for _ in range(20):
            ids = np.zeros((24, 24), dtype=np.int32)
            for rid in range(1, 12):  # later rectangles cover part, or all, of earlier ones
                y, x = rng.integers(0, 20, size=2)
                h, w = rng.integers(1, 12, size=2)
                ids[y : y + h, x : x + w] = rid
            pasted = ids > 0
            scores = np.round(rng.standard_normal((24, 24)), int(rng.integers(0, 3)))
            part = refine_partition(scores, pasted, mode=mode, region_ids=ids, per_region=True)
            if mode == "none":
                expect = pasted
                assert part.eta == scores[pasted].min()
            else:
                expect = np.zeros_like(pasted)
                for rid in sorted(set(ids[pasted].tolist())):  # ids with gaps
                    region = ids == rid
                    expect |= region & (scores >= search_threshold(scores[region], mode))
                assert math.isnan(part.eta)
            np.testing.assert_array_equal(part.ood_mask, expect)
            np.testing.assert_array_equal(part.ignored_mask, pasted & ~expect)

    def test_per_region_with_one_region_is_pooled(self):
        rng = np.random.default_rng(50)
        scores = rng.standard_normal((8, 8))
        ids = np.zeros((8, 8), dtype=np.int32)
        ids[2:7, 1:6] = 3
        for mode in SEARCH_MODES:
            part = refine_partition(scores, ids > 0, mode=mode, region_ids=ids, per_region=True)
            pooled = refine_partition(scores, ids > 0, mode=mode)
            np.testing.assert_array_equal(part.ood_mask, pooled.ood_mask)
            np.testing.assert_array_equal(part.ignored_mask, pooled.ignored_mask)

    def test_one_search_per_partition(self, monkeypatch):
        calls = []
        search = oodseg.refine.search_threshold
        monkeypatch.setattr(oodseg.refine, "search_threshold", lambda *a: calls.append(a) or search(*a))
        ids = np.repeat(np.arange(1, 5), 4).reshape(4, 4)
        refine_partition(np.arange(16.0).reshape(4, 4), ids > 0, region_ids=ids, per_region=True)
        refine_partition(np.arange(16.0).reshape(4, 4), ids > 0)
        assert len(calls) == 2

    def test_mode_none_keeps_whole_pasted_region(self):
        scores = np.zeros((4, 4))
        pasted = np.zeros((4, 4), dtype=bool)
        pasted[1:3, 1:3] = True
        scores[1, 1:3] = 10.0
        scores[2, 1:3] = [-1.0, 3.0]
        part = refine_partition(scores, pasted, mode="none")
        np.testing.assert_array_equal(part.ood_mask, pasted)
        np.testing.assert_array_equal(part.id_mask, ~pasted)
        assert not part.ignored_mask.any()
        assert part.eta == -1.0  # lowest pasted score
        assert part.ood_mask is not pasted  # a copy, not the caller's mask

    def test_mode_none_ignores_per_region(self):
        scores = np.arange(8.0).reshape(2, 4)
        pasted = np.ones((2, 4), dtype=bool)
        pasted[1, 3] = False
        ids = np.where(np.arange(8).reshape(2, 4) < 4, 1, 2)
        part = refine_partition(scores, pasted, mode="none", region_ids=ids, per_region=True)
        np.testing.assert_array_equal(part.ood_mask, pasted)
        assert part.eta == 0.0

    def test_errors(self):
        with pytest.raises(EmptyPastedRegionError):
            refine_partition(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), mode="none")
        with pytest.raises(ValueError):
            search_threshold([1.0, 2.0], mode="none")  # "none" has no search
        with pytest.raises(EmptyPastedRegionError):
            refine_partition(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            refine_partition(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))
        with pytest.raises(ValueError):
            refine_partition(np.zeros((2, 2)), np.ones((2, 2), dtype=bool), per_region=True)
