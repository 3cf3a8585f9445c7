"""Threshold search and pixel partition tests.

The fast prefix-sum search is checked against a literal loop over the same
candidate grid with per-group np.var, which is the defining behavior.
"""

import math

import numpy as np
import pytest

from oodseg.refine import (
    EmptyPastedRegionError,
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
