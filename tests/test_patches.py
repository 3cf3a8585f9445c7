"""Patch synthesis tests: luma, corner detection, hull, rasterizer, pasting.

The rasterizer oracle is an independent point-in-convex-polygon test; random
polygon vertices are continuous so no pixel center lands exactly on an edge.
"""

import numpy as np
import pytest

import oodseg.patches
from oodseg.patches import (
    DegenerateHullError,
    DegeneratePolygonError,
    DonorTooSmallError,
    PatchCandidate,
    build_patches,
    donor_corners,
    convex_hull,
    harris_corners,
    luma,
    paste_patches,
    rasterize,
    sample_candidates,
    synth_pasted_scene,
)
from oodseg.synthworld import SceneSpec, generate_scene


# reference_harris keyword -> the oodseg.patches constant that harris_corners reads
HARRIS_CONSTANTS = {
    "k": "HARRIS_K",
    "sigma": "HARRIS_SIGMA",
    "thresh_frac": "HARRIS_THRESH_FRAC",
    "nms_radius": "HARRIS_NMS_RADIUS",
}


def reference_harris(gray, k=0.04, sigma=1.0, thresh_frac=0.01, nms_radius=2):
    """Direct Harris formulation: per-axis tap loops, then for each candidate
    pixel a window max that only the candidate itself may reach."""
    g = np.asarray(gray, dtype=np.float64)
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-0.5 * (t / sigma) ** 2)
    taps /= taps.sum()
    h, w = g.shape
    margin = radius + 1
    if h <= 2 * margin or w <= 2 * margin:
        return []

    def smooth(a):
        ap = np.zeros((h + 2 * radius, w))
        ap[radius : radius + h] = a
        rows = taps[0] * ap[:h]
        for i in range(1, len(taps)):
            rows += taps[i] * ap[i : i + h]
        ap = np.zeros((h, w + 2 * radius))
        ap[:, radius : radius + w] = rows
        out = taps[0] * ap[:, :w]
        for i in range(1, len(taps)):
            out += taps[i] * ap[:, i : i + w]
        return out

    iy, ix = np.gradient(g)
    sxx, syy, sxy = smooth(ix * ix), smooth(iy * iy), smooth(ix * iy)
    r = (sxx * syy - sxy * sxy) - k * (sxx + syy) ** 2
    peak = r.max()
    if peak <= 0.0:
        return []
    nr = nms_radius
    out = []
    for i, j in np.argwhere(r >= thresh_frac * peak).tolist():
        if i < margin or j < margin or i >= h - margin or j >= w - margin:
            continue
        win = r[max(0, i - nr) : i + nr + 1, max(0, j - nr) : j + nr + 1]
        wmax = win.max()
        if r[i, j] == wmax and np.count_nonzero(win == wmax) == 1:
            out.append((j, i))
    return out


@pytest.fixture(scope="module")
def reference_images():
    """The 48 desk training donors' luma, then seeded small images whose few
    grey levels leave plateaus and exact ties in the response."""
    spec = SceneSpec()
    images = [luma(generate_scene(spec, np.random.default_rng([0, 2, i]))[0]) for i in range(48)]
    rng = np.random.default_rng(11)
    for n in range(300):
        h, w = rng.integers(5, 41, size=2)
        if n % 2:
            levels = rng.integers(0, 3, size=(h, w))
        else:
            levels = np.kron(rng.integers(0, 4, size=(h // 4 + 1, w // 4 + 1)), np.ones((4, 4), dtype=np.int64))
        images.append((60 * levels[:h, :w]).astype(np.uint8))
    return images


def strictly_inside(hull, px, py):
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0]) <= 0.0:
            return False
    return True


class TestLuma:
    def test_primaries(self):
        img = np.array(
            [[[255, 255, 255], [255, 0, 0], [0, 255, 0], [0, 0, 255], [0, 0, 0]]],
            dtype=np.uint8,
        )
        np.testing.assert_array_equal(luma(img)[0], [255, 76, 149, 29, 0])

    def test_integer_floor(self):
        assert luma(np.array([[[1, 1, 1]]], dtype=np.uint8))[0, 0] == 1
        assert luma(np.array([[[1, 0, 0]]], dtype=np.uint8))[0, 0] == 0

    def test_dtype(self):
        assert luma(np.zeros((2, 2, 3), dtype=np.uint8)).dtype == np.uint8


class TestSampleCandidates:
    def test_bounds_and_fit(self):
        rng = np.random.default_rng(5)
        donors = [np.zeros((64, 48, 3), dtype=np.uint8), np.zeros((128, 128, 3), dtype=np.uint8)]
        cands = sample_candidates(donors, 200, rng)
        assert len(cands) == 200
        for c in cands:
            h_img, w_img = donors[c.donor].shape[:2]
            assert 0 <= c.x0 and c.x0 + c.width <= w_img
            assert 0 <= c.y0 and c.y0 + c.height <= h_img
            assert max(8, h_img // 16) <= c.height <= max(8, h_img // 4)
            assert max(8, w_img // 16) <= c.width <= max(8, w_img // 4)

    def test_deterministic(self):
        donors = [np.zeros((64, 64, 3), dtype=np.uint8)]
        a = sample_candidates(donors, 10, np.random.default_rng(7))
        b = sample_candidates(donors, 10, np.random.default_rng(7))
        assert a == b

    def test_donor_too_small(self):
        with pytest.raises(DonorTooSmallError):
            sample_candidates([np.zeros((4, 64, 3), dtype=np.uint8)], 1, np.random.default_rng(0))

    def test_no_donors(self):
        with pytest.raises(ValueError):
            sample_candidates([], 1, np.random.default_rng(0))


class TestHarris:
    def test_square_gives_four_corners(self):
        img = np.zeros((32, 32))
        img[8:24, 8:24] = 255.0
        assert sorted(harris_corners(img)) == [(8, 8), (8, 23), (23, 8), (23, 23)]

    def test_flat_image_empty(self):
        assert harris_corners(np.full((32, 32), 7.0)) == []

    def test_too_small_empty(self):
        # below 2 * (smoothing support + 1) there is no interior pixel to score
        noisy = np.random.default_rng(0).uniform(0, 255, size=(8, 8))
        assert harris_corners(noisy) == []

    def test_corners_inside_margin(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, size=(40, 40))
        for x, y in harris_corners(img):
            assert 4 <= x < 36 and 4 <= y < 36

    def test_rejects_color_input(self):
        with pytest.raises(ValueError):
            harris_corners(np.zeros((8, 8, 3)))

    @pytest.mark.parametrize(
        "params",
        [{}, {"thresh_frac": 1e-4, "nms_radius": 1}, {"sigma": 1.5, "nms_radius": 0}, {"k": 0.06, "nms_radius": 5}],
        ids=["defaults", "polygons", "wide_no_nms", "wide_nms"],
    )
    def test_matches_reference_window_rule(self, reference_images, monkeypatch, params):
        for name, value in params.items():
            monkeypatch.setattr(oodseg.patches, HARRIS_CONSTANTS[name], value)
        for gray in reference_images:
            assert harris_corners(gray) == reference_harris(gray, **params)

    def test_reads_the_constants_at_call_time(self, monkeypatch):
        # as donor_corners does, and so byte_identity.py's polygons step
        gray = np.random.default_rng(3).uniform(0, 255, size=(40, 40))
        before = harris_corners(gray)
        monkeypatch.setattr(oodseg.patches, "HARRIS_THRESH_FRAC", 1e-4)
        monkeypatch.setattr(oodseg.patches, "HARRIS_NMS_RADIUS", 1)
        after = harris_corners(gray)
        assert after == reference_harris(gray, thresh_frac=1e-4, nms_radius=1)
        assert len(after) > len(before)


class TestConvexHull:
    def test_square_with_interior_and_edge_points(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.5, 0), (0, 0.5)])
        assert hull == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_random_points_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = [tuple(p) for p in rng.uniform(-5, 5, size=(int(rng.integers(3, 40)), 2))]
            try:
                hull = convex_hull(pts)
            except DegenerateHullError:
                assert len(set(pts)) < 3
                continue
            assert set(hull) <= set(pts)
            n = len(hull)
            for i in range(n):
                o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
                turn = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                assert turn > 0.0  # strictly convex, counter-clockwise
            for px, py in pts:
                edge_ok = all(
                    (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0]) >= -1e-9
                    for a, b in zip(hull, hull[1:] + hull[:1])
                )
                assert edge_ok  # every input point inside or on the hull

    def test_collinear_raises(self):
        with pytest.raises(DegenerateHullError):
            convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_too_few_distinct_raises(self):
        with pytest.raises(DegenerateHullError):
            convex_hull([(0, 0), (1, 1), (0, 0), (1.0, 1.0)])


class TestRasterize:
    def test_axis_aligned_square(self):
        m = rasterize([(0, 0), (2, 0), (2, 2), (0, 2)], 3, 3)
        np.testing.assert_array_equal(
            m, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=bool)
        )

    def test_matches_point_in_polygon_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            pts = rng.uniform(0.0, 12.0, size=(12, 2))
            try:
                hull = convex_hull([tuple(p) for p in pts])
                mask = rasterize(hull, 12, 12)
            except (DegenerateHullError, DegeneratePolygonError):
                continue
            oracle = np.empty((12, 12), dtype=bool)
            for i in range(12):
                for j in range(12):
                    oracle[i, j] = strictly_inside(hull, j + 0.5, i + 0.5)
            np.testing.assert_array_equal(mask, oracle)

    def test_covers_no_center_raises(self):
        with pytest.raises(DegeneratePolygonError):
            rasterize([(0.1, 0.1), (0.3, 0.1), (0.2, 0.3)], 4, 4)

    def test_bad_polygon_shape(self):
        with pytest.raises(ValueError):
            rasterize([(0, 0), (1, 1)], 4, 4)


class TestBuildPatches:
    def test_flat_crop_falls_back_to_rectangle(self):
        donors = [np.full((64, 64, 3), 80, dtype=np.uint8)]
        cand = PatchCandidate(donor=0, x0=0, y0=0, width=16, height=16)
        (patch,) = build_patches(donors, [cand])
        assert patch.mask is None
        assert patch.texture.shape == (16, 16, 3)

    def test_convex_policy_carves_hull(self):
        donors = [np.zeros((64, 64, 3), dtype=np.uint8)]
        donors[0][10:40, 10:40] = 200  # bright square inside the crop
        cand = PatchCandidate(donor=0, x0=0, y0=0, width=48, height=48)
        (patch,) = build_patches(donors, [cand])
        corners = donor_corners(donors[0])  # the crop sits at the origin
        hull = convex_hull(corners[(corners < 48).all(axis=1)].tolist())
        np.testing.assert_array_equal(patch.mask, rasterize(hull, 48, 48))
        assert patch.mask.any() and not patch.mask.all()
        assert patch.mask.shape == (48, 48)


def per_crop_patches(donor_images, candidates, corners):
    """(mask, texture) per candidate, by a reference that tests each crop's
    donor corners on their own, point by point; a crop left whole has the
    mask None."""
    out = []
    for cand in candidates:
        crop = donor_images[cand.donor][cand.y0 : cand.y0 + cand.height, cand.x0 : cand.x0 + cand.width]
        local = [(x - cand.x0, y - cand.y0) for x, y in np.asarray(corners[cand.donor]).tolist()
                 if cand.x0 <= x < cand.x0 + cand.width and cand.y0 <= y < cand.y0 + cand.height]
        mask = np.ones((cand.height, cand.width), dtype=bool)
        if len(local) >= 3:
            try:
                mask = rasterize(convex_hull(local), cand.width, cand.height)
            except (DegenerateHullError, DegeneratePolygonError):
                pass
        out.append((None if mask.all() else mask, crop))
    return out


class TestOneCornerTestPerScene:
    """``build_patches`` tests every crop's corners in one pass; its patches
    are the per-crop reference's byte for byte."""

    @staticmethod
    def assert_matches_reference(donors, cands, corners):
        got = build_patches(donors, cands, corners)
        want = per_crop_patches(donors, cands, corners)
        assert len(got) == len(want) == len(cands)
        for patch, (mask, texture) in zip(got, want):
            if mask is None:
                assert patch.mask is None
            else:
                assert patch.mask.shape == mask.shape and patch.mask.tobytes() == mask.tobytes()
            assert patch.texture.shape == texture.shape and patch.texture.tobytes() == texture.tobytes()
        return want

    def test_random_candidates(self):
        spec = SceneSpec()
        donors = [generate_scene(spec, np.random.default_rng([5, i]))[0] for i in range(12)]
        donors.append(np.full((64, 64, 3), 80, dtype=np.uint8))  # a donor with no corners
        corners = [donor_corners(d) for d in donors]
        assert len(corners[-1]) == 0
        hulls = 0
        for seed in range(40):
            cands = sample_candidates(donors, 40 if seed % 2 else 10, np.random.default_rng(seed))
            want = self.assert_matches_reference(donors, cands, corners)
            hulls += sum(mask is not None for mask, _ in want)
        assert hulls > 0  # some crops reach the hull path

    def test_donors_without_corners(self):
        donors = [np.full((32, 32, 3), v, dtype=np.uint8) for v in (0, 90)]
        corners = [np.zeros((0, 2), dtype=np.int64)] * 2
        cands = sample_candidates(donors, 10, np.random.default_rng(0))
        want = self.assert_matches_reference(donors, cands, corners)
        assert all(mask is None for mask, _ in want)

    def test_crops_flush_with_the_right_and_bottom_edges(self):
        donor = np.random.default_rng(1).integers(0, 256, size=(40, 48, 3), dtype=np.uint8)
        # corners on the donor's last row and column: on a flush crop's edges,
        # one past the edges of the crop that ends a pixel short
        corners = [np.array([[47, 39], [40, 39], [47, 30], [32, 24], [31, 39], [47, 23], [35, 33], [40, 30]])]
        cands = [
            PatchCandidate(donor=0, x0=32, y0=24, width=16, height=16),
            PatchCandidate(donor=0, x0=40, y0=30, width=8, height=10),
            PatchCandidate(donor=0, x0=33, y0=25, width=15, height=15),
            PatchCandidate(donor=0, x0=31, y0=23, width=16, height=16),
        ]
        want = self.assert_matches_reference([donor], cands, corners)
        assert not any(mask is None for mask, _ in want)

    def test_crops_with_three_or_more_corners_reach_the_hull(self):
        donor = np.zeros((64, 64, 3), dtype=np.uint8)
        donor[20:36, 20:36] = 200
        corners = [donor_corners(donor)]
        cands = [PatchCandidate(donor=0, x0=x, y0=y, width=20, height=20) for x in (16, 18) for y in (16, 18)]
        cands += [PatchCandidate(donor=0, x0=30, y0=16, width=16, height=24)]  # two corners
        want = self.assert_matches_reference([donor], cands, corners)
        assert [mask is None for mask, _ in want] == [False] * 4 + [True]

    def test_no_candidates(self):
        donor = np.zeros((16, 16, 3), dtype=np.uint8)
        assert build_patches([donor], [], [np.zeros((0, 2), dtype=np.int64)]) == []
        assert build_patches([donor], []) == []


class TestDonorCorners:
    def square_donor(self):
        donor = np.zeros((64, 64, 3), dtype=np.uint8)
        donor[20:36, 20:36] = 200
        return donor

    def test_one_pass_over_the_whole_donor(self):
        assert donor_corners(self.square_donor()).tolist() == [[20, 20], [35, 20], [20, 35], [35, 35]]
        assert donor_corners(np.zeros((64, 64, 3), dtype=np.uint8)).shape == (0, 2)

    def test_crop_takes_the_donor_corners_inside_it(self):
        # the corners sit 2 px inside the crop's border, where a Harris
        # pass over the crop alone lacks support
        cand = PatchCandidate(donor=0, x0=18, y0=18, width=20, height=20)
        (patch,) = build_patches([self.square_donor()], [cand])
        square = [(2.0, 2.0), (17.0, 2.0), (17.0, 17.0), (2.0, 17.0)]
        np.testing.assert_array_equal(patch.mask, rasterize(square, 20, 20))
        expected = np.zeros((20, 20), dtype=bool)
        expected[2:17, 2:17] = True
        np.testing.assert_array_equal(patch.mask, expected)

    def test_crop_without_corners_keeps_rectangle(self):
        cand = PatchCandidate(donor=0, x0=40, y0=40, width=16, height=16)
        (patch,) = build_patches([self.square_donor()], [cand])
        assert patch.texture.shape == (16, 16, 3)
        assert patch.mask is None

    def test_fewer_than_three_corners_skip_the_hull(self, monkeypatch):
        def no_hull(points):
            raise AssertionError("convex_hull called")

        monkeypatch.setattr(oodseg.patches, "convex_hull", no_hull)
        # two of the square's corners (35, 20) and (35, 35) fall inside, then none
        cands = [
            PatchCandidate(donor=0, x0=30, y0=16, width=16, height=24),
            PatchCandidate(donor=0, x0=40, y0=40, width=16, height=16),
        ]
        for cand, patch in zip(cands, build_patches([self.square_donor()], cands)):
            assert patch.texture.shape == (cand.height, cand.width, 3)
            assert patch.mask is None

    @pytest.mark.parametrize(
        "name, error", [("convex_hull", DegenerateHullError), ("rasterize", DegeneratePolygonError)]
    )
    def test_degenerate_outline_keeps_rectangle(self, monkeypatch, name, error):
        def degenerate(*args):
            raise error(f"degenerate {name} input")

        monkeypatch.setattr(oodseg.patches, name, degenerate)
        # all four of the square's corners fall inside, so the hull is tried
        cand = PatchCandidate(donor=0, x0=18, y0=18, width=20, height=20)
        (patch,) = build_patches([self.square_donor()], [cand])
        assert patch.texture.shape == (20, 20, 3)
        assert patch.mask is None


class TestPaste:
    def target(self):
        return np.zeros((32, 32, 3), dtype=np.uint8)

    def test_later_patch_overwrites(self):
        from oodseg.patches import PolygonPatch

        t = self.target()
        full = np.ones((32, 32), dtype=bool)
        p1 = PolygonPatch(
            mask=full,
            texture=np.full((32, 32, 3), 10, dtype=np.uint8),
        )
        p2 = PolygonPatch(
            mask=full,
            texture=np.full((32, 32, 3), 20, dtype=np.uint8),
        )
        scene = paste_patches(t, [p1, p2], np.random.default_rng(0))
        assert scene.image.min() == 20 and scene.image.max() == 20
        assert scene.mask.all()
        assert np.all(scene.region_ids == 2)
        assert scene.skipped == 0

    def test_oversized_skipped_and_target_unchanged(self):
        from oodseg.patches import PolygonPatch

        t = self.target()
        big = PolygonPatch(
            mask=np.ones((40, 40), dtype=bool),
            texture=np.zeros((40, 40, 3), dtype=np.uint8),
        )
        scene = paste_patches(t, [big], np.random.default_rng(0))
        assert scene.skipped == 1
        assert not scene.mask.any()
        assert np.all(scene.region_ids == 0)
        np.testing.assert_array_equal(scene.image, t)

    def test_input_target_not_mutated(self):
        from oodseg.patches import PolygonPatch

        t = self.target()
        p = PolygonPatch(
            mask=np.ones((8, 8), dtype=bool),
            texture=np.full((8, 8, 3), 99, dtype=np.uint8),
        )
        paste_patches(t, [p], np.random.default_rng(1))
        assert t.max() == 0

    @staticmethod
    def mixed_patches(seed, oversized=False):
        """Twelve patches, every other one a mask-less rectangle; with
        ``oversized``, every third one is too tall for a 32x32 target."""
        from oodseg.patches import PolygonPatch

        rng = np.random.default_rng(seed)
        patches = []
        for i in range(12):
            h, w = rng.integers(4, 20, size=2)
            if oversized and i % 3 == 0:
                h = 33
            m = None if i % 2 == 0 else rng.uniform(size=(h, w)) < 0.6
            texture = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            patches.append(PolygonPatch(mask=m, texture=texture))
        return patches, rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)

    def test_rectangles_by_slice_match_the_masked_paste(self):
        def masked_paste(target, patches, rng):
            # every patch through boolean masks, a rectangle's all True
            img, mask = target.copy(), np.zeros(target.shape[:2], dtype=bool)
            ids = np.zeros(target.shape[:2], dtype=np.int32)
            for idx, patch in enumerate(patches):
                ph, pw = patch.texture.shape[:2]
                m = np.ones((ph, pw), dtype=bool) if patch.mask is None else patch.mask
                y0 = int(rng.integers(target.shape[0] - ph + 1))
                x0 = int(rng.integers(target.shape[1] - pw + 1))
                sub = (slice(y0, y0 + ph), slice(x0, x0 + pw))
                img[sub][m] = patch.texture[m]
                mask[sub] |= m
                ids[sub][m] = idx + 1
            return img, mask, ids

        patches, target = self.mixed_patches(41)
        scene = paste_patches(target, patches, np.random.default_rng(5))
        img, mask, ids = masked_paste(target, patches, np.random.default_rng(5))
        assert scene.image.tobytes() == img.tobytes()
        assert scene.mask.tobytes() == mask.tobytes()
        assert scene.region_ids.tobytes() == ids.tobytes()
        assert scene.region_ids.dtype == ids.dtype

    @pytest.mark.parametrize("oversized", [False, True])
    def test_explicit_all_true_mask_pastes_as_a_rectangle(self, oversized):
        """An all-True mask takes the masked path, a missing one the slice
        path; both give the same scene, byte for byte."""
        from oodseg.patches import PolygonPatch

        patches, target = self.mixed_patches(43, oversized)
        explicit = [
            PolygonPatch(mask=np.ones(p.texture.shape[:2], dtype=bool) if p.mask is None else p.mask, texture=p.texture)
            for p in patches
        ]
        a = paste_patches(target, patches, np.random.default_rng(7))
        b = paste_patches(target, explicit, np.random.default_rng(7))
        assert a.image.tobytes() == b.image.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()
        assert a.region_ids.tobytes() == b.region_ids.tobytes()
        assert a.skipped == b.skipped == (4 if oversized else 0)

    def test_region_ids_match_mask(self):
        rng = np.random.default_rng(19)
        donors = [rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8) for _ in range(2)]
        scene = synth_pasted_scene(self.target(), donors, 6, np.random.default_rng(2))
        np.testing.assert_array_equal(scene.mask, scene.region_ids > 0)
        assert scene.region_ids.max() <= 6


class TestSynthPastedScene:
    def test_deterministic_and_nonempty(self):
        rng = np.random.default_rng(23)
        donors = [rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8) for _ in range(3)]
        target = np.full((64, 64, 3), 30, dtype=np.uint8)
        a = synth_pasted_scene(target, donors, 5, np.random.default_rng(4))
        b = synth_pasted_scene(target, donors, 5, np.random.default_rng(4))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.region_ids, b.region_ids)
        assert a.skipped == 0  # donor/4 crops always fit a same-size target
        assert a.mask.any()
        # pasted pixels come from donors, everything else is the flat target
        assert np.all(a.image[~a.mask] == 30)

