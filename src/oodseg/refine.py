"""Adaptive refinement of pasted regions into anomaly / ignored pixel sets.

Pasted patches only *probably* look anomalous; the trainer therefore keeps
just the high-scoring part of the pasted area as positives.  A threshold is
searched over a fixed grid of candidates between the minimum and maximum
pasted score, minimizing either the plain sum of within-group variances
("eq11") or the count-weighted within-class variance ("otsu").  Pixels of
the pasted region at or above the winning threshold become the anomaly set,
the rest of the pasted region is ignored, and everything outside is the
in-distribution set.  Mode "none" skips the search and keeps the whole
pasted region as anomalies.  Per-region thresholds come from one batched
objective whose counts are one ``np.searchsorted`` per region, in that
region's own sorted scores: bit for bit the thresholds of one search each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NUM_BINS = 256  # evenly spaced threshold candidates per search
SEARCH_MODES = ("eq11", "otsu")
MODES = (*SEARCH_MODES, "none")


class EmptyPastedRegionError(ValueError):
    """No pasted pixels to partition."""


@dataclass
class PixelPartition:
    ood_mask: np.ndarray      # bool [H, W]: high-scoring pasted pixels
    id_mask: np.ndarray       # bool [H, W]: everything never pasted over
    ignored_mask: np.ndarray  # bool [H, W]: low-scoring pasted pixels
    eta: float                # pooled threshold (nan when per-region)


def threshold_objective(scores, eta: float, mode: str = "eq11") -> float:
    """Within-group variance objective for one candidate threshold.

    Scores >= eta form the upper group, the rest the lower; a group with
    fewer than two members contributes zero variance.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"mode must be one of {SEARCH_MODES}, got {mode!r}")
    s = np.asarray(scores, dtype=np.float64).ravel()
    hi = s[s >= eta]
    lo = s[s < eta]
    var_hi = float(np.var(hi)) if hi.size >= 2 else 0.0
    var_lo = float(np.var(lo)) if lo.size >= 2 else 0.0
    if mode == "eq11":
        return var_hi + var_lo
    return (hi.size * var_hi + lo.size * var_lo) / s.size


def _grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``np.linspace(lo[g], hi[g], NUM_BINS)`` for every row g.  One linspace
    over arrays takes its subnormal branch for all rows if any step is 0."""
    delta, i = (hi - lo)[:, None], np.arange(NUM_BINS, dtype=np.float64)
    grid = i * (delta / (NUM_BINS - 1))
    zero_step = grid[:, 1] == 0
    if zero_step.any():
        grid[zero_step] = i / (NUM_BINS - 1) * delta[zero_step]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


def _group_means(v, sizes, member_group):
    """Each group's ``.mean()``, bit for bit.  reduceat adds the pairwise sum
    of a group's other values to its first, so each group is led by a zero."""
    led = np.zeros(v.size + sizes.size)
    led[np.arange(v.size) + member_group + 1] = v
    return np.add.reduceat(led, np.cumsum(sizes + 1) - sizes - 1) / sizes


def search_threshold(scores, mode: str = "eq11", groups=None):
    """Best threshold among ``NUM_BINS`` evenly spaced candidates.

    Ties go to the smallest candidate, which keeps the upper group as large as
    possible.  ``groups``, one non-negative integer label per score, returns
    one threshold per label present, in label order: one batched objective,
    counted by one ``np.searchsorted`` per label, bit for bit one search each.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"mode must be one of {SEARCH_MODES}, got {mode!r}")
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise EmptyPastedRegionError("cannot search threshold over an empty score set")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if groups is None:
        v, sizes = np.sort(s), np.array([s.size])
        means = np.array([v.mean()])
    else:
        labels = np.asarray(groups).ravel()
        if labels.shape != s.shape:
            raise ValueError(f"need one group label per score, got {labels.shape} for {s.shape}")
        counts = np.bincount(labels)
        sizes = counts[counts > 0]
        # sorted by score, then stably by group: small ints sort by radix
        to_group = (np.cumsum(counts > 0) - 1).astype(np.uint16 if sizes.size <= 1 << 16 else np.intp)
        by_score = np.argsort(s)
        v = s[by_score[np.argsort(to_group[labels[by_score]], kind="stable")]]
        means = _group_means(v, sizes, np.repeat(np.arange(sizes.size), sizes))
    n = sizes[:, None]
    starts = np.cumsum(sizes) - sizes
    lo, hi = v[starts] + 0.0, v[starts + sizes - 1] + 0.0  # a zero endpoint is +0.0, either sort order
    cands = _grid(lo, hi)
    k = np.array([np.searchsorted(v[a : a + m], c) for a, m, c in zip(starts, sizes, cands)])
    # center first: group variances from prefix sums of centered values stay
    # accurate even when the mean dwarfs the spread.  A row holds a zero, one
    # group's values, then zeros; its cumsum is the group's own prefix sum.
    p1 = np.zeros((sizes.size, sizes.max() + 1))
    p1[:, 1:][np.arange(sizes.max()) < n] = v - np.repeat(means, sizes)
    p2 = np.cumsum(p1 * p1, axis=1)
    p1 = np.cumsum(p1, axis=1)
    at = k + np.arange(0, p1.size, p1.shape[1])[:, None]
    p1_k, p2_k = p1.take(at), p2.take(at)
    p1_n, p2_n = p1[:, -1:], p2[:, -1:]  # each row's total, carried to its end
    k_lo = k.astype(np.float64)
    k_hi = n - k_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        var_lo = p2_k / k_lo - (p1_k / k_lo) ** 2
        var_hi = (p2_n - p2_k) / k_hi - ((p1_n - p1_k) / k_hi) ** 2
    var_lo = np.where(k_lo < 2, 0.0, np.maximum(var_lo, 0.0))
    var_hi = np.where(k_hi < 2, 0.0, np.maximum(var_hi, 0.0))
    if mode == "eq11":
        obj = var_hi + var_lo
    else:
        obj = (k_hi * var_hi + k_lo * var_lo) / n
    eta = np.where(lo == hi, lo, cands[np.arange(sizes.size), np.argmin(obj, axis=1)])  # first (smallest) tie
    return float(eta[0]) if groups is None else eta


def refine_partition(
    score_values: np.ndarray,
    pasted_mask: np.ndarray,
    mode: str = "eq11",
    region_ids: np.ndarray | None = None,
    per_region: bool = False,
) -> PixelPartition:
    """Split an image into anomaly / in-distribution / ignored pixel sets.

    Pooled by default: one threshold over every pasted pixel.  With
    ``per_region`` each pasted region (by non-negative integer id) gets its
    own threshold, all from one ``search_threshold`` call.  Mode "none"
    keeps every pasted pixel; its ``eta`` is the lowest pasted score.
    """
    scores = np.asarray(score_values, dtype=np.float64)
    pasted = np.asarray(pasted_mask, dtype=bool)
    if scores.shape != pasted.shape:
        raise ValueError(f"score/mask shape mismatch: {scores.shape} vs {pasted.shape}")
    if not pasted.any():
        raise EmptyPastedRegionError("pasted mask is empty")
    per_region = per_region and mode != "none"
    if per_region and region_ids is None:
        raise ValueError("per_region refinement needs region ids")
    s = scores[pasted]
    if mode == "none":
        eta = s.min()
    elif per_region:
        region = np.asarray(region_ids)[pasted]
        eta_of_region = np.zeros(region.max() + 1)
        eta_of_region[np.bincount(region) > 0] = search_threshold(s, mode, region)
    else:
        eta = search_threshold(s, mode)
    ood = np.zeros_like(pasted)
    ood[pasted] = s >= (eta_of_region[region] if per_region else eta)
    return PixelPartition(
        ood_mask=ood,
        id_mask=~pasted,
        ignored_mask=pasted & ~ood,
        eta=float("nan") if per_region else float(eta),
    )
