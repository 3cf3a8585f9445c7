"""Adaptive refinement of pasted regions into anomaly / ignored pixel sets.

Pasted patches only *probably* look anomalous; the trainer therefore keeps
just the high-scoring part of the pasted area as positives.  A threshold is
searched over a fixed grid of candidates between the minimum and maximum
pasted score, minimizing either the plain sum of within-group variances
("eq11") or the count-weighted within-class variance ("otsu").  Pixels of
the pasted region at or above the winning threshold become the anomaly set,
the rest of the pasted region is ignored, and everything outside is the
in-distribution set.  Mode "none" skips the search and keeps the whole
pasted region as anomalies.
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


def search_threshold(scores, mode: str = "eq11") -> float:
    """Best threshold among ``NUM_BINS`` evenly spaced candidates.

    Ties go to the smallest candidate, which keeps the upper group as
    large as possible.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"mode must be one of {SEARCH_MODES}, got {mode!r}")
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise EmptyPastedRegionError("cannot search threshold over an empty score set")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    lo, hi = float(s.min()), float(s.max())
    if lo == hi:
        return lo
    cands = np.linspace(lo, hi, NUM_BINS)
    srt = np.sort(s)
    # center first: group variances from prefix sums of centered values stay
    # accurate even when the mean dwarfs the spread
    d = srt - srt.mean()
    p1 = np.r_[0.0, np.cumsum(d)]
    p2 = np.r_[0.0, np.cumsum(d * d)]
    n = s.size
    k = np.searchsorted(srt, cands, side="left")  # group sizes below each candidate
    k_lo = k.astype(np.float64)
    k_hi = (n - k).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        var_lo = p2[k] / k_lo - (p1[k] / k_lo) ** 2
        var_hi = (p2[n] - p2[k]) / k_hi - ((p1[n] - p1[k]) / k_hi) ** 2
    var_lo = np.where(k < 2, 0.0, np.maximum(var_lo, 0.0))
    var_hi = np.where(n - k < 2, 0.0, np.maximum(var_hi, 0.0))
    if mode == "eq11":
        obj = var_hi + var_lo
    else:
        obj = (k_hi * var_hi + k_lo * var_lo) / n
    return float(cands[np.argmin(obj)])  # argmin takes the first (smallest) tie


def refine_partition(
    score_values: np.ndarray,
    pasted_mask: np.ndarray,
    mode: str = "eq11",
    region_ids: np.ndarray | None = None,
    per_region: bool = False,
) -> PixelPartition:
    """Split an image into anomaly / in-distribution / ignored pixel sets.

    Pooled by default: one threshold over every pasted pixel.  With
    ``per_region`` each pasted region (by id) gets its own threshold.
    Mode "none" keeps every pasted pixel; its ``eta`` is the lowest pasted
    score.
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
    ids = np.asarray(region_ids) if per_region else np.zeros(pasted.shape, int)  # pooled: one group
    ood = np.zeros_like(pasted)
    for rid in sorted(set(ids[pasted].tolist())):  # np.unique's first call imports numpy.ma (~1 MB)
        group = pasted & (ids == rid)
        eta = scores[group].min() if mode == "none" else search_threshold(scores[group], mode)
        ood |= group & (scores >= eta)
    return PixelPartition(
        ood_mask=ood,
        id_mask=~pasted,
        ignored_mask=pasted & ~ood,
        eta=float("nan") if per_region else float(eta),
    )
