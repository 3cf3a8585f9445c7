"""Closed-form anomaly estimators on top of frozen segmentation logits.

The free energy of a pixel's class logits,

    jem(l) = -log sum_y exp(l[y]),

is low where the segmenter is confident and high elsewhere.  A trained
two-channel head refines it two ways: a task-agnostic binary log-probability
(log-softmax over the head channels) and a task-oriented residual whose
unnormalized log-probability is head[1] + jem (the shared normalizer is a
constant per parameter set and is never materialized).  The combined score

    combined = log p_tae(anomalous) + lam * (head[1] + jem)

is what training and evaluation rank pixels by.  Three sign-flipped
segmentation baselines (msp, entropy, max_logit) come along for comparison;
higher always means more anomalous.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .head import HeadParams, head_forward
from .tensorio import write_tensor


def _logsumexp0(x: np.ndarray) -> np.ndarray:
    # max-shifted along axis 0: finite for any finite logits (|l| up to ~700)
    m = np.max(x, axis=0)
    return m + np.log(np.sum(np.exp(x - m), axis=0))


def jem_map(seg_logits: np.ndarray) -> np.ndarray:
    """Free-energy score per pixel from [K, H, W] class logits."""
    return -_logsumexp0(np.asarray(seg_logits, dtype=np.float64))


def tae_log_prob_map(head_logits: np.ndarray) -> np.ndarray:
    """Binary log-probability of the anomalous head channel (channel 1)."""
    h = np.asarray(head_logits, dtype=np.float64)
    if h.shape[0] != 2:
        raise ValueError(f"head logits must have 2 channels, got {h.shape}")
    return h[1] - _logsumexp0(h)


def tore_residual_map(head_logits: np.ndarray, jem: np.ndarray) -> np.ndarray:
    """head[1] + jem, from the free-energy map ``jem`` of the seg logits."""
    h = np.asarray(head_logits, dtype=np.float64)
    if h.shape[0] != 2:
        raise ValueError(f"head logits must have 2 channels, got {h.shape}")
    return h[1] + jem


def combined_map(head_logits: np.ndarray, jem: np.ndarray, lam: float) -> np.ndarray:
    return tae_log_prob_map(head_logits) + lam * tore_residual_map(head_logits, jem)


def _softmax0(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=0))
    return e / np.sum(e, axis=0)


def msp_map(seg_logits: np.ndarray) -> np.ndarray:
    return -np.max(_softmax0(np.asarray(seg_logits, dtype=np.float64)), axis=0)


def entropy_map(seg_logits: np.ndarray) -> np.ndarray:
    p = _softmax0(np.asarray(seg_logits, dtype=np.float64))
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -np.sum(plogp, axis=0)


def max_logit_map(seg_logits: np.ndarray) -> np.ndarray:
    return -np.max(np.asarray(seg_logits, dtype=np.float64), axis=0)


# scorer -> map from (head logits, seg logits, their free energy, lam).  Head logits
# and free energy are zero-argument cached calls: a walk runs each at most once, and
# only if read.  Map functions are looked up at call time, so a rebound one reaches all.
_HEAD_MAPS = {
    "combined": lambda hl, seg, jem, lam: combined_map(hl(), jem(), lam),
    "tae": lambda hl, seg, jem, lam: tae_log_prob_map(hl()),
    "tore": lambda hl, seg, jem, lam: tore_residual_map(hl(), jem()),
}
_SEG_MAPS = {
    "jem": lambda hl, seg, jem, lam: jem(),
    "msp": lambda hl, seg, jem, lam: msp_map(seg),
    "entropy": lambda hl, seg, jem, lam: entropy_map(seg),
    "max_logit": lambda hl, seg, jem, lam: max_logit_map(seg),
}
_SCORER_MAPS = {**_HEAD_MAPS, **_SEG_MAPS}
SCORERS = tuple(_SCORER_MAPS)
HEAD_SCORERS = tuple(_HEAD_MAPS)  # need head logits as well as seg logits


def _score_maps(head, features, seg_logits, lam, scorers) -> dict[str, np.ndarray]:
    seg = np.asarray(seg_logits, dtype=np.float64)
    if seg.ndim != 3 or (head is not None and np.shape(features)[1:] != seg.shape[1:]):  # the head keeps H, W
        raise ValueError(f"seg logits must be [K, H, W] with the features' H, W: {seg.shape}, {np.shape(features)}")
    hl = functools.cache(lambda: head_forward(head, features, mode="eval")[0])
    jem = functools.cache(lambda: jem_map(seg))
    return {name: _SCORER_MAPS[name](hl, seg, jem, lam) for name in scorers}


def all_score_maps(
    head: HeadParams | None,
    features: np.ndarray,
    seg_logits: np.ndarray,
    lam: float,
) -> dict[str, np.ndarray]:
    """Every scorer's map in ``SCORERS`` order, head scorers' only with ``head``; one head forward, one jem map."""
    return _score_maps(head, features, seg_logits, lam, SCORERS if head is not None else tuple(_SEG_MAPS))


def score_map(
    head: HeadParams | None,
    features: np.ndarray,
    seg_logits: np.ndarray,
    lam: float,
    scorer: str,
) -> np.ndarray:
    """[H, W] map of one scorer; the eval-mode head and jem map run only if it reads them."""
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    if head is None and scorer in HEAD_SCORERS:
        raise ValueError(f"scorer {scorer!r} needs head parameters")
    return _score_maps(head, features, seg_logits, lam, [scorer])[scorer]


def save_score_map(path: str | Path, values: np.ndarray, scorer: str, lam: float) -> None:
    """TNSR values plus a text sidecar recording scorer and lambda."""
    write_tensor(path, values)
    Path(f"{path}.txt").write_text(f"scorer={scorer}\nlambda={lam!r}\n")
