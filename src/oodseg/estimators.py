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


def tore_residual_map(head_logits: np.ndarray, seg_logits: np.ndarray) -> np.ndarray:
    h = np.asarray(head_logits, dtype=np.float64)
    if h.shape[0] != 2:
        raise ValueError(f"head logits must have 2 channels, got {h.shape}")
    return h[1] + jem_map(seg_logits)


def combined_map(head_logits: np.ndarray, seg_logits: np.ndarray, lam: float = 0.5) -> np.ndarray:
    return tae_log_prob_map(head_logits) + lam * tore_residual_map(head_logits, seg_logits)


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


# scorer -> map from (head logits, seg logits, lam); head logits are None for
# scorers outside HEAD_SCORERS.  The entries look map functions up at call
# time, so a rebound module attribute reaches every caller.
_HEAD_MAPS = {
    "combined": lambda hl, seg, lam: combined_map(hl, seg, lam),
    "tae": lambda hl, seg, lam: tae_log_prob_map(hl),
    "tore": lambda hl, seg, lam: tore_residual_map(hl, seg),
}
_SCORER_MAPS = {
    **_HEAD_MAPS,
    "jem": lambda hl, seg, lam: jem_map(seg),
    "msp": lambda hl, seg, lam: msp_map(seg),
    "entropy": lambda hl, seg, lam: entropy_map(seg),
    "max_logit": lambda hl, seg, lam: max_logit_map(seg),
}
SCORERS = tuple(_SCORER_MAPS)
HEAD_SCORERS = tuple(_HEAD_MAPS)  # need head logits as well as seg logits


def all_score_maps(
    head: HeadParams | None,
    features: np.ndarray,
    seg_logits: np.ndarray,
    lam: float = 0.5,
) -> dict[str, np.ndarray]:
    """Every scorer's map from one head forward; head-based maps need ``head``."""
    hl = head_forward(head, features, mode="eval")[0] if head is not None else None
    out = {
        name: fn(hl, seg_logits, lam)
        for name, fn in _SCORER_MAPS.items()
        if name != "combined" and (hl is not None or name not in HEAD_SCORERS)
    }
    if hl is not None:  # combined_map's sum, reusing the tae and tore maps
        out["combined"] = out["tae"] + lam * out["tore"]
    return out


def score_map(
    head: HeadParams | None,
    features: np.ndarray,
    seg_logits: np.ndarray,
    lam: float = 0.5,
    scorer: str = "combined",
) -> np.ndarray:
    """[H, W] score map for one scorer; eval-mode head, frozen inputs."""
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    seg = np.asarray(seg_logits, dtype=np.float64)
    if seg.ndim != 3:
        raise ValueError(f"seg logits must be [K, H, W], got shape {seg.shape}")
    hl = None
    if scorer in HEAD_SCORERS:
        if head is None:
            raise ValueError(f"scorer {scorer!r} needs head parameters")
        hl, _ = head_forward(head, features, mode="eval")
        if hl.shape[1:] != seg.shape[1:]:
            raise ValueError(f"head/seg spatial mismatch: {hl.shape} vs {seg.shape}")
    return _SCORER_MAPS[scorer](hl, seg, lam)


def save_score_map(path: str | Path, values: np.ndarray, scorer: str, lam: float) -> None:
    """TNSR values plus a text sidecar recording scorer and lambda."""
    path = Path(path)
    write_tensor(path, values)
    path.with_suffix(path.suffix + ".txt").write_text(f"scorer={scorer}\nlambda={lam!r}\n")
