"""Exact threshold-free detection metrics over pixel score sets.

All three metrics are read from one curve: the (score, label) pairs are
sorted once and tied scores are collapsed into a single operating point,
so nothing is interpolated.  AUROC is the Mann–Whitney U statistic
counted over the same tie groups (a tie counts one half).  Every metric is
invariant under strictly increasing transforms of the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricInputError(ValueError):
    """Score/label sets that no metric is defined on."""


FPR_TPR = 0.95  # the TPR at which evaluate_scores reads its fpr95 column


@dataclass(frozen=True)
class EvalResult:
    ap: float
    auroc: float
    fpr95: float
    n_pos: int
    n_neg: int


def _checked(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise MetricInputError(f"length mismatch: {s.shape} vs {y.shape}")
    if s.size == 0:
        raise MetricInputError("empty score set")
    if not np.all((y == 0) | (y == 1)):
        raise MetricInputError("labels must be 0 or 1")
    if not np.all(np.isfinite(s)):
        raise MetricInputError("scores must be finite")
    y = y.astype(np.int64)
    n_pos = y.sum()
    if n_pos == 0 or n_pos == y.size:
        raise MetricInputError("need at least one positive and one negative")
    return s, y


class _Curve:
    """Tie groups in descending score order, with the cumulative true and
    false positive counts at the end of each group."""

    def __init__(self, scores, labels):
        s, y = _checked(scores, labels)
        # Only per-group totals are read, so the order inside a tie is free.
        order = np.argsort(s)[::-1]
        s = s[order]
        last = np.r_[s[:-1] != s[1:], True]
        self.tp = np.cumsum(y[order])[last]
        self.fp = np.flatnonzero(last) + 1 - self.tp
        self.n_pos = int(self.tp[-1])
        self.n_neg = int(self.fp[-1])
        self.tpr = self.tp / self.n_pos

    def average_precision(self) -> float:
        precision = self.tp / (self.tp + self.fp)
        return float(np.sum(np.diff(np.r_[0.0, self.tpr]) * precision))

    def auroc(self) -> float:
        # 2U = sum over groups of pos_g * (2 * neg_below_g + neg_g), exact in
        # int64.  The midrank rank-sum form of U is a sum of half-integers,
        # exact in float64 while N**2 < 2**53; under that bound both forms
        # give the same U and one correctly rounded division, bit for bit.
        pos = np.diff(self.tp, prepend=0)
        neg = np.diff(self.fp, prepend=0)
        two_u = int(np.sum(pos * (2 * (self.n_neg - self.fp) + neg)))
        return two_u / (2 * self.n_pos * self.n_neg)

    def fpr_at_tpr(self, target: float) -> float:
        # TPR reaches 1.0 at the loosest threshold, so a hit always exists
        hit = int(np.argmax(self.tpr >= target))
        return float(self.fp[hit] / self.n_neg)


def auroc(scores, labels) -> float:
    """Area under the ROC curve: P(pos > neg) + P(pos == neg) / 2."""
    return _Curve(scores, labels).auroc()


def average_precision(scores, labels) -> float:
    """AP as the sum of precision-weighted recall increments, no interpolation."""
    return _Curve(scores, labels).average_precision()


def fpr_at_tpr(scores, labels, target: float) -> float:
    """FPR at the first grouped operating point whose TPR reaches ``target``."""
    if not 0.0 < target <= 1.0:
        raise MetricInputError(f"target must be in (0, 1], got {target}")
    return _Curve(scores, labels).fpr_at_tpr(target)


def evaluate_scores(scores, labels) -> EvalResult:
    """Every metric of one score set; FPR is read at TPR ``FPR_TPR``."""
    curve = _Curve(scores, labels)
    return EvalResult(
        ap=curve.average_precision(),
        auroc=curve.auroc(),
        fpr95=curve.fpr_at_tpr(FPR_TPR),
        n_pos=curve.n_pos,
        n_neg=curve.n_neg,
    )
