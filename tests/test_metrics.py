"""Metric tests against brute-force oracles.

The oracles deliberately use different formulations: pairwise comparison
counting for AUROC, and explicit threshold enumeration for AP and
FPR@TPR.  Tie-heavy inputs are the interesting case throughout.  A copy of
the earlier three-sort formulation (midrank AUROC, one stable sort per
metric) pins the single-sort implementation bit for bit.
"""

import numpy as np
import pytest

from oodseg.metrics import (
    EvalResult,
    MetricInputError,
    auroc,
    average_precision,
    evaluate_scores,
    fpr_at_tpr,
)


def oracle_auroc(scores, labels):
    """P(pos > neg) + 0.5 P(pos == neg) by counting every pair."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def oracle_operating_points(scores, labels):
    """(tp, fp) after thresholding at each distinct score, descending."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    points = []
    for t in sorted(set(s), reverse=True):
        keep = s >= t
        points.append((int(y[keep].sum()), int(keep.sum() - y[keep].sum())))
    return points


def oracle_ap(scores, labels):
    y = np.asarray(labels)
    n_pos = y.sum()
    ap = 0.0
    prev_recall = 0.0
    for tp, fp in oracle_operating_points(scores, labels):
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def oracle_fpr_at_tpr(scores, labels, target):
    y = np.asarray(labels)
    n_pos = y.sum()
    n_neg = len(y) - n_pos
    for tp, fp in oracle_operating_points(scores, labels):
        if tp / n_pos >= target:
            return fp / n_neg
    raise AssertionError("unreachable: final point has tpr 1.0")


def _reference_tie_groups(s, y):
    order = np.argsort(-s, kind="mergesort")
    s = s[order]
    y = y[order]
    last = np.r_[s[:-1] != s[1:], True]
    return np.cumsum(y)[last].astype(np.float64), np.cumsum(1 - y)[last].astype(np.float64)


def reference_evaluate(scores, labels, target=0.95):
    """The three-sort formulation that ``evaluate_scores`` replaced."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel().astype(np.int64)
    n = s.size
    n_pos = int(y.sum())
    n_neg = n - n_pos

    cum_tp, cum_fp = _reference_tie_groups(s, y)
    recall = cum_tp / float(n_pos)
    precision = cum_tp / (cum_tp + cum_fp)
    ap = float(np.sum(np.diff(np.r_[0.0, recall]) * precision))

    order = np.argsort(s, kind="mergesort")
    ss = s[order]
    starts = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum = float(ranks[y == 1].sum())
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    cum_tp, cum_fp = _reference_tie_groups(s, y)
    hit = np.flatnonzero(cum_tp / float(n_pos) >= target)
    fpr = float(cum_fp[hit[0]] / float(n_neg))
    return EvalResult(ap=ap, auroc=auc, fpr95=fpr, n_pos=n_pos, n_neg=n_neg)


class TestFrozenValues:
    def test_ap_example(self):
        # one false positive between two hits
        assert average_precision([3.0, 2.0, 1.0], [1, 0, 1]) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_auroc_perfect_and_inverted(self):
        assert auroc([2.0, 1.0], [1, 0]) == 1.0
        assert auroc([1.0, 2.0], [1, 0]) == 0.0

    def test_auroc_all_tied_is_half(self):
        assert auroc([5.0, 5.0, 5.0, 5.0], [1, 0, 1, 0]) == 0.5

    def test_fpr_at_tpr_basic(self):
        # scores 4,3,2,1 with positives at 4 and 2: tpr hits 1.0 once the
        # threshold drops to 2, by which point one of two negatives is in
        assert fpr_at_tpr([4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0], 0.95) == 0.5
        assert fpr_at_tpr([4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0], 0.5) == 0.0

    def test_tied_group_is_one_operating_point(self):
        # the tie group enters as a block: fpr at tpr>=0.5 jumps straight to 1.0
        scores = [2.0, 2.0, 2.0, 1.0]
        labels = [1, 0, 0, 1]
        assert fpr_at_tpr(scores, labels, 0.5) == 1.0

    def test_evaluate_scores_bundle(self):
        r = evaluate_scores([3.0, 2.0, 1.0], [1, 0, 1])
        assert isinstance(r, EvalResult)
        assert r.n_pos == 2 and r.n_neg == 1
        assert r.ap == pytest.approx(5.0 / 6.0, abs=1e-15)
        # pos scores {3, 1} vs the lone neg 2: one win, one loss
        assert r.auroc == pytest.approx(0.5, abs=1e-15)


class TestAgainstOracles:
    def test_heavy_ties_random(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(5, 60))
            # few distinct values forces many ties
            vals = rng.integers(0, 5, size=n).astype(np.float64) / 2.0
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert auroc(vals, labels) == pytest.approx(oracle_auroc(vals, labels), abs=1e-12)
            assert average_precision(vals, labels) == pytest.approx(oracle_ap(vals, labels), abs=1e-12)
            target = float(rng.uniform(0.05, 1.0))
            assert fpr_at_tpr(vals, labels, target) == pytest.approx(
                oracle_fpr_at_tpr(vals, labels, target), abs=1e-12
            )

    def test_continuous_scores(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(10, 80))
            vals = rng.standard_normal(n)
            labels = (rng.uniform(size=n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert auroc(vals, labels) == pytest.approx(oracle_auroc(vals, labels), abs=1e-12)
            assert average_precision(vals, labels) == pytest.approx(oracle_ap(vals, labels), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(50)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        stretched = 3.0 * vals - 7.0
        assert auroc(vals, labels) == auroc(stretched, labels)
        assert average_precision(vals, labels) == average_precision(stretched, labels)
        assert fpr_at_tpr(vals, labels, 0.9) == fpr_at_tpr(stretched, labels, 0.9)


class TestValidation:
    def test_single_class_rejected(self):
        with pytest.raises(MetricInputError):
            auroc([1.0, 2.0], [1, 1])
        with pytest.raises(MetricInputError):
            auroc([1.0, 2.0], [0, 0])

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(MetricInputError):
            average_precision([1.0, 2.0], [0, 2])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(MetricInputError):
            auroc([np.nan, 1.0], [0, 1])
        with pytest.raises(MetricInputError):
            auroc([np.inf, 1.0], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(MetricInputError):
            auroc([], [])

    def test_length_mismatch(self):
        with pytest.raises(MetricInputError):
            auroc([1.0, 2.0], [0, 1, 1])

    def test_bad_target(self):
        with pytest.raises(MetricInputError):
            fpr_at_tpr([1.0, 2.0], [0, 1], 0.0)
        with pytest.raises(MetricInputError):
            fpr_at_tpr([1.0, 2.0], [0, 1], 1.5)


def _both_classes(labels):
    if labels.sum() in (0, labels.size):
        labels[0] = 1 - labels[0]
    return labels


class TestMatchesThreeSortReference:
    """``evaluate_scores``, and ``fpr_at_tpr`` at other targets, equal the
    earlier formulation exactly, not approximately."""

    @staticmethod
    def check(scores, labels):
        assert evaluate_scores(scores, labels) == reference_evaluate(scores, labels)
        for target in (0.5, 1.0):
            assert fpr_at_tpr(scores, labels, target) == reference_evaluate(scores, labels, target).fpr95

    def test_tie_heavy_and_continuous(self):
        rng = np.random.default_rng(3)
        for trial in range(60):
            n = int(rng.integers(2, 400))
            labels = _both_classes((rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(int))
            self.check(rng.integers(0, 6, size=n) / 4.0, labels)
            self.check(rng.standard_normal(n), labels)

    def test_signed_zeros(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(2, 300))
            scores = rng.choice([0.0, -0.0, 1.0, -1.5], size=n)
            self.check(scores, _both_classes(rng.integers(0, 2, size=n)))
        self.check([0.0, -0.0, -0.0, 0.0], [1, 0, 1, 0])

    def test_all_tied(self):
        rng = np.random.default_rng(9)
        labels = _both_classes(rng.integers(0, 2, size=257))
        self.check(np.full(257, 3.25), labels)

    def test_single_positive_and_single_negative(self):
        rng = np.random.default_rng(13)
        scores = rng.integers(0, 20, size=500) / 3.0
        for lone in (0, 250, 499):
            one_pos = np.zeros(500, dtype=int)
            one_pos[lone] = 1
            self.check(scores, one_pos)
            self.check(scores, 1 - one_pos)

    def test_integer_scores(self):
        rng = np.random.default_rng(17)
        scores = rng.integers(-50, 50, size=1000)
        self.check(scores, _both_classes(rng.integers(0, 2, size=1000)))

    def test_full_size_pixel_sets(self):
        rng = np.random.default_rng(19)
        n = 65536
        labels = (rng.uniform(size=n) < 0.08).astype(np.int64)
        self.check(rng.standard_normal(n), labels)
        self.check(np.round(rng.standard_normal(n), 2), labels)

    def test_bad_target_rejected_first(self):
        with pytest.raises(MetricInputError, match="target"):
            fpr_at_tpr([], [], 0.0)
