"""Training objectives for the anomaly head.

Two terms, both defined on a refined pixel partition:

* a binary cross-entropy that pushes the task-agnostic estimator toward
  predicting "anomalous" on the refined pasted pixels and "normal" on the
  untouched ones, each side averaged over its own set;
* a hinge on the gap between the per-set means of the residual score
  s = head[1] + jem, with margin gamma.  Eliminating the jem terms and
  folding them into the margin instead (the "static" variant) is the same
  function; both forms are available because the ablation compares a truly
  static margin against the dynamic one.

The hinge subgradient at an exactly-zero argument is taken as zero.
Gradients are returned with respect to the head logits; ignored pixels
get exactly zero gradient.
"""

from __future__ import annotations

import numpy as np

MARGIN_MODES = ("dynamic", "static")


class DegeneratePartitionError(ValueError):
    """A loss term has an empty anomaly or in-distribution set."""


def pooled_set_sizes(partitions) -> tuple[int, int]:
    """|ood| and |id| pooled over ``partitions``; either being empty is degenerate."""
    n_ood = sum(int(p.ood_mask.sum()) for p in partitions)
    n_id = sum(int(p.id_mask.sum()) for p in partitions)
    if n_ood == 0 or n_id == 0:
        raise DegeneratePartitionError(f"need both sets populated, got |ood|={n_ood} |id|={n_id}")
    return n_ood, n_id


def _log_softmax2(logits: np.ndarray) -> np.ndarray:
    m = np.max(logits, axis=0)
    return logits - m - np.log(np.sum(np.exp(logits - m), axis=0))


def batch_loss_tae(items) -> tuple[float, list[np.ndarray]]:
    """Cross-entropy over pooled sets: mean(-log p1) on anomalies plus
    mean(-log p0) on in-distribution pixels.  ``items`` is a list of
    (head_logits [2,H,W], jem_values, partition) triples; jem is unused here.
    """
    n_ood, n_id = pooled_set_sizes([p for _, _, p in items])
    value = 0.0
    grads = []
    for logits, _, part in items:
        lp = _log_softmax2(logits)
        value += -lp[1][part.ood_mask].sum() / n_ood - lp[0][part.id_mask].sum() / n_id
        p = np.exp(lp)
        g = np.zeros_like(logits)
        # d(-log p_o)/dlogits = softmax - onehot(o), averaged per set
        g[:, part.ood_mask] = (p[:, part.ood_mask] - np.array([[0.0], [1.0]])) / n_ood
        g[:, part.id_mask] = (p[:, part.id_mask] - np.array([[1.0], [0.0]])) / n_id
        grads.append(g)
    return float(value), grads


def batch_loss_tore(items, gamma: float, margin: str = "dynamic") -> tuple[float, list[np.ndarray]]:
    """Margin loss { mean_id(s) - mean_ood(s) + gamma }+ over pooled sets.

    Dynamic margin scores s = head[1] + jem; static scores s = head[1]
    alone (jem's contribution then lives in whatever gamma the caller
    passes).  Gradients land only on head channel 1 and only while the
    hinge is strictly active.
    """
    if margin not in MARGIN_MODES:
        raise ValueError(f"margin must be one of {MARGIN_MODES}, got {margin!r}")
    n_ood, n_id = pooled_set_sizes([p for _, _, p in items])
    mean_id = 0.0
    mean_ood = 0.0
    for logits, jem, part in items:
        s = logits[1] + jem if margin == "dynamic" else logits[1]
        mean_id += s[part.id_mask].sum() / n_id
        mean_ood += s[part.ood_mask].sum() / n_ood
    arg = mean_id - mean_ood + gamma
    value = max(arg, 0.0)
    grads = []
    for logits, _, part in items:
        g = np.zeros_like(logits)
        if arg > 0.0:  # subgradient at exactly zero is zero
            g[1][part.id_mask] = 1.0 / n_id
            g[1][part.ood_mask] = -1.0 / n_ood
        grads.append(g)
    return float(value), grads


def batch_total_loss(
    items,
    gamma: float,
    w_a: float = 1.0,
    w_o: float = 1.0,
    margin: str = "dynamic",
) -> tuple[float, float, float, list[np.ndarray]]:
    l_a, grads_a = batch_loss_tae(items)
    l_o, grads_o = batch_loss_tore(items, gamma, margin)
    total = w_a * l_a + w_o * l_o
    grads = [w_a * ga + w_o * go for ga, go in zip(grads_a, grads_o)]
    return total, l_a, l_o, grads
