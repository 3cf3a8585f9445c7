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

A batch is a list of (logits, jem, partition) triples, one per scene of
any shape; both sets pool over it, and the gradient with respect to the
logits comes back per triple, exactly zero on ignored pixels.  The hinge
subgradient at an exactly-zero argument is taken as zero.
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


def batch_loss_tae(items) -> tuple[float, list[np.ndarray]]:
    """Cross-entropy over pooled sets: mean(-log p1) on anomalies plus
    mean(-log p0) on in-distribution pixels.  ``items`` is a list of
    (head_logits [2,H,W], jem_values, partition) triples; jem is unused
    here.  The gradient comes back as one [2, H, W] array per triple.
    """
    n_ood, n_id = pooled_set_sizes([p for _, _, p in items])
    value, grads = 0, []
    for logits, _, part in items:
        ood, idm = part.ood_mask, part.id_mask
        x = logits - np.maximum(logits[0], logits[1])
        e = np.exp(x)
        lp = x - np.log(e[0] + e[1])
        # the pooled value adds per-image masked sums, image by image
        value += -lp[1][ood].sum() / n_ood - lp[0][idm].sum() / n_id
        # d(-log p_o)/dlogits = softmax - onehot(o), averaged per set; ignored pixels keep 0.0
        d = np.exp(lp) - np.stack([idm, ood])
        grads.append(np.divide(d, np.where(ood, float(n_ood), float(n_id)), out=np.zeros_like(d), where=ood | idm))
    return float(value), grads


def batch_loss_tore(items, gamma: float, margin: str = "dynamic") -> tuple[float, list[np.ndarray]]:
    """Margin loss { mean_id(s) - mean_ood(s) + gamma }+ over pooled sets.

    Dynamic margin scores s = head[1] + jem; static scores s = head[1]
    alone (jem's contribution then lives in whatever gamma the caller
    passes).  Gradients land only on head channel 1 and only while the
    hinge is strictly active; they come back as one [2, H, W] array per
    triple of ``items``.
    """
    if margin not in MARGIN_MODES:
        raise ValueError(f"margin must be one of {MARGIN_MODES}, got {margin!r}")
    n_ood, n_id = pooled_set_sizes([p for _, _, p in items])
    mean_id = mean_ood = 0
    for logits, jem, part in items:
        s = logits[1] + jem if margin == "dynamic" else logits[1]
        mean_id += s[part.id_mask].sum() / n_id
        mean_ood += s[part.ood_mask].sum() / n_ood
    arg = mean_id - mean_ood + gamma
    grads = [np.zeros_like(logits) for logits, _, _ in items]
    if arg > 0.0:  # subgradient at exactly zero is zero
        for g, (_, _, part) in zip(grads, items):
            g[1] = np.where(part.id_mask, 1.0 / n_id, np.where(part.ood_mask, -1.0 / n_ood, 0.0))
    return float(max(arg, 0.0)), grads


def batch_total_loss(
    items,
    gamma: float,
    w_a: float = 1.0,
    w_o: float = 1.0,
    margin: str = "dynamic",
) -> tuple[float, float, float, list[np.ndarray]]:
    l_a, grads_a = batch_loss_tae(items)
    l_o, grads_o = batch_loss_tore(items, gamma, margin)
    return w_a * l_a + w_o * l_o, l_a, l_o, [w_a * ga + w_o * go for ga, go in zip(grads_a, grads_o)]
