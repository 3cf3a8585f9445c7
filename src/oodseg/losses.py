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

from collections import namedtuple

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


# One stack of a batch: logits [B, 2, H, W], the anomaly and in-distribution
# masks and jem [B, H, W], and the pooled set sizes.  Every loss function
# also takes one as its ``items``.
_Batch = namedtuple("_Batch", "logits ood idm jem n_ood n_id")


def _stack(items) -> _Batch:
    if isinstance(items, _Batch):
        return items
    n_ood, n_id = pooled_set_sizes([p for _, _, p in items])
    logits = np.stack([logits for logits, _, _ in items])
    ood = np.stack([part.ood_mask for _, _, part in items])
    idm = np.stack([part.id_mask for _, _, part in items])
    jem = None if items[0][1] is None else np.stack([jem for _, jem, _ in items])  # None: no term reads it
    return _Batch(logits, ood, idm, jem, n_ood, n_id)


def batch_loss_tae(items) -> tuple[float, np.ndarray]:
    """Cross-entropy over pooled sets: mean(-log p1) on anomalies plus
    mean(-log p0) on in-distribution pixels.  ``items`` is a list of
    (head_logits [2,H,W], jem_values, partition) triples of one shape; jem
    is unused here.  The gradient comes back as one [B, 2, H, W] array.
    """
    logits, ood, idm, _, n_ood, n_id = _stack(items)
    m = np.max(logits, axis=1, keepdims=True)
    lp = logits - m - np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True))
    # the pooled value adds per-image masked sums, image by image
    value = sum(-lp[b, 1][ood[b]].sum() / n_ood - lp[b, 0][idm[b]].sum() / n_id for b in range(len(logits)))
    # d(-log p_o)/dlogits = softmax - onehot(o), averaged per set; ignored pixels keep 0.0
    d = np.exp(lp) - np.stack([idm, ood], axis=1)
    grads = np.divide(d, np.where(ood, n_ood, n_id)[:, None], out=np.zeros_like(d), where=(ood | idm)[:, None])
    return float(value), grads


def batch_loss_tore(items, gamma: float, margin: str = "dynamic") -> tuple[float, np.ndarray]:
    """Margin loss { mean_id(s) - mean_ood(s) + gamma }+ over pooled sets.

    Dynamic margin scores s = head[1] + jem; static scores s = head[1]
    alone (jem's contribution then lives in whatever gamma the caller
    passes).  Gradients land only on head channel 1 and only while the
    hinge is strictly active; they come back as one [B, 2, H, W] array.
    """
    if margin not in MARGIN_MODES:
        raise ValueError(f"margin must be one of {MARGIN_MODES}, got {margin!r}")
    logits, ood, idm, jem, n_ood, n_id = _stack(items)
    s = logits[:, 1] + jem if margin == "dynamic" else logits[:, 1]
    mean_id = sum(s[b][idm[b]].sum() / n_id for b in range(len(logits)))
    mean_ood = sum(s[b][ood[b]].sum() / n_ood for b in range(len(logits)))
    arg = mean_id - mean_ood + gamma
    grads = np.zeros_like(logits)
    if arg > 0.0:  # subgradient at exactly zero is zero
        grads[:, 1] = np.where(idm, 1.0 / n_id, np.where(ood, -1.0 / n_ood, 0.0))
    return float(max(arg, 0.0)), grads


def batch_total_loss(
    items,
    gamma: float,
    w_a: float = 1.0,
    w_o: float = 1.0,
    margin: str = "dynamic",
) -> tuple[float, float, float, np.ndarray]:
    batch = _stack(items)  # both terms read one stack
    l_a, grads_a = batch_loss_tae(batch)
    l_o, grads_o = batch_loss_tore(batch, gamma, margin)
    return w_a * l_a + w_o * l_o, l_a, l_o, w_a * grads_a + w_o * grads_o
