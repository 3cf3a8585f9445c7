"""Self-supervised training loop and evaluation for the anomaly head.

Each iteration builds a batch of pasted scenes and runs one train-mode
head forward per scene.  It scores the pasted pixels (free energy alone
during warmup, afterwards the combined score of that forward's detached
logits, which use the scene's own BN batch statistics), refines the
pasted regions into anomaly/ignored sets, and takes one Adam step on the
pooled loss.  The BN running statistics move only once an iteration has
passed every abort point.  Everything upstream of the head
is frozen; a digest over the frozen model guards against accidental
updates.  All randomness flows from per-(iteration, slot) streams derived
from the master seed, so runs are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .estimators import HEAD_SCORERS, SCORERS, all_score_maps, combined_map, jem_map
from .head import (
    HeadConfig,
    HeadParams,
    commit_batch_stats,
    head_backward,
    head_forward,
    head_init,
)
from .losses import MARGIN_MODES, DegeneratePartitionError, batch_total_loss, pooled_set_sizes
from .metrics import EvalResult, evaluate_scores
from .patches import PatchConfig, donor_corners, synth_pasted_scene
from .refine import MODES as REFINE_MODES
from .refine import EmptyPastedRegionError, refine_partition
from .synthworld import FrozenModel, frozen_digest, frozen_encoder, seg_logits_map
from .tensorio import IGNORE


class TrainingAbortedError(RuntimeError):
    """Too many iterations hit degenerate partitions."""


class TrainingDivergedError(RuntimeError):
    """A refinement score or the loss is not finite; the message names the iteration."""


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 8
    warmup_iters: int = 200     # free-energy-only refinement before this iteration
    gamma: float = 15.0
    n_patches: int = 10
    lam: float = 0.5
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    refine_mode: str = "eq11"   # "eq11" | "otsu" | "none" (keep whole pasted region)
    per_region: bool = False
    margin: str = "dynamic"
    w_a: float = 1.0
    w_o: float = 1.0
    max_abort_frac: float = 0.1
    patch: PatchConfig = field(default_factory=PatchConfig)

    def __post_init__(self):
        if self.iterations < 1 or self.batch_size < 1 or self.n_patches < 1:
            raise ValueError("iterations, batch_size, n_patches must be >= 1")
        if self.warmup_iters < 0:
            raise ValueError(f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.refine_mode not in REFINE_MODES:
            raise ValueError(f"refine_mode must be one of {REFINE_MODES}, got {self.refine_mode!r}")
        if self.margin not in MARGIN_MODES:
            raise ValueError(f"margin must be one of {MARGIN_MODES}, got {self.margin!r}")
        if self.w_a < 0.0 or self.w_o < 0.0:
            raise ValueError("loss weights must be >= 0")
        if not 0.0 <= self.max_abort_frac <= 1.0:
            raise ValueError(f"max_abort_frac must be in [0, 1], got {self.max_abort_frac}")


@dataclass(frozen=True)
class LogRecord:
    iteration: int
    l_a: float
    l_o: float
    n_ood: int
    n_ignored: int
    eta: float
    ms: float


@dataclass
class TrainLog:
    records: list[LogRecord] = field(default_factory=list)
    aborted: int = 0


class AdamState:
    def __init__(self, params: HeadParams):
        self.m = {name: np.zeros_like(arr) for name, arr in params.trainable()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.trainable()}
        self.t = 0

    def step(self, params: HeadParams, grads: dict[str, np.ndarray], cfg: TrainConfig) -> None:
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name, arr in params.trainable():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            arr -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)


def _prepare_example(
    images: list[np.ndarray],
    corners: list[np.ndarray],
    frozen: FrozenModel,
    head: HeadParams,
    cfg: TrainConfig,
    iteration: int,
    slot: int,
):
    """Steps per batch slot: paste, encode, train-mode forward, score, partition.

    The slot's one head forward runs before refinement.  After warmup its
    detached logits score the pasted pixels, so refinement sees the slot's
    own BN batch statistics rather than the running statistics; warmup
    scores with the free energy alone.  The head is not changed: the
    returned cache carries the batch statistics for ``commit_batch_stats``.
    ``corners`` runs parallel to ``images`` (``donor_corners`` of each);
    the target leaves both lists, so every donor keeps its own corners.
    Returns ((logits, jem, partition), cache).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(iteration, slot)))
    t_idx = int(rng.integers(len(images)))
    donors = images[:t_idx] + images[t_idx + 1 :]
    donor_pts = corners[:t_idx] + corners[t_idx + 1 :]
    scene = synth_pasted_scene(images[t_idx], donors, cfg.n_patches, rng, cfg.patch, donor_pts)
    feats = frozen_encoder(frozen, scene.image)
    seg = seg_logits_map(frozen, feats)
    jem = jem_map(seg)
    logits, cache = head_forward(head, feats.astype(np.float32), mode="train")  # the head trains in float32
    logits = logits.astype(np.float64)
    score = jem if iteration < cfg.warmup_iters else combined_map(logits, seg, cfg.lam)
    if not np.isfinite(score).all():
        raise TrainingDivergedError(f"iteration {iteration}: refinement score is not finite")
    part = refine_partition(
        score,
        scene.mask,
        mode=cfg.refine_mode,
        region_ids=scene.region_ids,
        per_region=cfg.per_region,
    )
    return (logits, jem, part), cache


def _step(
    images: list[np.ndarray],
    corners: list[np.ndarray],
    frozen: FrozenModel,
    head: HeadParams,
    adam: AdamState,
    cfg: TrainConfig,
    iteration: int,
    slots: list,
) -> tuple[float, float, int, int, float]:
    """One training iteration; returns (l_a, l_o, n_ood, n_ignored, eta).

    ``slots`` holds each batch slot's example from the previous iteration,
    head cache included, and each is replaced as soon as its successor
    exists.  So at most one cache more than the batch is alive, and the
    allocator hands a released cache's memory to the next slot.  Releasing
    every cache at the end of the iteration instead returns their memory
    to the system, and the next iteration faults it back in page by page.
    """
    for s in range(cfg.batch_size):
        slots[s] = _prepare_example(images, corners, frozen, head, cfg, iteration, s)
    items = [item for item, _ in slots]
    parts = [part for _, _, part in items]
    n_ood, _ = pooled_set_sizes(parts)
    total, l_a, l_o, grads = batch_total_loss(items, cfg.gamma, cfg.w_a, cfg.w_o, cfg.margin)
    if not np.isfinite([total, l_a, l_o]).all():
        raise TrainingDivergedError(f"iteration {iteration}: loss is not finite")
    caches = [cache for _, cache in slots]
    total_grads: dict[str, np.ndarray] | None = None
    for cache, g_logits in zip(caches, grads):
        g = head_backward(head, cache, g_logits)
        if total_grads is None:
            total_grads = g
        else:
            for name in total_grads:
                total_grads[name] += g[name]
    # past every abort point: only a completed iteration moves BN state
    commit_batch_stats(head, caches)
    adam.step(head, total_grads, cfg)
    n_ignored = sum(int(p.ignored_mask.sum()) for p in parts)
    return float(l_a), float(l_o), n_ood, n_ignored, float(np.mean([p.eta for p in parts]))


def train(
    train_images: list[np.ndarray],
    frozen: FrozenModel,
    cfg: TrainConfig,
    head_config: HeadConfig | None = None,
) -> tuple[HeadParams, TrainLog]:
    """Train the head on pasted scenes; returns final parameters and the log.

    One record per completed iteration; iterations whose partition is
    degenerate are skipped and counted, and more than
    ``max_abort_frac`` of them fails the run.  A non-finite refinement
    score or loss raises ``TrainingDivergedError`` at once.
    """
    if len(train_images) < 2:
        raise ValueError(f"need >= 2 training images, got {len(train_images)}")
    digest_before = frozen_digest(frozen)
    head_cfg = head_config or HeadConfig(feature_dim=frozen.feature_dim)
    if head_cfg.feature_dim != frozen.feature_dim:
        raise ValueError(
            f"head expects {head_cfg.feature_dim} channels, frozen model emits {frozen.feature_dim}"
        )
    head = head_init(head_cfg, seed=cfg.seed)
    adam = AdamState(head)
    log = TrainLog()
    # one Harris pass per training image, keyed by its index in train_images
    corners = [donor_corners(image, cfg.patch) for image in train_images]
    slots = [None] * cfg.batch_size
    for it in range(cfg.iterations):
        tic = time.perf_counter()
        try:
            # a diverging head overflows float32 first; the explicit score and
            # loss checks in _step report that, naming the iteration
            with np.errstate(over="ignore", invalid="ignore"):
                stats = _step(train_images, corners, frozen, head, adam, cfg, it, slots)
        except (EmptyPastedRegionError, DegeneratePartitionError):
            log.aborted += 1
            continue
        log.records.append(LogRecord(it, *stats, ms=(time.perf_counter() - tic) * 1000.0))
    if log.aborted > cfg.max_abort_frac * cfg.iterations:
        raise TrainingAbortedError(
            f"{log.aborted}/{cfg.iterations} iterations aborted on degenerate partitions"
        )
    if frozen_digest(frozen) != digest_before:
        raise RuntimeError("frozen model changed during training")
    return head, log


def evaluate(
    head: HeadParams | None,
    frozen: FrozenModel,
    eval_set: list[tuple[np.ndarray, np.ndarray]],
    lam: float = 0.5,
) -> dict[str, EvalResult]:
    """Pool every non-IGNORE pixel across the eval set and score each scorer.

    ``eval_set`` pairs images with ground-truth anomaly masks (0 = normal,
    1 = anomalous, IGNORE = excluded).  Returns results keyed by scorer in
    fixed order: head-based scorers first, then the frozen baselines.
    """
    if not eval_set:
        raise ValueError("eval set is empty")
    pooled: dict[str, list[np.ndarray]] = {name: [] for name in SCORERS}
    labels = []
    for image, gt in eval_set:
        gt = np.asarray(gt)
        if gt.shape != image.shape[:2]:
            raise ValueError(f"mask shape {gt.shape} does not match image {image.shape[:2]}")
        if not np.all((gt == 0) | (gt == 1) | (gt == IGNORE)):
            raise ValueError("anomaly mask values must be 0, 1, or IGNORE")
        feats = frozen_encoder(frozen, image)
        seg = seg_logits_map(frozen, feats)
        maps = all_score_maps(head, feats, seg, lam)
        valid = gt != IGNORE
        labels.append(gt[valid].astype(np.int64))
        for name, values in maps.items():
            pooled[name].append(values[valid])
    y = np.concatenate(labels)
    order = [s for s in SCORERS if head is not None or s not in HEAD_SCORERS]
    return {name: evaluate_scores(np.concatenate(pooled[name]), y) for name in order}


# ---------------------------------------------------------------------------
# CSV emission.  Timing is suppressed by default (ms column written as 0)
# so that identical config + seed yields byte-identical logs; pass
# timing=True to record real wall-clock milliseconds.

def write_trainlog_csv(log: TrainLog, path: str | Path, timing: bool = False) -> None:
    lines = ["iter,l_a,l_o,n_ood,n_ignored,eta,ms"]
    for r in log.records:
        ms = repr(round(r.ms, 3)) if timing else "0"
        lines.append(f"{r.iteration},{r.l_a!r},{r.l_o!r},{r.n_ood},{r.n_ignored},{r.eta!r},{ms}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_eval_csv(results: dict[str, EvalResult], path: str | Path) -> None:
    lines = ["scorer,ap,auroc,fpr95,n_pos,n_neg"]
    for name, r in results.items():
        lines.append(f"{name},{r.ap!r},{r.auroc!r},{r.fpr95!r},{r.n_pos},{r.n_neg}")
    Path(path).write_text("\n".join(lines) + "\n")
