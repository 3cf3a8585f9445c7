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

The loop runs with numpy's ufunc buffer no larger than a training map's
pixel count.  Most of the head's time goes to per-channel passes of the
form ``[C, H*W] op [C, 1]``, and numpy copies the operands of a broadcast
over rows of L elements through its buffer whenever the buffer holds at
least 2L elements: on numpy 2.4.6, a ``[32, 4096]`` float32 multiply by a
``[32, 1]`` column took about 3 times as long at the default buffer of
8192 as at 4096, the time of a contiguous multiply of the same size.  The
buffer size changes no output byte.  ``head.ufunc_buffer`` sets it from the
pixel count, as it does for the head's eval bands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# SCORERS is unused here, but bench/workloads.py reads it as trainer.SCORERS
from .estimators import SCORERS, all_score_maps, combined_map, jem_map  # noqa: F401
from .head import (
    HeadConfig,
    HeadParams,
    commit_batch_stats,
    head_backward,
    head_forward,
    head_init,
    ufunc_buffer,
)
from .losses import MARGIN_MODES, DegeneratePartitionError, batch_total_loss, pooled_set_sizes
from .metrics import EvalResult, evaluate_scores
from .patches import donor_corners, synth_pasted_scene
from .refine import MODES as REFINE_MODES
from .refine import EmptyPastedRegionError, refine_partition
from .synthworld import FrozenModel, frozen_digest, frozen_encoder, seg_logits_map
from .tensorio import IGNORE


ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MAX_ABORT_FRAC = 0.1  # share of iterations that may abort before the run fails


class TrainingAbortedError(RuntimeError):
    """Too many iterations hit degenerate partitions."""


class TrainingDivergedError(RuntimeError):
    """A refinement score, the loss or a gradient is not finite; the message names the iteration."""


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 8
    warmup_iters: int = 200     # free-energy-only refinement before this iteration
    gamma: float = 15.0
    n_patches: int = 10
    lam: float = 0.5
    seed: int = 0
    refine_mode: str = "eq11"   # "eq11" | "otsu" | "none" (keep whole pasted region)
    per_region: bool = False
    margin: str = "dynamic"
    w_a: float = 1.0
    w_o: float = 1.0

    def __post_init__(self):
        if self.iterations < 1 or self.batch_size < 1 or self.n_patches < 1:
            raise ValueError("iterations, batch_size, n_patches must be >= 1")
        if self.warmup_iters < 0:
            raise ValueError(f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if not np.isfinite([self.gamma, self.lam, self.w_a, self.w_o]).all():
            raise ValueError("gamma, lam, w_a and w_o must be finite")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.refine_mode not in REFINE_MODES:
            raise ValueError(f"refine_mode must be one of {REFINE_MODES}, got {self.refine_mode!r}")
        if self.margin not in MARGIN_MODES:
            raise ValueError(f"margin must be one of {MARGIN_MODES}, got {self.margin!r}")
        if self.w_a < 0.0 or self.w_o < 0.0:
            raise ValueError("loss weights must be >= 0")


@dataclass(frozen=True)
class LogRecord:
    iteration: int
    l_a: float
    l_o: float
    n_ood: int
    n_ignored: int
    eta: float
    ms: float  # iteration wall time; trainlog.csv writes 0 in its place


@dataclass
class TrainLog:
    records: list[LogRecord] = field(default_factory=list)
    aborted: int = 0


class AdamState:
    def __init__(self, params: HeadParams):
        self.m = {name: np.zeros_like(arr) for name, arr in params.trainable()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.trainable()}
        self.t = 0

    def step(self, params: HeadParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, arr in params.trainable():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            arr -= ADAM_LR * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
    scene = synth_pasted_scene(images[t_idx], donors, cfg.n_patches, rng, donor_pts)
    feats = frozen_encoder(frozen, scene.image)
    seg = seg_logits_map(frozen, feats)
    jem = jem_map(seg)
    # the head trains in float32
    logits, cache = head_forward(head, feats.astype(np.float32), mode="train")
    logits = logits.astype(np.float64)
    score = jem if iteration < cfg.warmup_iters else combined_map(logits, jem, cfg.lam)
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
    allocator hands a released cache's memory to the next slot.  A desk
    cache (64x64 scene, 16 features, 3 blocks of 32) holds 1.3 MB: the
    float32 features and one [32, 4096] float32 array per block after the
    first; the k > 1 scratch memory is the head's own.  Releasing every
    cache at the end of the iteration instead returns their memory to the
    system, and the next iteration faults it back in page by page.
    """
    for s in range(cfg.batch_size):
        slots[s] = _prepare_example(images, corners, frozen, head, cfg, iteration, s)
    items = [item for item, _ in slots]
    parts = [part for _, _, part in items]
    total, l_a, l_o, grads = batch_total_loss(items, cfg.gamma, cfg.w_a, cfg.w_o, cfg.margin)
    n_ood, _ = pooled_set_sizes(parts)  # the loss made the degenerate-set check; this counts
    if not np.isfinite([total, l_a, l_o]).all():
        raise TrainingDivergedError(f"iteration {iteration}: loss is not finite")
    caches = [cache for _, cache in slots]
    slot_grads = [head_backward(head, cache, g) for cache, g in zip(caches, grads)]
    total_grads = {name: sum(g[name] for g in slot_grads) for name in slot_grads[0]}
    if not all(np.isfinite(g).all() for g in total_grads.values()):
        raise TrainingDivergedError(f"iteration {iteration}: gradient is not finite")
    # past every abort point: only a completed iteration moves BN state
    commit_batch_stats(head, caches)
    adam.step(head, total_grads)
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
    ``MAX_ABORT_FRAC`` of them fails the run.  A non-finite refinement
    score, loss or gradient raises ``TrainingDivergedError`` at once.
    The training images may differ in shape.
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
    corners = [donor_corners(image) for image in train_images]
    slots = [None] * cfg.batch_size
    # per-channel broadcasts skip numpy's buffer copies (module docstring)
    with ufunc_buffer(min(image.shape[0] * image.shape[1] for image in train_images)):
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
    if log.aborted > MAX_ABORT_FRAC * cfg.iterations:
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
    lam: float,
) -> dict[str, EvalResult]:
    """Pool every non-IGNORE pixel across the eval set and score each scorer.

    ``eval_set`` pairs images with ground-truth anomaly masks (0 = normal,
    1 = anomalous, IGNORE = excluded).  Returns results keyed by scorer in
    fixed order: head-based scorers first, then the frozen baselines.
    """
    if not eval_set:
        raise ValueError("eval set is empty")
    pooled: dict[str, list[np.ndarray]] = {}
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
            pooled.setdefault(name, []).append(values[valid])
    y = np.concatenate(labels)
    return {name: evaluate_scores(np.concatenate(parts), y) for name, parts in pooled.items()}


# ---------------------------------------------------------------------------
# CSV emission.  The ms column is always 0, so that identical config + seed
# yields byte-identical logs.

def write_trainlog_csv(log: TrainLog, path: str | Path) -> None:
    lines = ["iter,l_a,l_o,n_ood,n_ignored,eta,ms"]
    for r in log.records:
        lines.append(f"{r.iteration},{r.l_a!r},{r.l_o!r},{r.n_ood},{r.n_ignored},{r.eta!r},0")
    Path(path).write_text("\n".join(lines) + "\n")


def write_eval_csv(results: dict[str, EvalResult], path: str | Path) -> None:
    lines = ["scorer,ap,auroc,fpr95,n_pos,n_neg"]
    for name, r in results.items():
        lines.append(f"{name},{r.ap!r},{r.auroc!r},{r.fpr95!r},{r.n_pos},{r.n_neg}")
    Path(path).write_text("\n".join(lines) + "\n")
