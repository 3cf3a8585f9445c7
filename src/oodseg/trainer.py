"""Self-supervised training loop and evaluation for the anomaly head.

Each iteration builds a batch of pasted scenes, scores them with the
current estimators (free energy alone during warmup, the combined score
afterwards), refines the pasted regions into anomaly/ignored sets, and
takes one Adam step on the pooled loss.  Everything upstream of the head
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
from .head import HeadConfig, HeadParams, head_backward, head_forward, head_init, save_head
from .losses import MARGIN_MODES, DegeneratePartitionError, batch_total_loss, pooled_set_sizes
from .metrics import EvalResult, evaluate_scores
from .patches import PatchConfig, synth_pasted_scene
from .refine import MODES as REFINE_MODES
from .refine import EmptyPastedRegionError, refine_partition
from .synthworld import FrozenModel, frozen_digest, frozen_encoder, seg_logits_map
from .tensorio import IGNORE


class TrainingAbortedError(RuntimeError):
    """Too many iterations hit degenerate partitions."""


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
    frozen: FrozenModel,
    head: HeadParams,
    cfg: TrainConfig,
    iteration: int,
    slot: int,
):
    """Steps shared per batch slot: paste, encode, score, partition.

    Pure with respect to the head (eval-mode forward).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(iteration, slot)))
    t_idx = int(rng.integers(len(images)))
    donors = images[:t_idx] + images[t_idx + 1 :] if len(images) > 1 else [images[t_idx]]
    scene = synth_pasted_scene(images[t_idx], donors, cfg.n_patches, rng, cfg.patch)
    feats = frozen_encoder(frozen, scene.image)
    seg = seg_logits_map(frozen, feats)
    jem = jem_map(seg)
    feats = feats.astype(np.float32)  # the head trains in float32
    if iteration < cfg.warmup_iters:
        score = jem
    else:
        logits, _ = head_forward(head, feats, mode="eval")
        score = combined_map(logits, seg, cfg.lam)
    part = refine_partition(
        score,
        scene.mask,
        mode=cfg.refine_mode,
        region_ids=scene.region_ids,
        per_region=cfg.per_region,
    )
    return feats, jem, part


def train(
    train_images: list[np.ndarray],
    frozen: FrozenModel,
    cfg: TrainConfig,
    head_config: HeadConfig | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 0,
) -> tuple[HeadParams, TrainLog]:
    """Train the head on pasted scenes; returns final parameters and the log.

    One record per completed iteration; iterations whose partition is
    degenerate are skipped and counted, and more than
    ``max_abort_frac`` of them fails the run.
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
    for it in range(cfg.iterations):
        tic = time.perf_counter()
        try:
            prepared = [
                _prepare_example(train_images, frozen, head, cfg, it, s)
                for s in range(cfg.batch_size)
            ]
            parts = [part for _, _, part in prepared]
            # abort before the train-mode forwards touch the BN running statistics
            n_ood, _ = pooled_set_sizes(parts)
            items = []
            caches = []
            for feats, jem, part in prepared:
                logits, cache = head_forward(head, feats, mode="train")
                items.append((logits.astype(np.float64), jem, part))
                caches.append(cache)
            _, l_a, l_o, grads = batch_total_loss(items, cfg.gamma, cfg.w_a, cfg.w_o, cfg.margin)
            total_grads: dict[str, np.ndarray] | None = None
            for cache, g_logits in zip(caches, grads):
                g = head_backward(head, cache, g_logits)
                if total_grads is None:
                    total_grads = g
                else:
                    for name in total_grads:
                        total_grads[name] += g[name]
            adam.step(head, total_grads, cfg)
        except (EmptyPastedRegionError, DegeneratePartitionError):
            log.aborted += 1
            continue
        ms = (time.perf_counter() - tic) * 1000.0
        log.records.append(
            LogRecord(
                iteration=it,
                l_a=float(l_a),
                l_o=float(l_o),
                n_ood=n_ood,
                n_ignored=sum(int(p.ignored_mask.sum()) for p in parts),
                eta=float(np.mean([p.eta for p in parts])),
                ms=ms,
            )
        )
        if checkpoint_dir is not None and checkpoint_every > 0 and (it + 1) % checkpoint_every == 0:
            save_head(head, Path(checkpoint_dir) / f"iter_{it + 1:06d}")
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
