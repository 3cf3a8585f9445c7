"""Self-supervised pixel-level anomaly segmentation on frozen features.

The pipeline pastes polygonal crops of normal images into other normal
images, refines the pasted regions into trustworthy anomaly pixels with an
adaptive threshold, and trains a small two-channel head on top of a frozen
encoder/decoder to rank anomalous pixels above normal ones.  Scores blend
a task-agnostic binary estimator with an energy-based residual estimator.
"""

from .estimators import SCORERS, ScoreMap, score_map
from .head import HeadConfig, HeadParams, head_backward, head_forward, head_init, load_head, save_head
from .losses import DegeneratePartitionError
from .metrics import EvalResult, auroc, average_precision, evaluate_scores, fpr_at_tpr
from .patches import (
    PastedScene,
    PatchConfig,
    PolygonPatch,
    convex_hull,
    harris_corners,
    paste_patches,
    rasterize,
    sample_candidates,
    synth_pasted_scene,
)
from .refine import PixelPartition, refine_partition, search_threshold, threshold_objective
from .synthworld import (
    FrozenModel,
    SceneSpec,
    fit_frozen_decoder,
    frozen_digest,
    frozen_encoder,
    generate_scene,
    seg_logits_map,
)
from .tensorio import IGNORE, read_pgm, read_ppm, read_tensor, write_pgm, write_ppm, write_tensor
from .trainer import TrainConfig, TrainLog, evaluate, train

__version__ = "0.1.0"
