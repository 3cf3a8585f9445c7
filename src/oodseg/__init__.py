"""Self-supervised pixel-level anomaly segmentation on frozen features.

The pipeline pastes polygonal crops of normal images into other normal
images, refines the pasted regions into trustworthy anomaly pixels with an
adaptive threshold, and trains a small two-channel head on top of a frozen
encoder/decoder to rank anomalous pixels above normal ones.  Scores blend
a task-agnostic binary estimator with an energy-based residual estimator.
"""

__version__ = "0.1.0"
