"""A small procedural world with a frozen segmentation model over it.

Scenes are 64x64 images of colored shapes on a gradient background.  Each
in-distribution class pairs a shape family with a color family and a
preferred vertical band, so class identity is predictable from local color
plus position.  Anomalies, drawn only in eval scenes, use held-out shape
and color families and spawn anywhere.

The frozen model has two parts, both fixed after fitting and both
content-addressed by a digest:

* encoder: each pixel's 3x3 RGB neighborhood (edge-replicated, 27 values,
  scaled to [0, 1]) concatenated with its normalized coordinates (x/W, y/H)
  and sent through a fixed random projection to ``feature_dim`` channels;
* decoder: a ridge regression from features to one-hot class labels,
  solved in closed form on a batch of generated scenes.

Training never touches either part; a digest check enforces that.

Each part is one matmul on its input reshaped to [C, H*W]: the dgemm that
``np.tensordot`` calls, without its Python wrapper, so the bytes are the
same.  On numpy 2.4.6 that took a 64x64 image's encoder from 277 to 210 us
(344 to 312 in a slower run) and its decoder from 46 to 37 us.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .tensorio import (
    IGNORE,
    ArtifactError,
    read_pgm,
    read_ppm,
    read_tensor,
    write_pgm,
    write_ppm,
    write_tensor,
)


class BadValueError(ValueError):
    """A size or count argument outside its accepted range."""


NOISE = 0.03             # uniform pixel noise amplitude, fraction of full scale
SHAPES = (3, 6)          # in-distribution shapes per scene, inclusive bounds, but at least one per class
ANOMALY_SHAPES = (1, 3)  # anomalous shapes per eval scene, inclusive bounds
RIDGE_LAMBDA = 1e-2      # the frozen fit's ridge penalty, on covariance scale
ACCURACY_SCENES = 20     # fresh scenes that decoder_accuracy scores
ACCURACY_SEED = 9000     # their seed, apart from every fit and export seed


@dataclass(frozen=True)
class SceneSpec:
    height: int = 64
    width: int = 64
    classes: int = 4          # background + shape classes

    def __post_init__(self):
        if self.height < 16 or self.width < 16:
            raise ValueError(f"scene must be at least 16x16, got {self.height}x{self.width}")
        if not 2 <= self.classes <= 255:  # labels are uint8, and 255 is IGNORE
            raise ValueError(f"need 2 to 255 classes, got {self.classes}")


# in-distribution color families (muted primaries) and shape families;
# anomaly families are disjoint by construction: held-out outlines, and hues
# mixed from two ID families at lower brightness so they sit inside the color
# gamut (outside it a linear decoder extrapolates confidently, which would
# invert the free-energy baseline instead of merely weakening it)
_ID_COLORS = [(200, 45, 45), (45, 190, 45), (55, 75, 210), (160, 115, 60), (95, 170, 170)]
_ID_SHAPES = ("disc", "rect", "triangle")
_ANOMALY_COLORS = [(102, 48, 102), (98, 94, 36), (40, 106, 102)]
_ANOMALY_SHAPES = ("cross", "ring", "diamond")


def _shape_mask(kind: str, h: int, w: int, cx: float, cy: float, size: float) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dx, dy = xx - cx, yy - cy
    if kind == "disc":
        return dx * dx + dy * dy <= size * size
    if kind == "rect":
        return (np.abs(dx) <= size) & (np.abs(dy) <= 0.7 * size)
    if kind == "triangle":
        # upward triangle: below the apex, above the base, inside the slanted sides
        return (dy >= -size) & (dy <= 0.6 * size) & (np.abs(dx) <= 0.65 * (dy + size))
    if kind == "cross":
        arm = 0.35 * size
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= size)) | (
            (np.abs(dy) <= arm) & (np.abs(dx) <= size)
        )
    if kind == "ring":
        d2 = dx * dx + dy * dy
        return (d2 <= size * size) & (d2 >= (0.45 * size) ** 2)
    if kind == "diamond":
        return np.abs(dx) + np.abs(dy) <= size
    raise ValueError(f"unknown shape kind {kind!r}")


def generate_scene(
    spec: SceneSpec,
    rng: np.random.Generator,
    anomalies: bool = False,
    return_shapes: bool = False,
):
    """One scene: (image uint8 [H,W,3], labels uint8 [H,W], anomaly bool [H,W]).

    Training-mode scenes have an all-false anomaly mask.  Labels under
    anomalous shapes are IGNORE.  With ``return_shapes`` the per-shape
    (class, mask) records are appended for bookkeeping checks.
    """
    h, w = spec.height, spec.width
    yy = np.arange(h, dtype=np.float64)[:, None]
    base = 80.0 + 40.0 * (yy / h)  # background brightens toward the bottom
    img = np.repeat(base[:, :, None], 3, axis=2) * np.ones((h, w, 3))
    labels = np.zeros((h, w), dtype=np.uint8)
    anomaly = np.zeros((h, w), dtype=bool)
    shapes: list[tuple[int, np.ndarray]] = []

    n_fam = spec.classes - 1
    n_shapes = int(rng.integers(SHAPES[0], SHAPES[1] + 1))
    # every class appears at least once, then extras are uniform
    order = list(rng.permutation(n_fam) + 1)
    while len(order) < n_shapes:
        order.append(int(rng.integers(1, spec.classes)))
    for cls in order:
        fam = cls - 1
        kind = _ID_SHAPES[fam % len(_ID_SHAPES)]
        color = _ID_COLORS[fam % len(_ID_COLORS)]
        size = rng.uniform(h / 10.0, h / 5.0)
        # class-specific vertical band ties color to position
        band_h = h / n_fam
        cy = rng.uniform(fam * band_h, (fam + 1) * band_h)
        cx = rng.uniform(0, w)
        mask = _shape_mask(kind, h, w, cx, cy, size)
        img[mask] = color
        labels[mask] = cls
        shapes.append((cls, mask))

    if anomalies:
        n_anom = int(rng.integers(ANOMALY_SHAPES[0], ANOMALY_SHAPES[1] + 1))
        for _ in range(n_anom):
            kind = _ANOMALY_SHAPES[int(rng.integers(len(_ANOMALY_SHAPES)))]
            color = _ANOMALY_COLORS[int(rng.integers(len(_ANOMALY_COLORS)))]
            size = rng.uniform(h / 10.0, h / 5.0)
            cy = rng.uniform(0, h)
            cx = rng.uniform(0, w)
            mask = _shape_mask(kind, h, w, cx, cy, size)
            img[mask] = color
            labels[mask] = IGNORE
            anomaly |= mask

    img = img + rng.uniform(-NOISE * 255.0, NOISE * 255.0, size=img.shape)
    image = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    if return_shapes:
        return image, labels, anomaly, shapes
    return image, labels, anomaly


NEIGHBORHOOD = 9 * 3 + 2  # 3x3 RGB window + (x/W, y/H)


@dataclass(frozen=True)
class FrozenModel:
    projection: np.ndarray  # [feature_dim, 29]
    dec_w: np.ndarray       # [classes, feature_dim]
    dec_b: np.ndarray       # [classes]

    @property
    def feature_dim(self) -> int:
        return self.projection.shape[0]


def frozen_digest(model: FrozenModel) -> str:
    """Content digest over the serialized parameter tensors."""
    h = hashlib.sha256()
    for name, arr in (("projection", model.projection), ("dec_w", model.dec_w), ("dec_b", model.dec_b)):
        h.update(name.encode())
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def _pixel_stack(image: np.ndarray) -> np.ndarray:
    """[29, H, W] per-pixel descriptor: 3x3 neighborhood colors + coordinates.

    The 27 color planes, in (tap row, tap column, channel) order, are one
    strided copy of the edge-padded image's 3x3 windows.
    """
    h, w = image.shape[:2]
    padded = np.empty((h + 2, w + 2, 3))  # the image in [0, 1], edge-padded by one pixel
    np.divide(image, 255.0, out=padded[1:-1, 1:-1], dtype=np.float64)
    padded[0], padded[-1] = padded[1], padded[-2]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(0, 1))  # [3, 3, 3, H, W]
    stack = np.empty((29, h, w))
    stack[:27].reshape(windows.shape)[...] = windows
    stack[27] = np.arange(w, dtype=np.float64) / w
    stack[28] = (np.arange(h, dtype=np.float64) / h)[:, None]
    return stack


def frozen_encoder(model: FrozenModel, image: np.ndarray) -> np.ndarray:
    """Project each pixel's local descriptor to [feature_dim, H, W]."""
    stack = _pixel_stack(image)
    return (model.projection @ stack.reshape(len(stack), -1)).reshape((-1,) + stack.shape[1:])


def seg_logits_map(model: FrozenModel, features: np.ndarray) -> np.ndarray:
    """Frozen decoder logits [classes, H, W] from encoder features."""
    logits = model.dec_w @ features.reshape(features.shape[0], -1) + model.dec_b[:, None]
    return logits.reshape((-1,) + features.shape[1:])


def fit_frozen_decoder(spec: SceneSpec, feature_dim: int, n_scenes: int, seed: int) -> FrozenModel:
    """Fit the frozen model: seeded projection, then closed-form ridge
    regression from features to one-hot labels over generated scenes.

    The normal equations are normalized by the pixel count, so
    ``RIDGE_LAMBDA``, read at each call, acts on covariance scale, and a
    large one drives every coefficient towards zero.
    """
    if feature_dim < 1:
        raise BadValueError(f"feature_dim must be >= 1, got {feature_dim}")
    if n_scenes < 1:
        raise BadValueError(f"need at least one scene, got {n_scenes}")
    if seed < 0:
        raise BadValueError(f"seed must be >= 0, got {seed}")
    proj = np.random.default_rng([seed, 0]).standard_normal((feature_dim, NEIGHBORHOOD))
    proj /= np.sqrt(NEIGHBORHOOD)
    k = spec.classes
    d = feature_dim + 1  # bias column
    ata = np.zeros((d, d))
    aty = np.zeros((d, k))
    n_total = 0
    model_stub = FrozenModel(projection=proj, dec_w=np.zeros((k, feature_dim)), dec_b=np.zeros(k))
    for i in range(n_scenes):
        rng = np.random.default_rng([seed, 1, i])
        image, labels, _ = generate_scene(spec, rng)
        feats = frozen_encoder(model_stub, image).reshape(feature_dim, -1)
        x = np.vstack([feats, np.ones((1, feats.shape[1]))])
        y = np.equal(labels.reshape(-1)[None, :], np.arange(k)[:, None]).astype(np.float64)
        ata += x @ x.T
        aty += x @ y.T
        n_total += x.shape[1]
    w_aug = np.linalg.solve(ata / n_total + RIDGE_LAMBDA * np.eye(d), aty / n_total)
    return FrozenModel(projection=proj, dec_w=w_aug[:feature_dim].T.copy(), dec_b=w_aug[feature_dim].copy())


def decoder_accuracy(model: FrozenModel, spec: SceneSpec) -> float:
    """Pixel argmax accuracy on ``ACCURACY_SCENES`` freshly generated
    in-distribution scenes."""
    hit = 0
    total = 0
    for i in range(ACCURACY_SCENES):
        rng = np.random.default_rng([ACCURACY_SEED, i])
        image, labels, _ = generate_scene(spec, rng)
        pred = np.argmax(seg_logits_map(model, frozen_encoder(model, image)), axis=0)
        hit += int(np.sum(pred == labels))
        total += labels.size
    return hit / total


# ---------------------------------------------------------------------------
# on-disk layout

_FROZEN_FILES = ("projection", "dec_w", "dec_b")


def save_frozen(model: FrozenModel, out_dir: str | Path) -> str:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _FROZEN_FILES:
        write_tensor(out / f"{name}.tnsr", getattr(model, name))
    digest = frozen_digest(model)
    (out / "digest.txt").write_text(digest + "\n")
    return digest


def load_frozen(model_dir: str | Path) -> FrozenModel:
    """The model ``save_frozen`` wrote: a [D, NEIGHBORHOOD] projection, a
    [K, D] dec_w and a [K] dec_b matching the recorded digest, else ``ArtifactError``."""
    mdir = Path(model_dir)
    try:
        arrays = {name: read_tensor(mdir / f"{name}.tnsr") for name in _FROZEN_FILES}
        recorded = (mdir / "digest.txt").read_text().strip()
    except FileNotFoundError as exc:
        raise ArtifactError(f"frozen model incomplete under {mdir}: {exc}") from exc
    d, k = arrays["projection"].shape[0], arrays["dec_w"].shape[0]
    for name, shape in zip(_FROZEN_FILES, ((d, NEIGHBORHOOD), (k, d), (k,))):
        if arrays[name].shape != shape:
            raise ArtifactError(f"{mdir / name}.tnsr has shape {arrays[name].shape}, not {shape}")
    model = FrozenModel(**arrays)
    actual = frozen_digest(model)
    if actual != recorded:
        raise ArtifactError(f"frozen model digest mismatch: stored {recorded}, computed {actual}")
    return model


def export_dataset(spec: SceneSpec, n_train: int, n_eval: int, out_dir: str | Path, seed: int) -> None:
    """Write ``manifest.json``, ``train/scene_NNNN.ppm``, ``eval/scene_NNNN.ppm``
    and ``eval/scene_NNNN_anomaly.pgm``.

    Anomaly masks store 0 = normal, 1 = anomalous (255 would mean IGNORE).
    Every other ``scene_*`` file in either split is deleted: those of an
    earlier, larger export and the ``_labels.pgm`` maps earlier versions
    wrote.  So the directory holds exactly what the manifest lists.
    """
    if n_train < 2:
        raise BadValueError(f"need >= 2 training scenes for donor sampling, got {n_train}")
    if n_eval < 1:
        raise BadValueError(f"need >= 1 eval scene, got {n_eval}")
    if seed < 0:
        raise BadValueError(f"seed must be >= 0, got {seed}")
    out = Path(out_dir)
    (out / "train").mkdir(parents=True, exist_ok=True)
    (out / "eval").mkdir(parents=True, exist_ok=True)
    for split, n, suffixes in (("train", n_train, (".ppm",)), ("eval", n_eval, (".ppm", "_anomaly.pgm"))):
        written = {f"scene_{i:04d}{suffix}" for i in range(n) for suffix in suffixes}
        for path in (out / split).glob("scene_*"):
            if path.name not in written and path.is_file():
                path.unlink()
    for i in range(n_train):
        rng = np.random.default_rng([seed, 2, i])
        image, _, _ = generate_scene(spec, rng)
        write_ppm(out / "train" / f"scene_{i:04d}.ppm", image)
    for i in range(n_eval):
        rng = np.random.default_rng([seed, 3, i])
        image, _, anomaly = generate_scene(spec, rng, anomalies=True)
        write_ppm(out / "eval" / f"scene_{i:04d}.ppm", image)
        write_pgm(out / "eval" / f"scene_{i:04d}_anomaly.pgm", anomaly.astype(np.uint8))
    manifest = {**asdict(spec), "seed": seed, "n_train": n_train, "n_eval": n_eval}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_manifest(data_dir: str | Path) -> dict:
    """The dataset's manifest: a JSON object whose counts and image size are
    integers of at least the minimum the loaders need, else ``ArtifactError``."""
    path = Path(data_dir) / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactError(f"{path} must hold a JSON object")
    for key, least in (("n_train", 2), ("n_eval", 1), ("height", 1), ("width", 1)):
        value = manifest.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ArtifactError(f"{path}: {key} must be an integer >= {least}, got {value!r}")
    return manifest


def _read_scene_file(read, path: Path, manifest: dict) -> np.ndarray:
    """``read(path)``, checked to be the manifest's height x width."""
    array, h, w = read(path), manifest["height"], manifest["width"]
    if array.shape[:2] != (h, w):
        raise ArtifactError(f"{path} is {array.shape[0]}x{array.shape[1]}, not the manifest's {h}x{w}")
    return array


def load_train_images(data_dir: str | Path) -> list[np.ndarray]:
    manifest = load_manifest(data_dir)
    root = Path(data_dir) / "train"
    paths = [root / f"scene_{i:04d}.ppm" for i in range(manifest["n_train"])]
    return [_read_scene_file(read_ppm, path, manifest) for path in paths]


def load_eval_set(data_dir: str | Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs of (image, anomaly mask with values {0, 1, IGNORE}), all of the manifest's shape."""
    manifest = load_manifest(data_dir)
    root = Path(data_dir) / "eval"
    out = []
    for i in range(manifest["n_eval"]):
        image = _read_scene_file(read_ppm, root / f"scene_{i:04d}.ppm", manifest)
        mask_path = root / f"scene_{i:04d}_anomaly.pgm"
        mask = _read_scene_file(read_pgm, mask_path, manifest)
        if not np.isin(mask, (0, 1, IGNORE)).all():
            raise ArtifactError(f"{mask_path} holds values other than 0, 1 and {IGNORE}")
        out.append((image, mask))
    return out
