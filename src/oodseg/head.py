"""Two-channel anomaly head: stacked Conv-BN-ReLU blocks over frozen features.

The head is the only trainable component in the pipeline.  Forward and
backward passes are written out by hand in numpy, including the
batch-normalization gradient, so they can be verified against central
finite differences.  Each convolution is one matmul over zero-padded
image columns; kernels are odd (1x1 by default, so each block is a
per-pixel linear map).

Activations follow the precision of the input features: float64 features
(evaluation, scoring, the gradient checks) run in float64, float32
features (training) in float32.  Parameters, running statistics and
gradients are always float64.

Batch statistics are taken over the spatial positions of the single
[D, H, W] feature map being processed; train-mode forwards update the
running statistics in place, eval-mode forwards are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .tensorio import ArtifactError, read_tensor, write_tensor

OUT_CHANNELS = 2


class HeadShapeError(ValueError):
    """Feature map incompatible with the head configuration."""


@dataclass(frozen=True)
class HeadConfig:
    feature_dim: int
    blocks: int = 3
    hidden: int = 32
    kernel_size: int = 1
    use_batchnorm: bool = True
    bn_momentum: float = 0.9
    bn_epsilon: float = 1e-5

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {self.blocks}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if not 0.0 <= self.bn_momentum < 1.0:
            raise ValueError(f"bn_momentum must be in [0, 1), got {self.bn_momentum}")
        if self.bn_epsilon <= 0.0:
            raise ValueError(f"bn_epsilon must be positive, got {self.bn_epsilon}")


@dataclass
class BlockParams:
    w: np.ndarray  # [out, in, k, k]
    b: np.ndarray  # [out]
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    run_mean: np.ndarray | None = None
    run_var: np.ndarray | None = None


@dataclass
class HeadParams:
    config: HeadConfig
    blocks: list[BlockParams] = field(default_factory=list)
    out_w: np.ndarray = None  # [2, hidden]
    out_b: np.ndarray = None  # [2]

    def trainable(self) -> list[tuple[str, np.ndarray]]:
        """Gradient-carrying leaves in a fixed order (running stats excluded)."""
        leaves = []
        for i, blk in enumerate(self.blocks):
            leaves.append((f"block{i}.w", blk.w))
            leaves.append((f"block{i}.b", blk.b))
            if blk.gamma is not None:
                leaves.append((f"block{i}.gamma", blk.gamma))
                leaves.append((f"block{i}.beta", blk.beta))
        leaves.append(("out.w", self.out_w))
        leaves.append(("out.b", self.out_b))
        return leaves

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every stored array: the trainable leaves, then the running statistics."""
        leaves = self.trainable()
        for i, blk in enumerate(self.blocks):
            if blk.run_mean is not None:
                leaves += [(f"block{i}.run_mean", blk.run_mean), (f"block{i}.run_var", blk.run_var)]
        return leaves

    def n_parameters(self) -> int:
        return sum(arr.size for _, arr in self.arrays())


def head_init(cfg: HeadConfig, seed: int) -> HeadParams:
    """Fresh parameters: He-style conv weights from a seeded PRNG, neutral rest."""
    rng = np.random.default_rng(seed)
    blocks = []
    c_in = cfg.feature_dim
    k = cfg.kernel_size
    for _ in range(cfg.blocks):
        fan_in = c_in * k * k
        blk = BlockParams(
            w=rng.standard_normal((cfg.hidden, c_in, k, k)) * np.sqrt(2.0 / fan_in),
            b=np.zeros(cfg.hidden),
        )
        if cfg.use_batchnorm:
            blk.gamma = np.ones(cfg.hidden)
            blk.beta = np.zeros(cfg.hidden)
            blk.run_mean = np.zeros(cfg.hidden)
            blk.run_var = np.ones(cfg.hidden)
        blocks.append(blk)
        c_in = cfg.hidden
    out_w = rng.standard_normal((OUT_CHANNELS, cfg.hidden)) * np.sqrt(2.0 / cfg.hidden)
    return HeadParams(config=cfg, blocks=blocks, out_w=out_w, out_b=np.zeros(OUT_CHANNELS))


def _cols(x: np.ndarray, k: int) -> np.ndarray:
    """[C, H, W] -> [C*k*k, H*W] zero-padded 'same' patches; a view for k = 1.

    Row order (channel, tap row, tap column) matches ``w.reshape(out, -1)``,
    so every convolution is one matmul against these columns.
    """
    c, h, w = x.shape
    if k == 1:
        return x.reshape(c, h * w)
    r = k // 2
    xp = np.pad(x, ((0, 0), (r, r), (r, r)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))  # [C, H, W, k, k]
    return win.transpose(0, 3, 4, 1, 2).reshape(c * k * k, h * w)


def _uncols(dcols: np.ndarray, k: int, shape: tuple[int, int, int]) -> np.ndarray:
    """Adjoint of ``_cols``: scatter-add column gradients back to [C, H, W]."""
    c, h, w = shape
    if k == 1:
        return dcols.reshape(shape)
    r = k // 2
    d5 = dcols.reshape(c, k, k, h, w)
    dxp = np.zeros((c, h + 2 * r, w + 2 * r), dtype=dcols.dtype)
    for di in range(k):
        for dj in range(k):
            dxp[:, di : di + h, dj : dj + w] += d5[:, di, dj]
    return dxp[:, r : r + h, r : r + w]


def _row_sums(a: np.ndarray) -> np.ndarray:
    # a matmul against ones: far quicker than a float64-accumulating sum
    return (a @ np.ones(a.shape[1], dtype=a.dtype)).astype(np.float64)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("cn,cn->c", a, b).astype(np.float64)


@dataclass
class _BlockCache:
    x_in: np.ndarray               # [C_in, H, W] block input
    z: np.ndarray                  # [C, H*W] conv output, centred per channel under batchnorm
    inv_std: np.ndarray | None     # [C] batchnorm only
    scale: np.ndarray | None       # [C] gamma * inv_std, batchnorm only
    shift: np.ndarray | None       # [C] beta, batchnorm only

    @property
    def y(self) -> np.ndarray:
        """Pre-ReLU activation [C, H, W]."""
        y = self.z if self.scale is None else self.z * self.scale[:, None] + self.shift[:, None]
        return y.reshape((-1,) + self.x_in.shape[1:])


@dataclass
class HeadCache:
    params: HeadParams
    blocks: list[_BlockCache]
    a_last: np.ndarray


def head_forward(params: HeadParams, features: np.ndarray, mode: str = "eval"):
    """Run the head over [D, H, W] features; returns (logits [2, H, W], cache).

    Train mode normalizes with this map's own spatial statistics, updates
    running statistics in place, and returns the cache needed by
    ``head_backward``.  Eval mode uses running statistics and returns None
    for the cache.

    Logits come back in the precision of the computation (see the module
    docstring).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = params.config
    x = np.asarray(features)
    if x.ndim != 3 or x.shape[0] != cfg.feature_dim:
        raise HeadShapeError(f"expected [{cfg.feature_dim}, H, W] features, got {x.shape}")
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    x = x.astype(dtype, copy=False)
    h, w = x.shape[1:]
    train = mode == "train"
    caches: list[_BlockCache] = []
    for blk in params.blocks:
        cols = _cols(x, cfg.kernel_size)
        w2 = blk.w.reshape(blk.w.shape[0], -1)
        if blk.gamma is not None and not train:
            # eval-mode batchnorm is a fixed per-channel affine map, so fold
            # it into the convolution: one matmul and one ReLU per block
            scale = blk.gamma / np.sqrt(blk.run_var + cfg.bn_epsilon)
            a = (w2 * scale[:, None]).astype(dtype) @ cols
            a += ((blk.b - blk.run_mean) * scale + blk.beta).astype(dtype)[:, None]
            x = np.maximum(a, 0.0, out=a).reshape(-1, h, w)
            continue
        z = w2.astype(dtype) @ cols
        if blk.gamma is None:
            z += blk.b.astype(dtype)[:, None]
            a = np.maximum(z, 0.0)
            inv_std = scale = shift = None
        else:
            # the conv bias only shifts the batch mean, which is subtracted
            n = z.shape[1]
            mean = _row_sums(z) / n
            z -= mean.astype(dtype)[:, None]
            var = _row_dots(z, z) / n
            m = cfg.bn_momentum
            blk.run_mean[:] = m * blk.run_mean + (1.0 - m) * (mean + blk.b)
            blk.run_var[:] = m * blk.run_var + (1.0 - m) * var
            inv_std = 1.0 / np.sqrt(var + cfg.bn_epsilon)
            scale, shift = blk.gamma * inv_std, blk.beta.copy()
            a = z * scale.astype(dtype)[:, None]
            a += shift.astype(dtype)[:, None]
            np.maximum(a, 0.0, out=a)
        if train:
            caches.append(_BlockCache(x_in=x, z=z, inv_std=inv_std, scale=scale, shift=shift))
        x = a.reshape(-1, h, w)
    logits = params.out_w.astype(dtype) @ x.reshape(x.shape[0], -1)
    logits += params.out_b.astype(dtype)[:, None]
    logits = logits.reshape(OUT_CHANNELS, h, w)
    if not train:
        return logits, None
    return logits, HeadCache(params=params, blocks=caches, a_last=x)


def head_backward(params: HeadParams, cache: HeadCache, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt every trainable leaf.

    ``grad_logits`` is dLoss/dlogits at the head output.  Gradients flow
    through the train-mode batch statistics; no gradient is produced for
    the (frozen) input features.  The cache is left untouched, so it may
    be differentiated more than once.  The conv bias feeding a batchnorm
    gets an exactly zero gradient: a uniform shift cancels in the
    normalization.
    """
    if cache is None or cache.params is not params:
        raise ValueError("cache does not belong to these parameters")
    a_last = cache.a_last
    dtype = a_last.dtype
    g = np.asarray(grad_logits)
    if g.shape != (OUT_CHANNELS,) + a_last.shape[1:]:
        raise ValueError(f"grad shape {g.shape} does not match logits")
    g2 = g.reshape(OUT_CHANNELS, -1).astype(dtype, copy=False)
    act = a_last.reshape(a_last.shape[0], -1)
    grads: dict[str, np.ndarray] = {
        "out.w": (g2 @ act.T).astype(np.float64),
        "out.b": _row_sums(g2),
    }
    da = params.out_w.T.astype(dtype) @ g2
    k = params.config.kernel_size
    for i in reversed(range(len(params.blocks))):
        blk, bc = params.blocks[i], cache.blocks[i]
        dz = np.multiply(da, act > 0.0, out=da)  # ReLU gate; da is a fresh array
        if blk.gamma is None:
            db = _row_sums(dz)
        else:
            # dz = scale * (dy - mean(dy) - xhat * mean(dy * xhat)), xhat = inv_std * z
            n = dz.shape[1]
            r = _row_sums(dz)
            s = _row_dots(dz, bc.z)
            grads[f"block{i}.gamma"] = bc.inv_std * s
            grads[f"block{i}.beta"] = r
            dz *= bc.scale.astype(dtype)[:, None]
            dz -= (bc.scale * r / n).astype(dtype)[:, None]
            dz -= bc.z * (bc.scale * bc.inv_std**2 * s / n).astype(dtype)[:, None]
            db = np.zeros_like(blk.b)
        cols = _cols(bc.x_in, k)
        grads[f"block{i}.w"] = (dz @ cols.T).astype(np.float64).reshape(blk.w.shape)
        grads[f"block{i}.b"] = db
        if i > 0:
            dcols = blk.w.reshape(blk.w.shape[0], -1).T.astype(dtype) @ dz
            da = _uncols(dcols, k, bc.x_in.shape).reshape(bc.x_in.shape[0], -1)
            act = bc.x_in.reshape(bc.x_in.shape[0], -1)
    return grads


# ---------------------------------------------------------------------------
# checkpointing: one TNSR file per array plus a plain-text manifest holding
# the HeadConfig fields (bools as 0/1, everything else as repr)

_MANIFEST = "head.txt"
_FROM_TEXT = {"int": int, "float": float, "bool": {"0": False, "1": True}.__getitem__}


def _tensor_file(name: str) -> str:
    return name.replace(".", "_") + ".tnsr"  # block0.run_mean -> block0_run_mean.tnsr


def save_head(params: HeadParams, out_dir: str | Path, extra: dict[str, str] | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for f in fields(HeadConfig):
        val = getattr(params.config, f.name)
        lines.append(f"{f.name}={int(val) if isinstance(val, bool) else repr(val)}")
    for key, val in (extra or {}).items():
        lines.append(f"{key}={val}")
    (out / _MANIFEST).write_text("\n".join(lines) + "\n")
    for name, arr in params.arrays():
        write_tensor(out / _tensor_file(name), arr)


def read_head_manifest(ckpt_dir: str | Path) -> dict[str, str]:
    meta = {}
    for line in (Path(ckpt_dir) / _MANIFEST).read_text().splitlines():
        if line.strip():
            key, _, val = line.partition("=")
            meta[key] = val
    return meta


def load_head(ckpt_dir: str | Path) -> HeadParams:
    """Checkpoint written by ``save_head``; every tensor must have the shape
    its manifest's config implies, else ``ArtifactError``."""
    ckpt = Path(ckpt_dir)
    meta = read_head_manifest(ckpt)
    try:
        cfg = HeadConfig(**{f.name: _FROM_TEXT[f.type](meta[f.name]) for f in fields(HeadConfig)})
    except (KeyError, ValueError) as exc:
        raise ArtifactError(f"malformed head manifest under {ckpt}: {exc!r}") from exc
    params = head_init(cfg, seed=0)
    for name, arr in params.arrays():
        stored = read_tensor(ckpt / _tensor_file(name))
        if stored.shape != arr.shape:
            raise ArtifactError(f"{name} has shape {stored.shape} in {ckpt}, config implies {arr.shape}")
        arr[...] = stored
    return params
