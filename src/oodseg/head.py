"""Two-channel anomaly head: stacked Conv-BN-ReLU blocks over frozen features.

The head is the only trainable component in the pipeline.  Forward and
backward passes are written out by hand in numpy, including the
batch-normalization gradient, so they can be verified against central
finite differences.  Each convolution is one matmul over zero-padded
image columns; kernels are odd (1x1 by default, so each block is a
per-pixel linear map).  The convolutions carry no bias: BN subtracts
each channel's batch mean, which would cancel it (its gradient is
exactly zero).

Activations follow the precision of the input features: float64 features
(evaluation, scoring, the gradient checks) run in float64, float32
features (training) in float32.  Parameters, running statistics and
gradients are always float64.

Batch statistics are taken over the spatial positions of the single
[D, H, W] feature map being processed.  Both forward modes are pure: a
train-mode forward returns its batch statistics in the cache, and
``commit_batch_stats`` folds them into the running statistics later, so
a caller can drop a forward (an aborted training iteration) without
moving any state.

A train-mode cache holds the input features and, for every block after
the first, its centred conv output ``z`` [C, H*W] in the activation
dtype, with each block's per-channel statistics.  Nothing else is kept:
``head_backward`` recomputes block 0's ``z`` once per call from the
features (``_centred_conv``, one matmul) and each post-ReLU output from
its ``z`` (``_relu``), by the forward's own ops in the same dtype, so
every recomputed array equals the forward's byte for byte and every
gradient keeps its bytes.  The features are held by reference; the
weights must not change between a forward and its backward.  For the
desk head on 64x64 float32 features a cache holds 1.3 MB; keeping block
0's ``z`` too took 1.8 MB, and the ReLU outputs as well 3.4 MB.

Convolutions with kernels above 1x1 take their scratch memory, the
zero-padded input and its [C*k*k, H*W] columns, from the head's own
``Workspace`` (``HeadParams.workspace``).  ``_cols`` builds the columns of
every convolution: the forward's, the eval bands', the weight gradient's
and the input gradient's, which is a 'same' convolution of the conv output
gradient by the kernel flipped in both spatial axes with its channel axes
swapped.  Every forward and backward of a head, in either mode, reuses that
memory: across a training run's slots and iterations, and across eval
bands and images.  Nothing in a workspace outlives the call that wrote
it, so the calls may interleave in any order, but two threads must not
run calls of one head at once.  1x1 convolutions read their input in
place and take nothing from a workspace.

Eval mode folds batchnorm into the weights once per call, then walks the
map in row bands of about ``TILE_PIXELS`` pixels, each with a halo of
``blocks * (kernel_size // 2)`` rows on either side that is cropped after
the last block, so one path serves every kernel size.  Band logits equal
a full-map pass byte for byte where each band holds a multiple of 8
pixels, as every width divisible by 8 gives (64x64, the only size a
shipped config or the golden record uses; 32x32, 16x16, 48x80; kernels 1
and 3).  Elsewhere (37x53, 70x70) they differ by at most 5e-16 of the
largest logit: OpenBLAS's dgemm rounds ragged edge columns on their own path.

Two numpy rules keep the per-channel passes off slow paths; neither changes
a byte.  ``ufunc_buffer_size`` gives numpy's ufunc buffer size for maps of
a given pixel count: the training loop runs under the size for its maps
(the trainer's docstring says why), and the eval bands under the size for
one band, 512 pixels on a 64-wide map; ``ufunc_buffer`` restores the
caller's size on exit.  On numpy 2.4.6 the bands' size took a ``score``
request 5.9% below numpy's default of 8192 (faster in 11 of 12 pairs), and
an ``eval`` 1.3%, within the noise.

The train-mode ReLU (``_relu``) takes its maximum against a zero row in the
activation dtype, not the scalar 0.0: on numpy 2.4.6 a float32 maximum with
a scalar operand takes a slower loop (30 against 15 us for a [32, 4096]
map; a desk iteration makes 48 such calls), and NaN, signed zeros,
infinities and subnormals come out as the scalar gives them.
The eval bands keep the scalar: an array zero there moved neither a
``score`` request (+0.3%) nor an ``eval`` (-0.5%) by more than the noise.

A checkpoint is one TNSR file per array plus ``head.txt``, one
``key=value`` line per name of ``_MANIFEST_KEYS`` in that order: the config
fields, then the digest of the frozen model the head was trained on, its
training λ and the SHA-256 of its training config.  This module alone
writes and reads those lines; ``load_head`` reads the file once and
rejects a manifest with any other set or order of lines, and a head that
does not match the given frozen digest.
"""

from __future__ import annotations

import contextlib
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .tensorio import ArtifactError, read_tensor, write_tensor

OUT_CHANNELS = 2
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9  # running statistic weight per committed batch
# Eval bands: a [32, 512] float64 activation is 128 KiB, glibc's default mmap
# threshold, so a band's temporaries come back from the heap and stay in L2,
# where a full-map array per block is mapped and page-faulted in every call.
TILE_PIXELS = 512
BAND_HALOS = 8  # a band is at least this many halos tall, so halo rows stay a small share
NUMPY_BUFSIZE = 8192  # numpy's default ufunc buffer size, in elements


class HeadShapeError(ValueError):
    """Feature map incompatible with the head configuration."""


@dataclass(frozen=True)
class HeadConfig:
    feature_dim: int
    blocks: int = 3
    hidden: int = 32
    kernel_size: int = 1

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {self.blocks}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")


_BLOCK_LEAVES = ("w", "gamma", "beta", "run_mean", "run_var")


@dataclass
class BlockParams:
    w: np.ndarray         # [out, in, k, k]
    gamma: np.ndarray     # [out]
    beta: np.ndarray      # [out]
    run_mean: np.ndarray  # [out]
    run_var: np.ndarray   # [out]


class Workspace:
    """Reusable scratch memory for the k > 1 convolutions (module docstring):
    one grow-only byte buffer per role, handed out as an uninitialised array
    of the asked shape and dtype.  Each ``take`` of a role overwrites what
    the last one of that role handed out."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * int(np.prod(shape))
        flat = self._flat.get(role)
        if flat is None or flat.size < nbytes:
            flat = self._flat[role] = np.empty(nbytes, np.uint8)
        return flat[:nbytes].view(dtype).reshape(shape)


@dataclass
class HeadParams:
    config: HeadConfig
    blocks: list[BlockParams]
    out_w: np.ndarray  # [2, hidden]
    out_b: np.ndarray  # [2]
    workspace: Workspace = field(default_factory=Workspace, repr=False, compare=False)  # k > 1 scratch

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every stored array by leaf name, in ``_shapes`` order."""
        named = [(f"block{i}.{n}", getattr(b, n)) for i, b in enumerate(self.blocks) for n in _BLOCK_LEAVES]
        return named + [("out.w", self.out_w), ("out.b", self.out_b)]

    def trainable(self) -> list[tuple[str, np.ndarray]]:
        """Gradient-carrying leaves in a fixed order (running stats excluded)."""
        return [(name, arr) for name, arr in self.arrays() if ".run_" not in name]


def _shapes(cfg: HeadConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every stored array by leaf name: the blocks in order, then out."""
    shapes = {}
    c_in, h, k = cfg.feature_dim, cfg.hidden, cfg.kernel_size
    for i in range(cfg.blocks):
        shapes[f"block{i}.w"] = (h, c_in, k, k)
        shapes.update({f"block{i}.{name}": (h,) for name in _BLOCK_LEAVES[1:]})
        c_in = h
    shapes["out.w"] = (OUT_CHANNELS, h)
    shapes["out.b"] = (OUT_CHANNELS,)
    return shapes


def _assemble(cfg: HeadConfig, arrays: dict[str, np.ndarray]) -> HeadParams:
    blocks = [BlockParams(**{n: arrays[f"block{i}.{n}"] for n in _BLOCK_LEAVES}) for i in range(cfg.blocks)]
    return HeadParams(config=cfg, blocks=blocks, out_w=arrays["out.w"], out_b=arrays["out.b"])


def head_init(cfg: HeadConfig, seed: int) -> HeadParams:
    """Fresh parameters: He-style weights drawn in ``_shapes`` order, neutral rest."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _shapes(cfg).items():
        if name.endswith(".w"):  # fan_in: the product of the input dimensions
            arrays[name] = rng.standard_normal(shape) * np.sqrt(2.0 / np.prod(shape[1:]))
        else:
            arrays[name] = (np.ones if name.endswith(("gamma", "run_var")) else np.zeros)(shape)
    return _assemble(cfg, arrays)


def ufunc_buffer_size(pixels: int) -> int:
    """numpy's ufunc buffer size for per-channel passes over ``pixels``
    pixels (module docstring): rounded down to a multiple of 16, numpy's
    unit, from 16 up to numpy's default."""
    return min(NUMPY_BUFSIZE, max(16, pixels // 16 * 16))


@contextlib.contextmanager
def ufunc_buffer(pixels: int):
    """Run the block under ``ufunc_buffer_size(pixels)`` and restore the
    caller's size when it returns or raises, as numpy < 2.0's errstate does not."""
    caller = np.setbufsize(ufunc_buffer_size(pixels))
    try:
        yield
    finally:
        np.setbufsize(caller)


def _cols(x: np.ndarray, k: int, ws: Workspace) -> np.ndarray:
    """[C, H, W] -> [C*k*k, H*W] zero-padded 'same' patches; a view of ``x``
    for k = 1, else the workspace's "cols" buffer (padded via its "pad").

    Row order (channel, tap row, tap column) matches ``w.reshape(out, -1)``,
    so every convolution is one matmul against these columns.
    """
    c, h, w = x.shape
    if k == 1:
        return x.reshape(c, h * w)
    r = k // 2
    xp = ws.take("pad", (c, h + 2 * r, w + 2 * r), x.dtype)
    xp.fill(0)
    xp[:, r : r + h, r : r + w] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))  # [C, H, W, k, k]
    cols = ws.take("cols", (c * k * k, h * w), x.dtype)
    cols.reshape(c, k, k, h, w)[...] = win.transpose(0, 3, 4, 1, 2)
    return cols


def _row_sums(a: np.ndarray) -> np.ndarray:
    # a matmul against ones: far quicker than a float64-accumulating sum
    return (a @ np.ones(a.shape[1], dtype=a.dtype)).astype(np.float64)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("cn,cn->c", a, b).astype(np.float64)


def _centred_conv(blk: BlockParams, x: np.ndarray, k: int, ws: Workspace, mean: np.ndarray | None = None):
    """(z, mean): the block's conv output [C, H*W] in the dtype of ``x``,
    centred per channel by ``mean``, its batch mean unless given."""
    z = blk.w.reshape(blk.w.shape[0], -1).astype(x.dtype) @ _cols(x, k, ws)
    if mean is None:
        mean = _row_sums(z) / z.shape[1]
    z -= mean.astype(x.dtype)[:, None]
    return z, mean


@dataclass
class _BlockCache:
    """One block of a train-mode cache (module docstring)."""

    x_in: np.ndarray | None  # [C_in, H, W] input features on block 0; None on later blocks
    z: np.ndarray | None  # [C, H*W] centred conv output; None on block 0, recomputed there
    mean: np.ndarray     # [C] batch mean of the conv output
    var: np.ndarray      # [C] batch variance of the conv output
    inv_std: np.ndarray  # [C]
    scale: np.ndarray    # [C] gamma * inv_std
    shift: np.ndarray    # [C] beta


def _relu(z: np.ndarray, bc: _BlockCache, out: np.ndarray | None = None) -> np.ndarray:
    """Post-ReLU output [C, H*W] of a train-mode block from its centred conv
    output ``z``, by the forward's own ops in the activation dtype, so a
    recompute equals the forward's array byte for byte.  ``out`` is a spent
    [C, H*W] buffer to reuse (``z`` itself included)."""
    a = np.multiply(z, bc.scale.astype(z.dtype)[:, None], out=out)
    a += bc.shift.astype(z.dtype)[:, None]
    return np.maximum(a, np.zeros(a.shape[1], a.dtype), out=a)  # an array zero (module docstring)


@dataclass
class HeadCache:
    params: HeadParams
    blocks: list[_BlockCache]


def head_forward(params: HeadParams, features: np.ndarray, mode: str = "eval"):
    """Run the head over [D, H, W] features; returns (logits [2, H, W], cache).

    Train mode normalizes with this map's own spatial statistics and
    returns the cache needed by ``head_backward``, which also carries those
    statistics for ``commit_batch_stats``; the running statistics are left
    untouched.  Eval mode uses running statistics, runs over row bands
    (``_eval_bands``) and returns None for the cache.  Both modes take
    their k > 1 scratch memory from ``params.workspace``.

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
    if mode == "eval":
        return _eval_bands(params, x), None
    h, w = x.shape[1:]
    caches: list[_BlockCache] = []
    for blk in params.blocks:
        z, mean = _centred_conv(blk, x, cfg.kernel_size, params.workspace)
        var = _row_dots(z, z) / z.shape[1]
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        first = not caches  # block 0 keeps the features, not z: its ReLU output overwrites z
        bc = _BlockCache(x if first else None, None if first else z,
                         mean, var, inv_std, blk.gamma * inv_std, blk.beta.copy())
        caches.append(bc)
        x = _relu(z, bc, out=z if first else None).reshape(-1, h, w)
    logits = params.out_w.astype(dtype) @ x.reshape(x.shape[0], -1)
    logits += params.out_b.astype(dtype)[:, None]
    return logits.reshape(OUT_CHANNELS, h, w), HeadCache(params=params, blocks=caches)


def _eval_bands(params: HeadParams, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits [2, H, W], one haloed row band at a time (module
    docstring); batchnorm is a fixed affine map here, folded into the weights."""
    k, dtype = params.config.kernel_size, x.dtype
    h, w = x.shape[1:]
    folded = []
    for blk in params.blocks:
        scale = blk.gamma / np.sqrt(blk.run_var + BN_EPSILON)
        w2 = blk.w.reshape(blk.w.shape[0], -1) * scale[:, None]
        folded.append((w2.astype(dtype), ((-blk.run_mean) * scale + blk.beta).astype(dtype)[:, None]))
    out_w = params.out_w.astype(dtype)
    halo = len(folded) * (k // 2)  # rows the blocks' 'same' padding spoils at a band edge
    rows = max(1, TILE_PIXELS // max(w, 1), BAND_HALOS * halo)
    logits = np.empty((OUT_CHANNELS, h, w), dtype=dtype)
    with ufunc_buffer(min(rows, h) * w):
        for top in range(0, h, rows):
            bottom = min(top + rows, h)
            lo, hi = max(top - halo, 0), min(bottom + halo, h)
            a = x[:, lo:hi]
            for w2, bias in folded:
                a = w2 @ _cols(a, k, params.workspace)
                a += bias
                a = np.maximum(a, 0.0, out=a).reshape(-1, hi - lo, w)  # a scalar zero (module docstring)
            band = a[:, top - lo : bottom - lo].reshape(a.shape[0], -1)
            np.matmul(out_w, band, out=logits[:, top:bottom].reshape(OUT_CHANNELS, -1))
    logits += params.out_b.astype(dtype)[:, None, None]
    return logits


def commit_batch_stats(params: HeadParams, caches: list[HeadCache]) -> None:
    """Fold train-mode batch statistics into the running statistics, one
    cache after another, by the momentum rule
    ``run = BN_MOMENTUM * run + (1 - BN_MOMENTUM) * batch``."""
    m = BN_MOMENTUM
    for cache in caches:
        if cache.params is not params:
            raise ValueError("cache does not belong to these parameters")
        for blk, bc in zip(params.blocks, cache.blocks):
            blk.run_mean[:] = m * blk.run_mean + (1.0 - m) * bc.mean
            blk.run_var[:] = m * blk.run_var + (1.0 - m) * bc.var


def head_backward(params: HeadParams, cache: HeadCache, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt every trainable leaf.

    ``grad_logits`` is dLoss/dlogits at the head output.  Gradients flow
    through the train-mode batch statistics; no gradient is produced for
    the (frozen) input features.  The cache is left untouched, so it may
    be differentiated more than once.
    """
    if cache is None or cache.params is not params:
        raise ValueError("cache does not belong to these parameters")
    b0, k, ws = cache.blocks[0], params.config.kernel_size, params.workspace
    hw, dtype = b0.x_in.shape[1:], b0.x_in.dtype
    g = np.asarray(grad_logits)
    if g.shape != (OUT_CHANNELS,) + hw:
        raise ValueError(f"grad shape {g.shape} does not match logits")
    g2 = g.reshape(OUT_CHANNELS, -1).astype(dtype, copy=False)
    zs = [_centred_conv(params.blocks[0], b0.x_in, k, ws, b0.mean)[0]] + [bc.z for bc in cache.blocks[1:]]
    act = _relu(zs[-1], cache.blocks[-1])  # a fresh buffer, reused for every later recompute
    grads: dict[str, np.ndarray] = {
        "out.w": (g2 @ act.T).astype(np.float64),
        "out.b": _row_sums(g2),
    }
    da = params.out_w.T.astype(dtype) @ g2
    for i in reversed(range(len(params.blocks))):
        blk, bc, z = params.blocks[i], cache.blocks[i], zs[i]
        dz = np.multiply(da, act > 0.0, out=da)  # ReLU gate; da is a fresh array
        # dz = scale * (dy - mean(dy) - xhat * mean(dy * xhat)), xhat = inv_std * z
        n = dz.shape[1]
        r = _row_sums(dz)
        s = _row_dots(dz, z)
        grads[f"block{i}.gamma"] = bc.inv_std * s
        grads[f"block{i}.beta"] = r
        dz *= bc.scale.astype(dtype)[:, None]
        dz -= (bc.scale * r / n).astype(dtype)[:, None]
        dz -= np.multiply(z, (bc.scale * bc.inv_std**2 * s / n).astype(dtype)[:, None], out=act)
        # the block input: the features, or the previous block's output, which
        # its gate then reads
        x_in = bc.x_in if i == 0 else _relu(zs[i - 1], cache.blocks[i - 1], out=act).reshape((-1,) + hw)
        grads[f"block{i}.w"] = (dz @ _cols(x_in, k, ws).T).astype(np.float64).reshape(blk.w.shape)
        if i > 0:  # the input gradient: a 'same' conv of dz by the flipped, channel-swapped kernel
            w_t = np.flip(blk.w, (2, 3)).transpose(1, 0, 2, 3).reshape(blk.w.shape[1], -1)
            da = w_t.astype(dtype) @ _cols(dz.reshape((-1,) + hw), k, ws)
    return grads


# ---------------------------------------------------------------------------
# checkpointing (module docstring): one TNSR file per array plus head.txt

_MANIFEST = "head.txt"
_MANIFEST_KEYS = (*(f.name for f in fields(HeadConfig)), "frozen_digest", "lam", "train_config")


def _tensor_file(name: str) -> str:
    return name.replace(".", "_") + ".tnsr"  # block0.run_mean -> block0_run_mean.tnsr


def save_head(params: HeadParams, out_dir: str | Path, frozen_digest: str, lam: float, train_config: str) -> None:
    """Write the head trained on the frozen model of digest ``frozen_digest``
    with ``lam``, under a training config whose SHA-256 is ``train_config``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = [*astuple(params.config), frozen_digest, repr(lam), train_config]  # every config field is an int
    (out / _MANIFEST).write_text("".join(f"{key}={val}\n" for key, val in zip(_MANIFEST_KEYS, values, strict=True)))
    for name, arr in params.arrays():
        write_tensor(out / _tensor_file(name), arr)


def load_head(ckpt_dir: str | Path, frozen_digest: str) -> tuple[HeadParams, float]:
    """(head, λ) from a checkpoint written by ``save_head`` for the frozen
    model of digest ``frozen_digest``; anything else is ``ArtifactError``.
    ``head.txt`` is read once and must hold the ``_MANIFEST_KEYS`` lines, in
    order and nothing else; each tensor is read and checked (shape its
    config implies, finite) before any parameter is built."""
    ckpt = Path(ckpt_dir)
    lines = [line.partition("=")[::2] for line in (ckpt / _MANIFEST).read_text().splitlines() if line.strip()]
    keys = tuple(key for key, _ in lines)
    if keys != _MANIFEST_KEYS:
        raise ArtifactError(f"head manifest under {ckpt} has keys {keys}, not {_MANIFEST_KEYS}")
    meta = dict(lines)
    try:
        cfg = HeadConfig(**{f.name: int(meta[f.name]) for f in fields(HeadConfig)})  # every field is an int
    except ValueError as exc:
        raise ArtifactError(f"malformed head manifest under {ckpt}: {exc!r}") from exc
    arrays = {}
    for name, shape in _shapes(cfg).items():
        arrays[name] = read_tensor(ckpt / _tensor_file(name))
        if arrays[name].shape != shape:
            raise ArtifactError(f"{name} has shape {arrays[name].shape} in {ckpt}, config implies {shape}")
        if not np.isfinite(arrays[name]).all():
            raise ArtifactError(f"{name} in {ckpt} holds a value that is not finite")
    if meta["frozen_digest"] != frozen_digest:
        raise ArtifactError(
            f"head checkpoint was trained against frozen model {meta['frozen_digest'][:12]}, got {frozen_digest[:12]}")
    try:
        lam = float(meta["lam"])
    except ValueError:
        lam = np.nan
    if not np.isfinite(lam):
        raise ArtifactError(f"head under {ckpt_dir} records lam={meta['lam']}, not a finite number")
    return _assemble(cfg, arrays), lam
