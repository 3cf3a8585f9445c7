"""Array and image file formats.

Two on-disk representations are used throughout:

* TNSR, a small self-describing binary container for float64 arrays
  (little-endian, rank 1..4).
* Binary netpbm (PPM ``P6`` for RGB, PGM ``P5`` for single-channel label
  and mask images), always with maxval 255.

A file of either kind ends where its payload does: bytes past it are an
error, as a short payload is.

Label value 255 is reserved: pixels carrying it are excluded from losses
and metrics.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# Reserved label: never a class id, never scored.
IGNORE = 255

TNSR_MAGIC = b"TNSR"
TNSR_VERSION = 1
_DTYPE_F64 = 1  # the one payload code; any other is UnsupportedDtypeError
_MAX_RANK = 4
_U64_MAX = 2**64 - 1


class ArtifactError(ValueError):
    """Stored artifact missing, malformed, or digest-mismatched."""


class TensorFormatError(ValueError):
    """Malformed or unsupported TNSR data."""


class BadMagicError(TensorFormatError):
    pass


class UnsupportedDtypeError(TensorFormatError):
    pass


class TruncatedPayloadError(TensorFormatError):
    pass


class DimOverflowError(TensorFormatError):
    pass


class NetpbmError(ValueError):
    """Malformed or unsupported PPM/PGM data."""


class MalformedHeaderError(NetpbmError):
    pass


class UnsupportedMaxvalError(NetpbmError):
    pass


class ShortPayloadError(NetpbmError):
    pass


def tensor_bytes(array: np.ndarray) -> bytes:
    """Serialize an array to float64 TNSR bytes."""
    a = np.asarray(array, dtype=np.float64)
    if a.ndim < 1 or a.ndim > _MAX_RANK:
        raise TensorFormatError(f"rank must be 1..{_MAX_RANK}, got {a.ndim}")
    if any(d <= 0 for d in a.shape):
        raise TensorFormatError(f"dims must be positive, got {a.shape}")
    header = TNSR_MAGIC + struct.pack("<IBB", TNSR_VERSION, _DTYPE_F64, a.ndim)
    dims = struct.pack(f"<{a.ndim}Q", *a.shape)
    return header + dims + a.astype("<f8").tobytes()


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    """Parse TNSR bytes into a float64 array."""
    if len(blob) < 4 or blob[:4] != TNSR_MAGIC:
        raise BadMagicError("not a TNSR blob")
    if len(blob) < 10:
        raise TruncatedPayloadError("header cut short")
    version, code, rank = struct.unpack_from("<IBB", blob, 4)
    if version != TNSR_VERSION:
        raise TensorFormatError(f"unsupported version {version}")
    if code != _DTYPE_F64:
        raise UnsupportedDtypeError(f"unknown dtype code {code}")
    if rank < 1 or rank > _MAX_RANK:
        raise TensorFormatError(f"rank must be 1..{_MAX_RANK}, got {rank}")
    off = 10
    if len(blob) < off + 8 * rank:
        raise TruncatedPayloadError("dims cut short")
    dims = struct.unpack_from(f"<{rank}Q", blob, off)
    off += 8 * rank
    if any(d == 0 for d in dims):
        raise TensorFormatError(f"dims must be positive, got {dims}")
    count = 1
    for d in dims:
        count *= d
        if count > _U64_MAX:
            raise DimOverflowError(f"element count overflows u64: {dims}")
    need = count * 8
    if len(blob) - off < need:
        raise TruncatedPayloadError(f"payload needs {need} bytes, have {len(blob) - off}")
    if len(blob) - off > need:
        raise TensorFormatError(f"{len(blob) - off - need} bytes past the {need}-byte payload")
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
    return flat.astype(np.float64).reshape(dims)


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    Path(path).write_bytes(tensor_bytes(array))


def read_tensor(path: str | Path) -> np.ndarray:
    return tensor_from_bytes(Path(path).read_bytes())


def _read_header_tokens(blob: bytes, n_tokens: int) -> tuple[list[bytes], int]:
    # netpbm headers: whitespace-separated tokens, '#' comments run to EOL
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < n_tokens:
        if i >= len(blob):
            raise MalformedHeaderError("header ended early")
        c = blob[i : i + 1]
        if c == b"#":
            j = blob.find(b"\n", i)
            i = len(blob) if j < 0 else j + 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j : j + 1].isspace() and blob[j : j + 1] != b"#":
                j += 1
            tokens.append(blob[i:j])
            i = j
    # exactly one whitespace byte separates the header from the payload
    if i >= len(blob) or not blob[i : i + 1].isspace():
        raise MalformedHeaderError("missing separator before payload")
    return tokens, i + 1


def _parse_netpbm(blob: bytes, magic: bytes, channels: int) -> np.ndarray:
    if blob[:2] != magic:
        raise MalformedHeaderError(f"expected {magic.decode()} magic")
    tokens, off = _read_header_tokens(blob[2:], 3)
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise MalformedHeaderError(f"non-numeric header field: {tokens}") from exc
    if w <= 0 or h <= 0:
        raise MalformedHeaderError(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise UnsupportedMaxvalError(f"maxval must be 255, got {maxval}")
    off += 2  # account for the magic bytes stripped above
    need = w * h * channels
    if len(blob) - off < need:
        raise ShortPayloadError(f"payload needs {need} bytes, have {len(blob) - off}")
    if len(blob) - off > need:
        raise NetpbmError(f"{len(blob) - off - need} bytes past the {need}-byte payload")
    flat = np.frombuffer(blob, dtype=np.uint8, count=need, offset=off)
    shape = (h, w, channels) if channels > 1 else (h, w)
    return flat.reshape(shape).copy()


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 image into a uint8 [H, W, 3] array."""
    return _parse_netpbm(Path(path).read_bytes(), b"P6", 3)


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 image into a uint8 [H, W] array (255 = IGNORE)."""
    return _parse_netpbm(Path(path).read_bytes(), b"P5", 1)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected uint8 [H, W, 3], got {img.dtype} {img.shape}")
    h, w = img.shape[:2]
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + img.tobytes())


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError(f"expected uint8 [H, W], got {img.dtype} {img.shape}")
    h, w = img.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())
