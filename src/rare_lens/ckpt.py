"""Binary checkpoint container: JSON header, named f32 blobs, CRC32 footer.

All three artifact files share one layout:

  magic(4) | u16 VERSION | u32 n | n bytes of sort-keyed JSON header
  | u32 count | count x (u32 name length, name, u32 ndim, u32 dims, f32 data)
  | u32 crc32

Blobs are sorted by name. The magic names the kind (vlm.ckpt "RLVM",
classes.ckpt "RLCE", adapter.ckpt "RLAD") and the header carries what loading
needs: the decoder's VLMConfig fields plus its vocab size, the EMA kappa and
class names, or the adapter's head count and paired class-table CRC.

All integers little-endian. The footer is the CRC32 of every byte before it;
loaders reject mismatches, and the pipeline records each footer so it can
tell one valid file from another on resume. Weights are stored f32, so
training stages round their results through f32 before downstream use; that
makes resumed runs bit-identical to uninterrupted ones.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .base import write_atomic
from .errors import ChecksumError, PairingError

VERSION = 2


def _blob_bytes(name: str, arr: np.ndarray) -> bytes:
    raw = name.encode()
    head = struct.pack("<I", len(raw)) + raw
    head += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype("<f4").tobytes()


def _encode_blobs(weights: dict[str, Tensor]) -> bytes:
    out = struct.pack("<I", len(weights))
    for name in sorted(weights):
        out += _blob_bytes(name, weights[name].array)
    return out


def _decode_blobs(buf: bytes, offset: int) -> dict[str, np.ndarray]:
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    blobs: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        name = buf[offset : offset + name_len].decode()
        offset += name_len
        (ndim,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        shape = struct.unpack_from(f"<{ndim}I", buf, offset)
        offset += 4 * ndim
        size = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(buf, dtype="<f4", count=size, offset=offset)
        offset += 4 * size
        blobs[name] = arr.astype(np.float64).reshape(shape)
    return blobs


def weights_crc(weights: dict[str, Tensor]) -> int:
    """Canonical checksum of a weight set (name-sorted f32 blob bytes)."""
    return zlib.crc32(_encode_blobs(weights))


def round_f32(weights: dict[str, Tensor]) -> dict[str, Tensor]:
    """Round every tensor through storage precision (f32) in f64 carriers."""
    return {
        name: Tensor(t.array.astype(np.float32).astype(np.float64),
                     requires_grad=t.requires_grad)
        for name, t in weights.items()
    }


def _save(path, magic: bytes, header: dict, weights: dict[str, Tensor]) -> int:
    head = json.dumps(header, sort_keys=True).encode()
    body = magic + struct.pack("<HI", VERSION, len(head)) + head + _encode_blobs(weights)
    crc = zlib.crc32(body)
    write_atomic(path, body + struct.pack("<I", crc))
    return crc


def _load(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    buf = Path(path).read_bytes()
    if len(buf) < 14 or buf[:4] != magic:
        raise ChecksumError(f"{path}: bad magic (expected {magic!r})")
    body, (stored,) = buf[:-4], struct.unpack("<I", buf[-4:])
    if zlib.crc32(body) != stored:
        raise ChecksumError(f"{path}: CRC mismatch, file is corrupt")
    version, n = struct.unpack_from("<HI", body, 4)
    if version != VERSION:
        raise ChecksumError(f"{path}: unsupported version {version}")
    return json.loads(body[10 : 10 + n]), _decode_blobs(body, 10 + n)


def footer_crc(path) -> int | None:
    """The stored CRC32 footer, read without the body; None if shorter than 4 bytes."""
    with open(path, "rb") as fh:
        if fh.seek(0, os.SEEK_END) < 4:
            return None
        fh.seek(-4, os.SEEK_END)
        return int.from_bytes(fh.read(4), "little")


# Each writer returns the stored footer; each reader returns (header, blobs).


def save_vlm(path, header: dict, weights: dict[str, Tensor]) -> int:
    return _save(path, b"RLVM", header, weights)


def load_vlm(path) -> tuple[dict, dict[str, np.ndarray]]:
    return _load(path, b"RLVM")


def save_classes(path, header: dict, weights: dict[str, Tensor]) -> int:
    return _save(path, b"RLCE", header, weights)


def load_classes(path) -> tuple[dict, dict[str, np.ndarray]]:
    return _load(path, b"RLCE")


def save_adapter(path, header: dict, weights: dict[str, Tensor]) -> int:
    return _save(path, b"RLAD", header, weights)


def load_adapter(path, expect_table_crc: int | None = None):
    header, blobs = _load(path, b"RLAD")
    table_crc = header["table_crc"]
    if expect_table_crc is not None and table_crc != expect_table_crc:
        raise PairingError(
            f"{path}: adapter was trained against class table crc {table_crc}, "
            f"but {expect_table_crc} was supplied"
        )
    return header, blobs
