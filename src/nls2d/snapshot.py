"""Binary snapshot format for one (N, N) coefficient array.

Layout (all integers little-endian):

================  ========================================================
offset 0          magic bytes ``b"NLS2"``
offset 4          format version, uint32 (currently 1)
offset 8          lattice size N, uint32
offset 12         N*N coefficients, complex128 as (re, im) pairs of
                  IEEE-754 binary64 little-endian, natural mode order,
                  row-major
================  ========================================================
"""

from __future__ import annotations

import hmac
import os
import struct
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from .spectral import NonFiniteFieldError

__all__ = ["MAGIC", "FORMAT_VERSION", "save_field", "load_field", "staged"]

MAGIC = b"NLS2"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sII")


@contextmanager
def staged(path: Path) -> Iterator[Path]:
    """A temp path beside ``path``, moved onto it with ``os.replace`` on success.

    Readers of ``path`` see the old file or the whole new one, never a
    partial write, and a failed write leaves no file behind.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_field(coeffs: np.ndarray, path: str | Path, key: str | None = None) -> None:
    """Write one (N, N) coefficient array to ``path`` in the snapshot format, by one rename.

    With ``key`` the file is a cache entry: the snapshot bytes, then their
    32-byte HMAC-SHA256 under ``key``.  The payload is written from the
    array's buffer.
    """
    payload = np.ascontiguousarray(coeffs, dtype="<c16")
    parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, payload.shape[-1]), payload]
    if key is not None:
        checksum = hmac.new(key.encode(), parts[0], "sha256")
        checksum.update(payload)
        parts.append(checksum.digest())
    with staged(Path(path)) as tmp, open(tmp, "wb") as fh:
        fh.writelines(parts)


def load_field(path: str | Path, key: str | None = None) -> np.ndarray:
    """Read the (N, N) array written by :func:`save_field` with the same ``key``.

    With ``key`` the checksum is checked and the array decoded from that one
    read; a mismatch raises ValueError naming ``path``.  Raises ValueError
    naming ``path`` on a bad header, odd or too small N, or a payload of the
    wrong length; NonFiniteFieldError on NaN or Inf.
    """
    blob = memoryview(Path(path).read_bytes())
    if key is not None:
        if blob[-32:] != hmac.digest(key.encode(), blob[:-32], "sha256"):
            raise ValueError(f"{path} is corrupt or keyed to a different run")
        blob = blob[:-32]
    return _decode_field(blob, path)


def _decode_field(blob: bytes | memoryview, source: str | Path) -> np.ndarray:
    """The array in the snapshot bytes ``blob`` read from ``source``."""
    if len(blob) < _HEADER.size:
        raise ValueError(f"{source}: truncated snapshot header")
    magic, version, n = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"{source}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"{source}: unsupported format version {version}")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"{source}: lattice size must be an even integer >= 2, got {n}")
    payload = memoryview(blob)[_HEADER.size:]
    if len(payload) != 16 * n * n:
        raise ValueError(
            f"{source}: payload holds {len(payload)} bytes, expected {16 * n * n} for N={n}"
        )
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(n, n).astype(np.complex128)
    if not np.isfinite(coeffs).all():
        raise NonFiniteFieldError(f"{source}: snapshot holds non-finite coefficients")
    return coeffs
