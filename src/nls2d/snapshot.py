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

__all__ = ["MAGIC", "FORMAT_VERSION", "save_field", "load_field", "save_entry", "load_entry",
           "staged"]

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


def save_field(coeffs: np.ndarray, path: str | Path) -> None:
    """Write one (N, N) coefficient array to ``path`` in the snapshot format, by one rename."""
    _save(coeffs, Path(path))


def save_entry(coeffs: np.ndarray, path: Path, key: str) -> None:
    """Write the (N, N) array as the cache entry for ``key`` at ``path``, by one rename.

    An entry is the array's snapshot bytes, then their 32-byte HMAC-SHA256
    under ``key``.
    """
    _save(coeffs, path, key)


def _save(coeffs: np.ndarray, path: Path, key: str | None = None) -> None:
    """Write the snapshot bytes of ``coeffs`` (the payload from its buffer), then
    their HMAC under ``key`` if given, through :func:`staged`."""
    payload = np.ascontiguousarray(coeffs, dtype="<c16")
    parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, payload.shape[-1]), payload]
    if key is not None:
        checksum = hmac.new(key.encode(), parts[0], "sha256")
        checksum.update(payload)
        parts.append(checksum.digest())
    with staged(path) as tmp, open(tmp, "wb") as fh:
        fh.writelines(parts)


def load_entry(path: Path, key: str) -> np.ndarray:
    """The array of the entry for ``key`` at ``path``, decoded from the one read it checked.

    Raises ValueError naming ``path`` if the checksum does not match ``key`` and the bytes.
    """
    blob = memoryview(path.read_bytes())
    if blob[-32:] != hmac.digest(key.encode(), blob[:-32], "sha256"):
        raise ValueError(f"{path} is corrupt or keyed to a different run")
    return _decode_field(blob[:-32], path)


def load_field(path: str | Path) -> np.ndarray:
    """Read the (N, N) array written by :func:`save_field`.

    Raises ValueError naming ``path`` on a bad header, odd or too small N,
    or a payload of the wrong length; NonFiniteFieldError on NaN or Inf.
    """
    return _decode_field(Path(path).read_bytes(), path)


def _decode_field(blob: bytes | memoryview, source: str | Path) -> np.ndarray:
    """:func:`load_field` on the bytes ``blob`` already read from ``source``."""
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
