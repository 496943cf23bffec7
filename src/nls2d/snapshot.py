"""Binary snapshot format for spectral fields.

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

import os
import struct
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from .spectral import SpectralField

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


def save_field(f: SpectralField, path: str | Path) -> None:
    """Write a spectral field to ``path`` in the snapshot format."""
    payload = np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, f.n_modes))
        fh.write(payload)


def load_field(path: str | Path) -> SpectralField:
    """Read a spectral field written by :func:`save_field`.

    Raises ValueError on wrong magic, unsupported version, or truncated
    payload; propagates OSError on I/O failure.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header")
        magic, version, n = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        payload = fh.read()
    expected = 16 * n * n
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected} for N={n}"
        )
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(n, n)
    return SpectralField(int(n), coeffs.astype(np.complex128))
