"""Versioned binary snapshots of spectral fields.

Layout (little-endian throughout):

    magic   : 4 bytes, b"QGK1"
    version : u32 (currently 1)
    n       : u32
    box_length : f64
    time    : f64
    payload : n*n interleaved (re, im) f64 pairs, row-major in ascending
              integer-index order (k1, k2 from -n/2 to n/2 - 1)

The reader validates the header, finiteness and Hermitian symmetry.

Every output file qgk writes goes through ``atomic_output``: it is written
to a temporary file beside the target and renamed onto it, so an
interrupted write never leaves a half-written file.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

from .grid import GridSpec, SpectralField, hermitian_defect

MAGIC = b"QGK1"
VERSION = 1
_HEADER = struct.Struct("<4sIIdd")


class SnapshotError(ValueError):
    """Malformed or inconsistent snapshot file."""


@contextmanager
def atomic_output(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing and move it onto
    ``path`` with os.replace once the block completes; if the block raises,
    the temporary file is removed and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_snapshot(path, field: SpectralField, time: float) -> None:
    n = field.grid.n
    shifted = np.fft.fftshift(field.coeffs)
    payload = np.empty((n, n, 2), dtype="<f8")
    payload[:, :, 0] = shifted.real
    payload[:, :, 1] = shifted.imag
    with atomic_output(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, field.grid.box_length, float(time)))
        fh.write(payload.tobytes())


def read_snapshot(path, dealias: str = "three_halves_padding",
                  hermitian_tol: float = 1e-12) -> tuple[SpectralField, float]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SnapshotError(f"{path}: truncated header")
        magic, version, n, box_length, time = _HEADER.unpack(header)
        if magic != MAGIC:
            raise SnapshotError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotError(f"{path}: unsupported version {version}")
        if n < 8 or n % 2 != 0 or not box_length > 0:
            raise SnapshotError(f"{path}: invalid header fields n={n}, L={box_length}")
        raw = fh.read()
    expected = n * n * 2 * 8
    if len(raw) != expected:
        raise SnapshotError(f"{path}: payload has {len(raw)} bytes, expected {expected}")
    payload = np.frombuffer(raw, dtype="<f8").reshape(n, n, 2)
    coeffs = np.fft.ifftshift(payload[:, :, 0] + 1j * payload[:, :, 1])
    if not np.all(np.isfinite(payload)):
        raise SnapshotError(f"{path}: non-finite coefficients")
    field = SpectralField(GridSpec(n=int(n), box_length=float(box_length), dealias=dealias), coeffs)
    scale = float(np.max(np.abs(coeffs))) or 1.0
    defect = hermitian_defect(field)
    if defect > hermitian_tol * scale:
        raise SnapshotError(
            f"{path}: Hermitian symmetry violated (defect {defect:.3e}, scale {scale:.3e})")
    return field, float(time)
