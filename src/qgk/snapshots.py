"""Versioned binary snapshots of spectral fields.

Layout (little-endian throughout):

    magic   : 4 bytes, b"QGK1"
    version : u32 (currently 1)
    n       : u32
    box_length : f64
    time    : f64
    payload : n*n interleaved (re, im) f64 pairs, row-major in ascending
              integer-index order (k1, k2 from -n/2 to n/2 - 1)

The payload is the full spectrum, completed from the field's band block on
writing.  The reader validates the header (t and L finite), finiteness and
Hermitian symmetry of the whole payload to HERMITIAN_TOL times the largest
coefficient, and then keeps the band block.

Every output file qgk writes goes through ``atomic_output``: it is written
to a temporary file beside the target and renamed onto it, so an
interrupted write never leaves a half-written file.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .grid import GridSpec, SpectralField, hermitian_defect

MAGIC = b"QGK1"
VERSION = 1
_HEADER = struct.Struct("<4sIIdd")
HERMITIAN_TOL = 1e-12


class SnapshotError(ValueError):
    """Malformed or inconsistent snapshot file."""


@contextmanager
def atomic_output(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing and move it onto
    ``path`` with os.replace once the block completes; if the block raises,
    the temporary file is removed and ``path`` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"cannot write {os.fspath(path)}: "
                                f"no directory {directory}")
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
    payload = np.fft.fftshift(field.coeffs).astype("<c16", copy=False)
    with atomic_output(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, field.grid.n, field.grid.box_length, float(time)))
        fh.write(payload)


def read_snapshot(path) -> tuple[SpectralField, float]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SnapshotError(f"{path}: truncated header")
        magic, version, n, box_length, time = _HEADER.unpack(header)
        if magic != MAGIC:
            raise SnapshotError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotError(f"{path}: unsupported version {version}")
        if n < 8 or n % 2 != 0 or not 0 < box_length < math.inf or not math.isfinite(time):
            raise SnapshotError(f"{path}: invalid header fields n={n}, L={box_length}, t={time}")
        raw = fh.read()
    expected = n * n * 16
    if len(raw) != expected:
        raise SnapshotError(f"{path}: payload has {len(raw)} bytes, expected {expected}")
    coeffs = np.fft.ifftshift(np.frombuffer(raw, dtype="<c16").reshape(n, n))
    if not np.all(np.isfinite(coeffs)):
        raise SnapshotError(f"{path}: non-finite coefficients")
    scale = float(np.max(np.abs(coeffs))) or 1.0
    defect = hermitian_defect(coeffs)
    if defect > HERMITIAN_TOL * scale:
        raise SnapshotError(
            f"{path}: Hermitian symmetry violated (defect {defect:.3e}, scale {scale:.3e})")
    return SpectralField(GridSpec(n=int(n), box_length=float(box_length)),
                         coeffs[:, :n // 2]), float(time)


def read_on_grid(path, grid: GridSpec) -> SpectralField:
    """The snapshot's field at path, on the grid, whose n and L it must share."""
    field, _ = read_snapshot(path)
    if (field.grid.n, field.grid.box_length) != (grid.n, grid.box_length):
        raise SnapshotError(f"{path}: snapshot grid n={field.grid.n}, L={field.grid.box_length!r} "
                            f"does not match the config grid n={grid.n}, L={grid.box_length!r}")
    return SpectralField(grid, field.band)
