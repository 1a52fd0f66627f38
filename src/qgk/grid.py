"""Periodic grids, field containers and Fourier multiplier tables.

Every field lives on the square torus [0, L)^2 sampled on an n x n uniform
grid.  Spectral coefficients use the Fourier-series normalization: the
forward transform divides by n^2, so the coefficient c(k) multiplies
exp(i xi_k . x) with xi_k = (2 pi / L) k, and Parseval carries the physical
measure explicitly:

    int |f|^2 dx  =  L^2 * sum_k |c(k)|^2 .

Integer wavevector indices run over [-n/2, n/2) per dimension.  A real
field is fixed by its band block coeffs[:, :n/2], the only form a field or a
symbol table takes in memory.  The Nyquist index -n/2 is zeroed whenever a
derivative symbol is applied (odd-order derivatives are ill-defined there;
dropping it keeps gradient and divergence exact adjoints), so operator
outputs live on the symmetric band |k_i| <= n/2 - 1.  The block has no
Nyquist column: sampled data round-trip exactly when that column is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

THREE_HALVES = "three_halves_padding"
TWO_THIRDS = "two_thirds_truncation"

DEALIAS_POLICIES = (THREE_HALVES, TWO_THIRDS)


@dataclass(frozen=True)
class GridSpec:
    """Descriptor of a periodic square grid.

    Parameters
    ----------
    n : int
        Points per dimension, even, at least 8.
    box_length : float
        Physical side L of the torus [0, L)^2.
    dealias : str
        Product rule: ``three_halves_padding`` (exact convolution on the
        retained band, the default) or ``two_thirds_truncation`` (cheaper,
        aliases the edge shell on grids with 3 | n).
    """

    n: int
    box_length: float
    dealias: str = THREE_HALVES

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid.n must be an even integer >= 8, got {self.n!r}")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"grid.box_length must be positive, got {self.box_length!r}")
        if self.dealias not in DEALIAS_POLICIES:
            raise ValueError(
                f"grid.dealias must be one of {DEALIAS_POLICIES}, got {self.dealias!r}"
            )

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def frequency_unit(self) -> float:
        """Physical wavevector of the lowest nonzero mode, 2 pi / L."""
        return 2.0 * np.pi / self.box_length

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def band_shape(self) -> tuple[int, int]:
        """Shape (n, n/2) of a field's band block and of every symbol table."""
        return (self.n, self.n // 2)


@dataclass(eq=False)
class RealField:
    """Scalar field sampled at the grid points (L i / n, L j / n)."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != self.grid.shape:
            raise ValueError(f"samples shape {self.samples.shape} != grid {self.grid.shape}")


@dataclass(eq=False)
class SpectralField:
    """Fourier coefficients of a real field, held as its band block.

    ``band[k1, k2]`` holds the coefficient of exp(i xi . x) for k1 in numpy
    FFT order ``[0, .., n/2-1, -n/2, .., -1]`` and 0 <= k2 < n/2; the other
    columns follow from the Hermitian symmetry c(-k) = conj(c(k)) of a real
    field, which therefore holds by construction.  Leading axes are not
    allowed here; the stepper stacks bare blocks.
    """

    grid: GridSpec
    band: np.ndarray

    def __post_init__(self):
        self.band = np.ascontiguousarray(self.band, dtype=complex)
        if self.band.shape != self.grid.band_shape:
            raise ValueError(f"band shape {self.band.shape} != block {self.grid.band_shape} "
                             f"of the grid")

    @property
    def coeffs(self) -> np.ndarray:
        """The full (n, n) coefficient array, built afresh and read-only."""
        full = complete_band(self.band)
        full.setflags(write=False)
        return full


def complete_band(block: np.ndarray) -> np.ndarray:
    """Full coefficient arrays (..., n, n) of the real fields whose band
    blocks are ``block``: negative columns from c(k1, -k2) = conj(c(-k1, k2)),
    the Nyquist column zero."""
    n, h = block.shape[-2:]
    out = np.zeros(block.shape[:-1] + (n,), dtype=complex)
    out[..., :h] = block
    out[..., 0, h + 1:] = np.conj(block[..., 0, h - 1:0:-1])
    out[..., 1:, h + 1:] = np.conj(block[..., :0:-1, h - 1:0:-1])
    return out


@dataclass(frozen=True, eq=False)
class MultiplierTable:
    """Every Fourier symbol that depends on the grid alone, built once per
    grid; all arrays are read-only.

    Every table is (n, n/2), on the band block (FFT order in k1, 0 <= k2 < n/2):

    - ``k1``, ``k2``: integer wavevector indices (as floats, broadcast views);
      ``q = |xi|^2`` of the physical wavevector xi = (2 pi / L) k
    - ``keep``: 0.0 on the Nyquist row (k1 = -n/2) and 1.0 on the symmetric
      band |k_i| <= n/2 - 1; ``mirror``: 1.0 on the k2 = 0 column and 2.0 on
      the others, each of which stands for its mirrored column -k2 in sums
      over the whole spectrum
    - ``a = 1 + |xi|^2 + |xi|^4`` and ``d = 1/a``, which invert each other
      mode-wise, and ``h = (1 + |xi|^2)|xi|^4 / a``, the dissipation rate of
      the linear flow (h(0) = 0, h ~ |xi|^2 at high frequency)
    - ``ixi1``, ``ixi2``: gradient symbols, and ``bilap = |xi|^4``, the
      bilaplacian symbol.  These three derivatives have the Nyquist row
      zeroed; ``one_minus_lap = 1 + |xi|^2`` is not a derivative and keeps it.
    - ``two_thirds``: the 2/3 rule's mask |k_i| <= n//3.
    """

    grid: GridSpec
    k1: np.ndarray
    k2: np.ndarray
    q: np.ndarray
    keep: np.ndarray
    mirror: np.ndarray
    a: np.ndarray
    d: np.ndarray
    h: np.ndarray
    ixi1: np.ndarray
    ixi2: np.ndarray
    bilap: np.ndarray
    one_minus_lap: np.ndarray
    two_thirds: np.ndarray


@lru_cache(maxsize=8)
def multiplier_table(grid: GridSpec) -> MultiplierTable:
    n, half = grid.n, grid.n // 2
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1 = np.broadcast_to(k[:, None], grid.band_shape)
    k2 = np.broadcast_to(k[None, :half], grid.band_shape)
    xi1 = grid.frequency_unit * k1
    xi2 = grid.frequency_unit * k2
    q = xi1 * xi1 + xi2 * xi2
    keep = np.where(k1 == -half, 0.0, 1.0)
    one_minus_lap = 1.0 + q
    a = one_minus_lap + q * q
    d = 1.0 / a
    two_thirds = ((np.abs(k1) <= n // 3) & (np.abs(k2) <= n // 3)).astype(float)
    tables = dict(k1=k1, k2=k2, q=q, keep=keep,
                  mirror=np.where(k2 == 0.0, 1.0, 2.0), a=a, d=d,
                  h=one_minus_lap * q * q * d, ixi1=1j * xi1 * keep, ixi2=1j * xi2 * keep,
                  bilap=q * q * keep, one_minus_lap=one_minus_lap, two_thirds=two_thirds)
    for arr in tables.values():
        arr.setflags(write=False)
    return MultiplierTable(grid=grid, **tables)


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Max |c(-k) - conj(c(k))| over all modes of a full (n, n) coefficient
    array in FFT order or a snapshot file's order, in both of which index j
    mirrors to (n - j) mod n.  Each mirror pair is compared once, as
    |z| = |-conj z| gives both orders of a pair the same value."""
    h = coeffs.shape[0] // 2
    pairs = ((coeffs[1:, h:], coeffs[:0:-1, h:0:-1]), (coeffs[0, h:], coeffs[0, h:0:-1]),
             (coeffs[1:, 0], coeffs[:0:-1, 0]), (coeffs[0, 0], coeffs[0, 0]))
    return float(np.max([np.max(np.abs(c - np.conj(m))) for c, m in pairs]))


def require_same_grid(u: SpectralField, v: SpectralField) -> GridSpec:
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid} vs {v.grid}")
    return u.grid
