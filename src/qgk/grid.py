"""Periodic grids, field containers and Fourier multiplier tables.

Every field lives on the square torus [0, L)^2 sampled on an n x n uniform
grid.  Spectral coefficients use the Fourier-series normalization: the
forward transform divides by n^2, so the coefficient c(k) multiplies
exp(i xi_k . x) with xi_k = (2 pi / L) k, and Parseval carries the physical
measure explicitly:

    int |f|^2 dx  =  L^2 * sum_k |c(k)|^2 .

Integer wavevector indices run over [-n/2, n/2) per dimension.  The Nyquist
index -n/2 is zeroed whenever a derivative symbol is applied (odd-order
derivatives are ill-defined there; dropping it keeps gradient and divergence
exact adjoints).  Operator outputs therefore live on the symmetric band
|k_i| <= n/2 - 1; plain transforms of sampled data keep whatever the DFT
produces so that round trips are exact.
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
    """Fourier coefficients of a real field, in FFT index order.

    ``coeffs[k1, k2]`` holds the coefficient of exp(i xi . x) with integer
    indices in numpy FFT order ``[0, .., n/2-1, -n/2, .., -1]``.  Real fields
    satisfy the Hermitian symmetry c(-k) = conj(c(k)); operators in this
    package preserve it exactly.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != grid {self.grid.shape}")

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


@dataclass(frozen=True, eq=False)
class MultiplierTable:
    """Precomputed Fourier symbols on a grid.

    ``a = 1 + |xi|^2 + |xi|^4`` and ``d = 1/a`` invert each other mode-wise;
    ``h = (1 + |xi|^2)|xi|^4 / a`` is the dissipation rate of the linear
    flow (h(0) = 0, h ~ |xi|^2 at high frequency).  ``ixi1``/``ixi2`` are the
    gradient symbols and ``bilap = |xi|^4`` the bilaplacian's, all with the
    Nyquist row and column zeroed; ``one_minus_lap = 1 + |xi|^2`` is not a
    derivative and keeps them.
    """

    grid: GridSpec
    a: np.ndarray
    d: np.ndarray
    h: np.ndarray
    ixi1: np.ndarray
    ixi2: np.ndarray
    bilap: np.ndarray
    one_minus_lap: np.ndarray


@lru_cache(maxsize=None)
def index_grids(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Integer wavevector indices (k1, k2) broadcast to full grids."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k1 = np.broadcast_to(k[:, None], grid.shape).copy()
    k2 = np.broadcast_to(k[None, :], grid.shape).copy()
    k1.setflags(write=False)
    k2.setflags(write=False)
    return k1, k2


@lru_cache(maxsize=None)
def wavevectors(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Physical wavevector components (xi1, xi2)."""
    k1, k2 = index_grids(grid)
    lam = grid.frequency_unit
    xi1 = lam * k1
    xi2 = lam * k2
    xi1.setflags(write=False)
    xi2.setflags(write=False)
    return xi1, xi2


@lru_cache(maxsize=None)
def xi_squared(grid: GridSpec) -> np.ndarray:
    xi1, xi2 = wavevectors(grid)
    q = xi1 * xi1 + xi2 * xi2
    q.setflags(write=False)
    return q


@lru_cache(maxsize=None)
def nyquist_mask(grid: GridSpec) -> np.ndarray:
    """True on the Nyquist row/column (index -n/2)."""
    k1, k2 = index_grids(grid)
    half = grid.n // 2
    mask = (k1 == -half) | (k2 == -half)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=None)
def band_keep(grid: GridSpec) -> np.ndarray:
    """1.0 on the symmetric band |k_i| <= n/2 - 1, 0.0 on Nyquist cells."""
    keep = np.where(nyquist_mask(grid), 0.0, 1.0)
    keep.setflags(write=False)
    return keep


@lru_cache(maxsize=None)
def multiplier_table(grid: GridSpec) -> MultiplierTable:
    q = xi_squared(grid)
    keep = band_keep(grid)
    xi1, xi2 = wavevectors(grid)
    one_minus_lap = 1.0 + q
    a = one_minus_lap + q * q
    d = 1.0 / a
    tables = dict(a=a, d=d, h=one_minus_lap * q * q * d, ixi1=1j * xi1 * keep,
                  ixi2=1j * xi2 * keep, bilap=q * q * keep, one_minus_lap=one_minus_lap)
    for arr in tables.values():
        arr.setflags(write=False)
    return MultiplierTable(grid=grid, **tables)


@lru_cache(maxsize=None)
def _flip_index(n: int) -> np.ndarray:
    ix = (-np.arange(n)) % n
    ix.setflags(write=False)
    return ix


def hermitian_defect(field: SpectralField) -> float:
    """Max |c(-k) - conj(c(k))| over all modes."""
    ix = _flip_index(field.grid.n)
    mirrored = field.coeffs[np.ix_(ix, ix)]
    return float(np.max(np.abs(field.coeffs - np.conj(mirrored))))


def require_same_grid(u: SpectralField, v: SpectralField) -> GridSpec:
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid} vs {v.grid}")
    return u.grid
