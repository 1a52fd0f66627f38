"""Dyadic frequency decomposition, Besov norms, paraproducts and Bernstein
ratio diagnostics.

The radial cut-off profile chi(t) equals 1 for t <= 1 and 0 for t >= 2,
with a smooth monotone transition on [1, 2] built from the standard bump
exp(-1/t).  Frequencies are measured in units of the lowest nonzero mode
lambda0 = 2 pi / L, so the dyadic radius of a mode is just its integer index
magnitude |k|.  Block weights:

    block j >= 0 :  chi(|k| / 2^j) - chi(|k| / 2^(j-1)),
                    supported in 2^(j-1) <= |k| <= 2^(j+1);
    block j = -1 :  chi(2 |k|)  (the low cut at half scale, which holds the
                    mean mode and closes the telescoping sum).

With this indexing the weights sum to exactly 1 at every retained mode and
the annulus bounds match the Bernstein bracketing used by the diagnostics.
The profile is fixed and versioned so the Besov/Sobolev equivalence
constants are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, SpectralField, multiplier_table, require_same_grid
from .spectral import band_product, l2_norm, weighted_l2


def chi_profile(t):
    """Monotone radial cut-off: 1 on t <= 1, 0 on t >= 2, smooth between."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        rising = np.where(t > 1.0, np.exp(-1.0 / np.maximum(t - 1.0, 1e-300)), 0.0)
        falling = np.where(t < 2.0, np.exp(-1.0 / np.maximum(2.0 - t, 1e-300)), 0.0)
    out = np.where(t <= 1.0, 1.0, np.where(t >= 2.0, 0.0, falling / (rising + falling)))
    return out


@dataclass(eq=False)
class DyadicPartition:
    """Per-grid tables of the dyadic block weights.

    ``weights[j + 1]`` is the symbol of block j (j runs from -1 to j_max);
    the tables sum to 1 at every mode of the symmetric band.  Row j of
    ``lows`` is the symbol of the low cut S_j = sum_{k <= j-1} block_k,
    for 0 <= j <= j_max + 1.
    """

    grid: GridSpec
    j_max: int
    weights: list[np.ndarray] = field(repr=False)
    lows: np.ndarray = field(repr=False)

    def block_range(self):
        return range(-1, self.j_max + 1)


def dyadic_partition(grid: GridSpec) -> DyadicPartition:
    mt = multiplier_table(grid)
    rho = np.hypot(mt.k1, mt.k2)
    rho_max = np.sqrt(2.0) * (grid.n / 2.0)
    j_max = max(1, int(np.ceil(np.log2(rho_max))))
    keep = mt.keep
    weights = [chi_profile(2.0 * rho) * keep]
    for j in range(0, j_max + 1):
        w = (chi_profile(rho / 2.0 ** j) - chi_profile(rho / 2.0 ** (j - 1))) * keep
        weights.append(w)
    return DyadicPartition(grid=grid, j_max=j_max, weights=weights,
                           lows=np.cumsum(weights, axis=0))


def _check_j(partition: DyadicPartition, j: int) -> None:
    if not -1 <= j <= partition.j_max:
        raise ValueError(f"dyadic index {j} out of range [-1, {partition.j_max}]")


def dyadic_block(partition: DyadicPartition, u: SpectralField, j: int) -> SpectralField:
    """Block j of u (j = -1 holds the mean and first shells)."""
    _check_j(partition, j)
    return SpectralField(u.grid, u.band * partition.weights[j + 1])


def low_cut(partition: DyadicPartition, u: SpectralField, j: int) -> SpectralField:
    """Low-frequency cut S_j u = sum_{k <= j-1} block_k u, for 0 <= j <= j_max+1."""
    if not 0 <= j <= partition.j_max + 1:
        raise ValueError(f"low_cut index {j} out of range [0, {partition.j_max + 1}]")
    return SpectralField(u.grid, u.band * partition.lows[j])


def besov_norm(partition: DyadicPartition, u: SpectralField, s: float) -> float:
    """B^s_{2,2} norm: (sum_j 2^(2js) |block_j u|_{L2}^2)^(1/2)."""
    total = 0.0
    for j in partition.block_range():
        w = partition.weights[j + 1]
        total += 4.0 ** (j * s) * weighted_l2(u, w * w) ** 2
    return float(np.sqrt(total))


def besov_sobolev_bounds(partition: DyadicPartition, s: float) -> tuple[float, float]:
    """Mode-wise bounds of the Besov/Sobolev weight ratio for this profile."""
    grid = partition.grid
    mt = multiplier_table(grid)
    num = np.zeros(grid.band_shape)
    for j in partition.block_range():
        w = partition.weights[j + 1]
        num += 4.0 ** (j * s) * w * w
    ratio = num / (1.0 + mt.q) ** s
    keep = mt.keep.astype(bool)
    vals = ratio[keep]
    return float(np.sqrt(np.min(vals))), float(np.sqrt(np.max(vals)))


def paraproduct(partition: DyadicPartition, u: SpectralField, v: SpectralField) -> SpectralField:
    """T_u v = sum_j S_{j-1} u * block_j v (products dealiased)."""
    grid = require_same_grid(u, v)
    return SpectralField(grid, band_product(grid, [
        ((u.band, partition.lows[j - 1]), (v.band, partition.weights[j + 1]))
        for j in range(1, partition.j_max + 1)]))


def remainder(partition: DyadicPartition, u: SpectralField, v: SpectralField) -> SpectralField:
    """R(u, v) = sum over |j - j'| <= 1 of block_j u * block_j' v."""
    grid = require_same_grid(u, v)
    w = partition.weights
    return SpectralField(grid, band_product(grid, [
        ((u.band, w[j + 1]), (v.band, w[jp + 1]))
        for j in partition.block_range() for jp in (j - 1, j, j + 1)
        if -1 <= jp <= partition.j_max]))


def bernstein_ratio(partition: DyadicPartition, u: SpectralField, j: int, k: int) -> float:
    """|grad^k u| / (2^(jk) lambda0^k |u|) for u supported in annulus j.

    Returns NaN for a zero block (the caller excludes it from statistics).
    The k-th gradient norm is the |xi|^k-weighted L^2 norm; Nyquist cells
    never carry block weight, so no extra masking is needed.
    """
    _check_j(partition, j)
    if k < 0:
        raise ValueError("derivative order k must be nonnegative")
    base = l2_norm(u)
    if base == 0.0:
        return float("nan")
    mt = multiplier_table(u.grid)
    lam = u.grid.frequency_unit
    xik = (lam * np.hypot(mt.k1, mt.k2)) ** k
    num = weighted_l2(u, xik * xik)
    return num / (2.0 ** (j * k) * lam ** k * base)


def block_spectrum(partition: DyadicPartition, u: SpectralField, s: float = 0.0):
    """Rows (j, l2_of_block, 2^(js)-weighted value) for every block."""
    rows = []
    for j in partition.block_range():
        val = l2_norm(dyadic_block(partition, u, j))
        rows.append((j, val, 2.0 ** (j * s) * val))
    return rows
