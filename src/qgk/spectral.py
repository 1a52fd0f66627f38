"""Transforms, Fourier multipliers, derivatives, projections and dealiased
products on the periodic grid.

All operations are pure functions of their inputs.  Products are evaluated
pseudo-spectrally; under the default 3/2 zero-padding rule the returned
coefficients on the symmetric band equal the exact convolution of the
inputs, which is what makes the discrete integration-by-parts identities of
the transport operator hold to round-off.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .grid import (
    THREE_HALVES,
    GridSpec,
    RealField,
    SpectralField,
    multiplier_table,
    require_same_grid,
)

# every FFT is looked up on this attribute, which perfbench/tracing.py
# replaces to time the 2-D calls
sfft = np.fft


def _threads_setting() -> int | None:
    """QGK_THREADS as an integer (default 1), or None when it does not parse."""
    try:
        return int(os.environ.get("QGK_THREADS", "1"))
    except ValueError:
        return None


def fft_workers() -> int:
    """The FFT worker count QGK_THREADS asks for (0 = one per core,
    unparsable = 1).  Every FFT here runs on numpy.fft, one thread, whatever
    it says; the benchmark records the value with its host."""
    val = _threads_setting()
    if val is None:
        return 1
    if val == 0:
        return os.cpu_count() or 1
    return max(1, val)


def fft_workers_warnings() -> list[str]:
    """Manifest warning naming a QGK_THREADS value that does not parse."""
    if _threads_setting() is not None:
        return []
    return [f"QGK_THREADS = {os.environ['QGK_THREADS']!r} is not an integer; "
            "FFTs run on 1 worker"]


# ---------------------------------------------------------------------------
# transforms


def forward_transform(f: RealField) -> SpectralField:
    """Real samples -> Fourier-series coefficients (forward divides by n^2)."""
    if not np.all(np.isfinite(f.samples)):
        raise ValueError("forward_transform: input samples contain non-finite values")
    n = f.grid.n
    coeffs = sfft.fft2(f.samples) / (n * n)
    return SpectralField(f.grid, coeffs)


def inverse_transform(u: SpectralField) -> RealField:
    """Fourier-series coefficients -> samples at the grid points."""
    n = u.grid.n
    samples = sfft.ifft2(u.coeffs).real * (n * n)
    return RealField(u.grid, samples)


# ---------------------------------------------------------------------------
# diagonal operators


def apply_multiplier(u: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply coefficients mode-wise by a real symbol table."""
    symbol = np.asarray(symbol)
    if symbol.shape != u.grid.shape:
        raise ValueError(f"symbol shape {symbol.shape} does not match grid {u.grid.shape}")
    return SpectralField(u.grid, u.coeffs * symbol)


def gradient(u: SpectralField) -> tuple[SpectralField, SpectralField]:
    mt = multiplier_table(u.grid)
    return (
        SpectralField(u.grid, u.coeffs * mt.ixi1),
        SpectralField(u.grid, u.coeffs * mt.ixi2),
    )


def perp_gradient(u: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Rotated gradient (-d2 u, d1 u); divergence-free mode by mode."""
    mt = multiplier_table(u.grid)
    return (
        SpectralField(u.grid, -u.coeffs * mt.ixi2),
        SpectralField(u.grid, u.coeffs * mt.ixi1),
    )


def divergence(u1: SpectralField, u2: SpectralField) -> SpectralField:
    grid = require_same_grid(u1, u2)
    mt = multiplier_table(grid)
    return SpectralField(grid, u1.coeffs * mt.ixi1 + u2.coeffs * mt.ixi2)


def laplacian(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, u.coeffs * multiplier_table(u.grid).lap)


def bilaplacian(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, u.coeffs * multiplier_table(u.grid).bilap)


def one_minus_laplacian(u: SpectralField) -> SpectralField:
    """(Id - Delta) u.  Not a derivative: keeps whatever band u has."""
    return SpectralField(u.grid, u.coeffs * multiplier_table(u.grid).one_minus_lap)


def project_jn(u: SpectralField, n_cut: float) -> SpectralField:
    """Sharp Galerkin cutoff: zero every coefficient with |xi|^2 > n_cut."""
    if not n_cut > 0:
        raise ValueError(f"n_cut must be positive, got {n_cut!r}")
    mask = (multiplier_table(u.grid).q <= float(n_cut)).astype(float)
    return SpectralField(u.grid, u.coeffs * mask)


def sanitize_band(u: SpectralField) -> SpectralField:
    """Zero the Nyquist cells, restricting u to the symmetric band."""
    return SpectralField(u.grid, u.coeffs * multiplier_table(u.grid).keep)


# ---------------------------------------------------------------------------
# inner products and norms


def inner_product(u: SpectralField, v: SpectralField) -> float:
    """L^2(torus) pairing via Parseval."""
    grid = require_same_grid(u, v)
    L2 = grid.box_length * grid.box_length
    return L2 * float(np.real(np.vdot(v.coeffs, u.coeffs)))


def weighted_l2(u: SpectralField, weight: np.ndarray) -> float:
    """sqrt(L^2 sum weight |c|^2) for a nonnegative symbol table."""
    L2 = u.grid.box_length ** 2
    val = L2 * float(np.sum(weight * (u.coeffs.real ** 2 + u.coeffs.imag ** 2)))
    return float(np.sqrt(max(val, 0.0)))


def l2_norm(u: SpectralField) -> float:
    L2 = u.grid.box_length ** 2
    return float(np.sqrt(L2 * np.sum(u.coeffs.real ** 2 + u.coeffs.imag ** 2)))


@lru_cache(maxsize=16)
def _sobolev_weight(grid: GridSpec, s: float) -> np.ndarray:
    w = (1.0 + multiplier_table(grid).q) ** s
    w.setflags(write=False)
    return w


def sobolev_norm(u: SpectralField, s: float) -> float:
    """H^s norm, (sum (1+|xi|^2)^s |c|^2 L^2)^(1/2)."""
    return weighted_l2(u, _sobolev_weight(u.grid, float(s)))


# ---------------------------------------------------------------------------
# dealiased products

# A field's band block is coeffs[..., :, :n/2]; its Nyquist row is zero and
# its negative columns follow from Hermitian symmetry (complete_band).  Any
# leading axes are a stack of fields, transformed slice by slice.  Products
# embed the blocks in an m x m grid, multiply pointwise and truncate back:
# under the 3/2 rule m = 3n/2, so aliases of any product mode |s| <= n - 2
# miss the band and the result is the exact convolution; under 2/3
# truncation m = n, inputs and output cut to |k_i| <= n//3.  Transforms run
# one axis at a time, the axis -2 passes only over the n/2 band columns, and
# norm="forward" never rescales.


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


def band_samples(block: np.ndarray, m: int) -> np.ndarray:
    """Samples on the m x m grid (m >= n) of the fields with band blocks ``block``."""
    h = block.shape[-1]
    # the c2r input has all m/2 + 1 columns, so irfft2 pads nothing; the
    # axis -2 pass runs in place on the n/2 band columns only (ifftn, since
    # numpy's ifft2 ignores out=)
    pad = np.zeros(block.shape[:-2] + (m, m // 2 + 1), dtype=complex)
    cols = pad[..., :h]
    cols[..., :h, :] = block[..., :h, :]
    cols[..., m - h + 1:, :] = block[..., h + 1:, :]
    sfft.ifftn(cols, axes=(-2,), norm="forward", out=cols)
    return sfft.irfft2(pad, s=(m,), axes=(-1,), norm="forward")


def band_product(grid: GridSpec, pairs) -> np.ndarray:
    """Band block of sum_i dealias(u_i * v_i) under the grid's dealias
    policy, from the band blocks (u_i, v_i) of each pair."""
    n, h = grid.n, grid.n // 2
    mask = None if grid.dealias == THREE_HALVES else multiplier_table(grid).two_thirds
    m = n if mask is not None else 3 * n // 2
    acc = None
    for u, v in pairs:
        if mask is not None:
            u, v = u * mask, v * mask
        term = band_samples(u, m)
        term *= band_samples(v, m)
        acc = term if acc is None else np.add(acc, term, out=acc)
    band = sfft.rfft2(acc, axes=(-1,), norm="forward")[..., :h]
    sfft.fft2(band, axes=(-2,), norm="forward", out=band)
    out = np.zeros(band.shape[:-2] + (n, h), dtype=complex)
    out[..., :h, :] = band[..., :h, :]
    out[..., h + 1:, :] = band[..., m - h + 1:, :]
    if mask is not None:
        out *= mask
    return out


def band_product_sum(grid: GridSpec, pairs) -> SpectralField:
    """sum_i dealias(u_i * v_i) under the grid's dealias policy, from the
    band blocks (u_i, v_i) of each pair."""
    return SpectralField(grid, complete_band(band_product(grid, pairs)))


def product_sum(pairs: list[tuple[SpectralField, SpectralField]]) -> SpectralField:
    """sum_i dealias(u_i * v_i) under the grid's dealias policy."""
    if not pairs:
        raise ValueError("product_sum needs at least one pair")
    grid = pairs[0][0].grid
    for u, v in pairs:
        require_same_grid(u, v)
        if u.grid != grid:
            raise ValueError("product_sum: mixed grids")
    h = grid.n // 2
    return band_product_sum(grid, ((u.coeffs[:, :h], v.coeffs[:, :h]) for u, v in pairs))


def dealiased_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Pointwise product, dealiased per the grid policy.

    With ``three_halves_padding`` the result on the symmetric band is the
    exact convolution of the (Nyquist-sanitized) inputs.  With
    ``two_thirds_truncation`` both inputs and the result are truncated to
    |k_i| <= n//3; on grids with 3 | n the edge shell aliases, which is the
    documented negative control for the cancellation tests.
    """
    require_same_grid(u, v)
    return product_sum([(u, v)])


# ---------------------------------------------------------------------------
# deterministic field constructors


def cosine_field(grid: GridSpec, kx: int, ky: int, amplitude: float = 1.0) -> SpectralField:
    """amplitude * cos(xi_k . x) built directly in coefficient space."""
    half = grid.n // 2
    if not (-half < kx < half and -half < ky < half) or (kx, ky) == (0, 0):
        raise ValueError(f"cosine mode ({kx},{ky}) outside the symmetric band")
    c = np.zeros(grid.shape, dtype=complex)
    c[kx % grid.n, ky % grid.n] = 0.5 * amplitude
    c[(-kx) % grid.n, (-ky) % grid.n] = 0.5 * amplitude
    return SpectralField(grid, c)


def _hermitian_random(grid: GridSpec, seed: int, radial_amp) -> SpectralField:
    """Random field with |c(k)| = radial_amp(|k|) and i.i.d. phases.

    Phases are drawn once over the half-plane {k1 > 0} u {k1 = 0, k2 > 0} in
    a fixed order and mirrored, so the result is deterministic in the seed
    and exactly Hermitian.  Nyquist cells stay empty.
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
    mt = multiplier_table(grid)
    k1, k2 = mt.k1, mt.k2
    half_plane = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    kk = np.hypot(k1, k2)
    amp = np.asarray(radial_amp(kk), dtype=float)
    c = np.zeros(grid.shape, dtype=complex)
    c[half_plane] = amp[half_plane] * np.exp(1j * phases[half_plane])
    mirrored = np.conj(c[np.ix_(mt.flip, mt.flip)])
    c = np.where(half_plane, c, mirrored)
    c[0, 0] = 0.0
    c *= mt.keep
    return SpectralField(grid, c)


def random_band_field(
    grid: GridSpec,
    seed: int,
    amplitude: float = 1.0,
    s: float = 3.0,
    band_lo: int = 1,
    band_hi: int | None = None,
) -> SpectralField:
    """Seeded random field, power-law radial profile, band-limited.

    Coefficient magnitudes follow (1 + |xi|^2)^(-(s+1)) inside the index
    shell band_lo <= |k| <= band_hi and the field is scaled to the requested
    H^s amplitude.
    """
    if band_hi is None:
        band_hi = grid.n // 3
    lam = grid.frequency_unit

    def radial_amp(kk):
        q = (lam * kk) ** 2
        inside = (kk >= band_lo) & (kk <= band_hi)
        return np.where(inside, (1.0 + q) ** (-(s + 1.0)), 0.0)

    field = _hermitian_random(grid, seed, radial_amp)
    norm = sobolev_norm(field, s)
    if norm == 0.0:
        raise ValueError(f"empty band [{band_lo}, {band_hi}] on n={grid.n}")
    field.coeffs *= amplitude / norm
    return field


def random_exponential_field(
    grid: GridSpec,
    seed: int,
    amplitude: float = 1.0,
    decay: float = 0.5,
    s: float = 3.0,
) -> SpectralField:
    """Seeded random field with exponentially decaying spectrum (analytic)."""

    def radial_amp(kk):
        return np.where(kk > 0, np.exp(-decay * kk), 0.0)

    field = _hermitian_random(grid, seed, radial_amp)
    norm = sobolev_norm(field, s)
    field.coeffs *= amplitude / norm
    return field
