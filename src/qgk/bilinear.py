"""The transport operator and its structural cancellations.

The nonlinearity of the model is

    transport(rho, zeta) = div( u(rho) * bilaplacian(zeta) ),
    u(rho) = perp_gradient( (Id - Delta) rho ),

with u divergence-free mode by mode.  Because div u = 0 the operator can
also be evaluated as the dot product u . grad(bilaplacian zeta), which needs
one fewer transform and is the production route; the divergence form is kept
as a cross-check.  Under exact dealiasing the discrete operator satisfies
the same integration-by-parts cancellations as the continuous one:

    < transport(rho, zeta), (Id - Delta) rho >  = 0
    < transport(rho, zeta), bilaplacian(zeta) > = 0

which are the identities behind both energy balance laws.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, SpectralField, multiplier_table, require_same_grid
from .spectral import (
    band_product,
    band_samples,
    bilaplacian,
    complete_band,
    divergence,
    gradient,
    inner_product,
    l2_norm,
    one_minus_laplacian,
    perp_gradient,
    product_sum,
    sanitize_band,
)


def velocity(rho: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Divergence-free velocity u = perp_gradient((Id - Delta) rho)."""
    return perp_gradient(one_minus_laplacian(rho))


def transport(rho, zeta, grid: GridSpec | None = None):
    """Default (dot product) route: u . grad(bilaplacian zeta).

    rho and zeta are SpectralFields, or band blocks coeffs[..., :, :n/2] of
    fields on ``grid`` with any leading (stack) axes; the result has the
    same form.  Only the band blocks are read, and the symbols of velocity,
    bilaplacian and gradient are applied in the same order.  The mean
    coefficient is set to exactly zero: the operator is a divergence, and
    the dot-product route only misses that by round-off.
    """
    solo = isinstance(rho, SpectralField)
    if solo:
        grid = require_same_grid(rho, zeta)
        rho, zeta = rho.coeffs[:, :grid.n // 2], zeta.coeffs[:, :grid.n // 2]
    h = grid.n // 2
    mt = multiplier_table(grid)
    ixi1, ixi2 = mt.ixi1[:, :h], mt.ixi2[:, :h]
    a = rho * mt.one_minus_lap[:, :h]
    b = zeta * mt.bilap[:, :h]
    lam = band_product(grid, ((-a * ixi2, b * ixi1), (a * ixi1, b * ixi2)))
    lam[..., 0, 0] = 0.0
    return SpectralField(grid, complete_band(lam)) if solo else lam


def transport_divergence_route(rho: SpectralField, zeta: SpectralField) -> SpectralField:
    """Cross-check route: div(u * bilaplacian zeta)."""
    require_same_grid(rho, zeta)
    u1, u2 = velocity(rho)
    b = bilaplacian(zeta)
    p1 = product_sum([(u1, b)])
    p2 = product_sum([(u2, b)])
    return divergence(p1, p2)


def pairing_first(rho: SpectralField, zeta: SpectralField) -> float:
    """< transport(rho, zeta), (Id - Delta) rho >; zero under exact dealiasing."""
    rho = sanitize_band(rho)
    zeta = sanitize_band(zeta)
    lam = transport(rho, zeta)
    return inner_product(lam, one_minus_laplacian(rho))


def pairing_second(rho: SpectralField, zeta: SpectralField) -> float:
    """< transport(rho, zeta), bilaplacian(zeta) >; zero under exact dealiasing."""
    rho = sanitize_band(rho)
    zeta = sanitize_band(zeta)
    lam = transport(rho, zeta)
    return inner_product(lam, bilaplacian(zeta))


def pairing_scale(rho: SpectralField, zeta: SpectralField) -> float:
    """Normalization |transport| * |(Id - Delta) rho| for relative tests."""
    lam = transport(rho, zeta)
    return l2_norm(lam) * l2_norm(one_minus_laplacian(rho))


def antisymmetry_residual(rho: SpectralField, phi: SpectralField) -> float:
    """Relative defect of the transport/test-field exchange identity.

    Compares < transport(rho, rho), phi > with the physical-space integral
    -int u(rho) . grad(phi) (Id - Delta + Delta^2) rho dx, evaluated on a 2x
    refined grid so the triple-product quadrature is exact.
    """
    require_same_grid(rho, phi)
    rho = sanitize_band(rho)
    phi = sanitize_band(phi)
    lhs = inner_product(transport(rho, rho), phi)

    u1, u2 = velocity(rho)
    g1, g2 = gradient(phi)
    arho = SpectralField(rho.grid, rho.coeffs * multiplier_table(rho.grid).a)
    h, m = rho.grid.n // 2, 2 * rho.grid.n
    u1p, u2p, g1p, g2p, ap = (band_samples(f.coeffs[:, :h], m) for f in (u1, u2, g1, g2, arho))
    cell = (rho.grid.box_length / m) ** 2
    udotg = u1p * g1p + u2p * g2p
    rhs = -cell * float(np.sum(udotg * ap))

    scale = np.sqrt(cell * float(np.sum(udotg ** 2))) * np.sqrt(
        cell * float(np.sum(ap ** 2))
    )
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale
