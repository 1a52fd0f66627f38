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
    dealiased_product,
    divergence,
    gradient,
    inner_product,
    l2_norm,
    one_minus_laplacian,
    perp_gradient,
)


def velocity(rho: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Divergence-free velocity u = perp_gradient((Id - Delta) rho)."""
    return perp_gradient(one_minus_laplacian(rho))


def transport(rho, zeta, grid: GridSpec | None = None):
    """Default (dot product) route: u . grad(bilaplacian zeta).

    rho and zeta are SpectralFields, or band blocks (..., n, n/2) of fields
    on ``grid`` with any leading (stack) axes; the result has the same form.
    The symbols of velocity, bilaplacian and gradient are applied in the
    same order either way; the band kernel multiplies in the gradient
    symbols as it fills its held buffers.  The mean
    coefficient is set to exactly zero: the operator is a divergence, and
    the dot-product route only misses that by round-off.
    """
    solo = isinstance(rho, SpectralField)
    if solo:
        grid = require_same_grid(rho, zeta)
        rho, zeta = rho.band, zeta.band
    mt = multiplier_table(grid)
    a = rho * mt.one_minus_lap
    b = zeta * mt.bilap
    # -a, as a sign flip of each float: numpy's complex negative has no SIMD loop
    minus_a = np.negative(a.view(float)).view(complex)
    lam = band_product(grid, (((minus_a, mt.ixi2), (b, mt.ixi1)), ((a, mt.ixi1), (b, mt.ixi2))))
    lam[..., 0, 0] = 0.0
    return SpectralField(grid, lam) if solo else lam


def transport_divergence_route(rho: SpectralField, zeta: SpectralField) -> SpectralField:
    """Cross-check route: div(u * bilaplacian zeta)."""
    require_same_grid(rho, zeta)
    u1, u2 = velocity(rho)
    b = bilaplacian(zeta)
    return divergence(dealiased_product(u1, b), dealiased_product(u2, b))


def pairing_first(rho: SpectralField, zeta: SpectralField) -> float:
    """< transport(rho, zeta), (Id - Delta) rho >; zero under exact dealiasing."""
    lam = transport(rho, zeta)
    return inner_product(lam, one_minus_laplacian(rho))


def pairing_second(rho: SpectralField, zeta: SpectralField) -> float:
    """< transport(rho, zeta), bilaplacian(zeta) >; zero under exact dealiasing."""
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
    lhs = inner_product(transport(rho, rho), phi)

    u1, u2 = velocity(rho)
    g1, g2 = gradient(phi)
    m = 2 * rho.grid.n
    u1p, u2p, g1p, g2p = (band_samples(f.band, m) for f in (u1, u2, g1, g2))
    ap = band_samples((rho.band, multiplier_table(rho.grid).a), m)
    cell = (rho.grid.box_length / m) ** 2
    udotg = u1p * g1p + u2p * g2p
    rhs = -cell * float(np.sum(udotg * ap))

    scale = np.sqrt(cell * float(np.sum(udotg ** 2))) * np.sqrt(
        cell * float(np.sum(ap ** 2))
    )
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale
