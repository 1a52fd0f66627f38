"""Tests of the transport operator: routes, cancellations, bilinearity."""

import numpy as np
import pytest

from qgk.grid import THREE_HALVES, TWO_THIRDS, GridSpec, SpectralField
from qgk import bilinear as bl
from qgk import littlewood_paley as lp
from qgk import spectral as sp


def rand(g, seed, hi=None):
    return sp.random_band_field(g, seed, 1.0, 3.0, 1, hi or g.n // 4)


class TestVelocity:
    def test_constant_gives_zero(self):
        g = GridSpec(16, 2 * np.pi)
        rho = SpectralField(g, np.zeros(g.band_shape, complex))
        rho.band[0, 0] = 3.0
        u1, u2 = bl.velocity(rho)
        assert np.all(u1.coeffs == 0.0) and np.all(u2.coeffs == 0.0)

    @pytest.mark.parametrize("k,expected_kappa", [((1, 0), 1.0), ((2, 1), np.sqrt(5.0))])
    def test_single_mode_amplitude_scaling(self, k, expected_kappa):
        # |u| = kappa (1 + kappa^2) |rho| for a single mode of radius kappa
        g = GridSpec(32, 2 * np.pi)
        rho = sp.cosine_field(g, *k, amplitude=1.0)
        u1, u2 = bl.velocity(rho)
        umag = np.sqrt(sp.l2_norm(u1) ** 2 + sp.l2_norm(u2) ** 2)
        assert umag == pytest.approx(
            expected_kappa * (1 + expected_kappa**2) * sp.l2_norm(rho), rel=1e-13)

    def test_divergence_free(self):
        g = GridSpec(64, 2 * np.pi)
        u1, u2 = bl.velocity(rand(g, 1))
        div = sp.divergence(u1, u2)
        assert sp.l2_norm(div) <= 1e-13 * sp.l2_norm(u1)


class TestTransport:
    def test_constant_second_argument(self):
        g = GridSpec(16, 2 * np.pi)
        rho = rand(g, 2)
        const = SpectralField(g, np.zeros(g.band_shape, complex))
        const.band[0, 0] = 4.0
        lam = bl.transport(rho, const)
        assert np.max(np.abs(lam.coeffs)) < 1e-15

    def test_single_mode_self_transport_vanishes(self):
        g = GridSpec(32, 2 * np.pi)
        rho = sp.cosine_field(g, 2, 1, 1.3)
        lam = bl.transport(rho, rho)
        u1, _ = bl.velocity(rho)
        scale = sp.l2_norm(u1) * sp.l2_norm(sp.gradient(sp.bilaplacian(rho))[0])
        assert sp.l2_norm(lam) <= 1e-13 * max(scale, 1.0)

    def test_routes_agree(self):
        g = GridSpec(64, 2 * np.pi)
        rho, zeta = rand(g, 3), rand(g, 4)
        a = bl.transport_divergence_route(rho, zeta)
        b = bl.transport(rho, zeta)
        assert sp.l2_norm(SpectralField(g, a.band - b.band)) <= 1e-12 * sp.l2_norm(b)

    def test_mean_mode_exactly_zero(self):
        g = GridSpec(32, 2 * np.pi)
        lam = bl.transport(rand(g, 5), rand(g, 6))
        assert lam.coeffs[0, 0] == 0.0
        lam2 = bl.transport_divergence_route(rand(g, 5), rand(g, 6))
        assert lam2.coeffs[0, 0] == 0.0

    def test_bilinearity(self):
        g = GridSpec(32, 2 * np.pi)
        r1, r2, z = rand(g, 7), rand(g, 8), rand(g, 9)
        combo = SpectralField(g, 2.0 * r1.band - 0.5 * r2.band)
        left = bl.transport(combo, z)
        right = 2.0 * bl.transport(r1, z).band - 0.5 * bl.transport(r2, z).band
        scale = max(sp.l2_norm(left), 1e-300)
        assert sp.l2_norm(SpectralField(g, left.band - right)) <= 1e-12 * scale

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            bl.transport(rand(GridSpec(16, 1.0), 1), rand(GridSpec(32, 1.0), 1))


class TestCancellations:
    @pytest.mark.parametrize("n", [64, 128])
    def test_pairing_first_vanishes(self, n):
        g = GridSpec(n, 2 * np.pi)
        rho, zeta = rand(g, 10), rand(g, 11)
        scale = bl.pairing_scale(rho, zeta)
        assert abs(bl.pairing_first(rho, zeta)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [64, 128])
    def test_pairing_second_vanishes(self, n):
        g = GridSpec(n, 2 * np.pi)
        rho, zeta = rand(g, 12), rand(g, 13)
        scale = bl.pairing_scale(rho, zeta)
        assert abs(bl.pairing_second(rho, zeta)) <= 1e-12 * scale

    def test_zero_field_pairs_to_zero(self):
        g = GridSpec(16, 2 * np.pi)
        zero = SpectralField(g, np.zeros(g.band_shape, complex))
        assert bl.pairing_first(zero, rand(g, 14)) == 0.0

    def test_single_mode_second_pairing(self):
        g = GridSpec(32, 2 * np.pi)
        rho = rand(g, 15)
        zeta = sp.cosine_field(g, 1, 2, 1.0)
        # transport itself vanishes only for zeta = rho single mode; here the
        # pairing against bilaplacian(zeta) must still cancel
        scale = max(bl.pairing_scale(rho, zeta), 1e-300)
        assert abs(bl.pairing_second(rho, zeta)) <= 1e-12 * scale

    def test_combined_pairing_second_energy_shape(self):
        # < transport(r,r), (Id - Delta + Delta^2) r > = first + second pairing
        g = GridSpec(64, 2 * np.pi)
        rho = rand(g, 16)
        lam = bl.transport(rho, rho)
        q = sp.multiplier_table(g).q
        target = sp.inner_product(lam, SpectralField(g, rho.band * (1 + q + q * q)))
        scale = sp.l2_norm(lam) * sp.sobolev_norm(rho, 4.0)
        assert abs(target) <= 1e-12 * scale
        both = bl.pairing_first(rho, rho) + bl.pairing_second(rho, rho)
        assert abs(both) <= 1e-12 * scale

    def test_two_thirds_truncation_negative_control(self):
        # on a grid with 3 | n the classic 2/3 rule aliases the edge shell;
        # with a flat spectrum (energy at the edge) the pairing is visibly
        # nonzero, while 3/2 padding keeps it at round-off
        g_exact = GridSpec(96, 2 * np.pi, "three_halves_padding")
        g_alias = GridSpec(96, 2 * np.pi, "two_thirds_truncation")
        rho_e = sp.random_band_field(g_exact, 17, 1.0, -1.0, 1, 47)
        zeta_e = sp.random_band_field(g_exact, 18, 1.0, -1.0, 1, 47)
        rho_a = SpectralField(g_alias, rho_e.band.copy())
        zeta_a = SpectralField(g_alias, zeta_e.band.copy())
        exact = abs(bl.pairing_first(rho_e, zeta_e)) / bl.pairing_scale(rho_e, zeta_e)
        aliased = abs(bl.pairing_first(rho_a, zeta_a)) / bl.pairing_scale(rho_a, zeta_a)
        assert exact <= 1e-12
        assert aliased > 1e-6  # documented aliasing sensitivity

    def test_galerkin_compatibility(self):
        g = GridSpec(64, 2 * np.pi)
        n_cut = 30.0
        r = sp.project_jn(rand(g, 19), n_cut)
        lam = bl.transport(r, r)
        lhs = sp.inner_product(sp.project_jn(lam, n_cut), sp.one_minus_laplacian(r))
        rhs = sp.inner_product(lam, sp.one_minus_laplacian(sp.project_jn(r, n_cut)))
        scale = max(bl.pairing_scale(r, r), 1e-300)
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert abs(lhs) <= 1e-12 * scale


class TestZeroMeanFlux:
    """transport(r, r) = u . grad(Delta^2 r) is the divergence of the flux
    G = grad^perp((1 - Delta) r) Delta^2 r, whose box mean is zero: each
    component's mean is a sum over xi of terms odd in xi.  The mean is taken
    two ways, as the k = 0 coefficient of the band kernel's product and as
    the Parseval sum, each within 1e-12 of the sum of its terms' moduli,
    sum |xi| (1 + |xi|^2) |xi|^4 |c|^2 (mirror-weighted on the band block)."""

    @staticmethod
    def flux_means(rho, zeta):
        """(kernel means, Parseval means, scale) of the two components of
        grad^perp((1 - Delta) rho) Delta^2 zeta."""
        g = rho.grid
        mt = sp.multiplier_table(g)
        a, b = mt.one_minus_lap * rho.band, mt.bilap * zeta.band
        kernel = [sp.band_product(g, [((-a, mt.ixi2), b)])[0, 0],
                  sp.band_product(g, [((a, mt.ixi1), b)])[0, 0]]
        # the modes the kernel multiplies: the symmetric band, and under the
        # 2/3 rule only |k_i| <= n//3
        w = mt.mirror * mt.keep * (mt.two_thirds if g.dealias == TWO_THIRDS else 1.0)
        parseval = [np.sum(w * (-mt.ixi2 * a * np.conj(b)).real),
                    np.sum(w * (mt.ixi1 * a * np.conj(b)).real)]
        scale = np.sum(w * np.sqrt(mt.q) * np.abs(a) * np.abs(b))
        return np.array(kernel), np.array(parseval), scale

    @pytest.mark.parametrize("n", [16, 18, 48])
    @pytest.mark.parametrize("dealias", [THREE_HALVES, TWO_THIRDS])
    @pytest.mark.parametrize("cut", [None, 0.3])
    def test_transport_flux_has_zero_mean(self, n, dealias, cut):
        g = GridSpec(n, 2 * np.pi, dealias)

        def field(seed):
            # energy up to the band's edge, where the 2/3 rule truncates
            u = sp.random_band_field(g, seed, 1.0, 3.0, 1, n // 2 - 1)
            return sp.project_jn(u, cut * n * n) if cut else u

        for seed in (n, n + 1):
            r = field(seed)
            kernel, parseval, scale = self.flux_means(r, r)
            assert scale > 0.0
            assert np.all(np.abs(kernel) <= 1e-12 * scale)
            assert np.all(np.abs(parseval) <= 1e-12 * scale)
            # rho != zeta: the terms no longer pair off, so the check can fail
            kernel, parseval, scale = self.flux_means(r, field(seed + 100))
            assert np.all(np.abs(kernel - parseval) <= 1e-12 * scale)
            assert np.max(np.abs(kernel)) > 1e-3 * scale


class TestAntisymmetryResidual:
    def test_random_fields(self):
        g = GridSpec(64, 2 * np.pi)
        assert bl.antisymmetry_residual(rand(g, 20), rand(g, 21)) <= 1e-12

    def test_constant_test_field(self):
        g = GridSpec(32, 2 * np.pi)
        phi = SpectralField(g, np.zeros(g.band_shape, complex))
        phi.band[0, 0] = 2.0
        assert bl.antisymmetry_residual(rand(g, 22), phi) == 0.0

    def test_reduces_to_first_pairing(self):
        # phi = (Id - Delta) rho makes both sides vanish
        g = GridSpec(64, 2 * np.pi)
        rho = rand(g, 23)
        phi = sp.one_minus_laplacian(rho)
        assert bl.antisymmetry_residual(rho, phi) <= 1e-12


class TestOperandNyquistRow:
    """The band kernel ignores each operand's Nyquist row, so the callers
    that build products from their inputs need not clear it: with random
    content in that row, every result is bitwise that of the sanitized
    inputs."""

    @pytest.mark.parametrize("n,dealias", [(30, THREE_HALVES), (32, THREE_HALVES),
                                           (64, THREE_HALVES), (48, TWO_THIRDS)])
    def test_results_equal_those_of_sanitized_inputs(self, n, dealias):
        g = GridSpec(n, 2 * np.pi, dealias)
        partition = lp.dyadic_partition(g)
        rng = np.random.default_rng(n)
        for seed in range(3):
            clean = [sp.random_band_field(g, 2 * seed + k, 1.0, 3.0, 1, n // 2 - 1)
                     for k in range(2)]
            noisy = [SpectralField(g, f.band.copy()) for f in clean]
            for f in noisy:
                f.band[n // 2] = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
            sanitized = [sp.sanitize_band(f) for f in noisy]

            def results(u, v):
                return [np.float64(bl.pairing_first(u, v)).tobytes(),
                        np.float64(bl.pairing_second(u, v)).tobytes(),
                        np.float64(bl.antisymmetry_residual(u, v)).tobytes(),
                        lp.paraproduct(partition, u, v).band.tobytes(),
                        lp.remainder(partition, u, v).band.tobytes()]

            assert results(*noisy) == results(*sanitized)
