"""Energy functionals, balance residuals and comparison diagnostics."""

import numpy as np
import pytest

from qgk.grid import GridSpec, SpectralField
from qgk import diagnostics as diag
from qgk import spectral as sp
from qgk.evolution import ForcingSpec, RunConfig, linear_evolve, simulate
from qgk.evolution import _attach_residuals, _record


G = GridSpec(64, 2 * np.pi)


def rand(g, seed, amplitude=1.0):
    return sp.random_band_field(g, seed, amplitude, 3.0, 1, g.n // 6)


class TestEnergies:
    def test_cosine_first_energy(self):
        # E[cos x] on L = 2 pi: (1 + 2 + 2 + 1)/2 * 2 pi^2 = 6 pi^2
        u = sp.cosine_field(G, 1, 0, 1.0)
        assert diag.energy_first(u) == pytest.approx(6.0 * np.pi**2, rel=1e-13)

    def test_cosine_second_energy(self):
        # weights (1 + 2 + 3 + 2 + 1)/2 = 4.5 at q = 1
        u = sp.cosine_field(G, 1, 0, 1.0)
        assert diag.energy_second(u) == pytest.approx(9.0 * np.pi**2, rel=1e-13)

    def test_zero_field(self):
        zero = SpectralField(G, np.zeros(G.band_shape, complex))
        assert diag.energy_first(zero) == diag.energy_second(zero) == 0.0
        assert diag.x_of(zero) == diag.y_of(zero) == 0.0
        assert diag.energy_sigma(zero, 1.0) == diag.energy_sigma(zero, 2.0) == 0.0
        assert diag.energy_tilde_s(zero, 0.5) == 0.0

    def test_homogeneity(self):
        u = rand(G, 1)
        double = SpectralField(G, 2.0 * u.band)
        assert diag.energy_first(double) == pytest.approx(4.0 * diag.energy_first(u), rel=1e-14)

    def test_second_minus_first_is_half_y(self):
        # printed definitions differ by (|Delta phi|^2 + |grad Delta phi|^2
        # + |Delta^2 phi|^2) / 2, which is Y/2
        u = rand(G, 2)
        gap = diag.energy_second(u) - diag.energy_first(u)
        assert gap == pytest.approx(0.5 * diag.y_of(u), rel=1e-12)

    def test_x_dominated_by_twice_first_energy(self):
        u = rand(G, 3)
        assert diag.x_of(u) <= 2.0 * diag.energy_first(u) * (1 + 1e-14)

    def test_nonnegative_forms(self):
        u = rand(G, 4)
        for val in (diag.energy_first(u), diag.energy_second(u),
                    diag.energy_sigma(u, 1.0), diag.energy_tilde_s(u, 0.5),
                    diag.x_of(u), diag.y_of(u)):
            assert val >= 0.0


def full_grid_q(g: GridSpec) -> np.ndarray:
    k = np.fft.fftfreq(g.n, d=1.0 / g.n) * g.frequency_unit
    return k[:, None] ** 2 + k[None, :] ** 2


def full_grid_forms(u: np.ndarray, g: GridSpec, sigmas=(), tildes=()) -> np.ndarray:
    """Reference contraction over the whole (n, n) coefficient array u, with
    the weights written out from q = |xi|^2: the rows of quadratic_forms,
    then E_sigma for each sigma and E_tilde_s for each s of tildes."""
    q = full_grid_q(g)
    x, y = 1 + q + q**2 + q**3, q**2 + q**3 + q**4
    rows = [x, y, (1 + 2 * q + 2 * q**2 + q**3) / 2,
            (1 + 2 * q + 3 * q**2 + 2 * q**3 + q**4) / 2, (1 + q) ** 3, (1 + q) ** 4,
            q**2 + 2 * q**3 + q**4, q**2 + 2 * q**3 + 2 * q**4 + q**5]
    rows += [(1 + q) ** s * y for s in sigmas] + [(1 + q) ** s * x for s in tildes]
    absq = np.abs(u) ** 2
    return g.box_length ** 2 * np.array([np.sum(w * absq) for w in rows])


def assert_work_matches_full_grid(work, f: np.ndarray, u: np.ndarray, g: GridSpec):
    """The forcing pairings against the sums over the whole arrays, to 1e-15
    of the sums of the magnitudes of their terms (they change sign)."""
    q = full_grid_q(g)
    L2 = g.box_length ** 2
    for got, w in zip(work, (1 + q, 1 + q + q**2)):
        ref = L2 * np.real(np.sum(f * np.conj(u) * w))
        assert abs(got - ref) <= 1e-15 * L2 * np.sum(np.abs(f * u) * w)


CONTRACTION_CASES = [(n, dealias, cut) for n in (8, 12, 24, 48)
                     for dealias in ("three_halves_padding", "two_thirds_truncation")
                     for cut in (None, (n // 4) ** 2 + 0.5)]


class TestBandContraction:
    """The band-block contraction with its mirror weights equals the sum over
    the whole coefficient array of a real field, to 1e-15 relative."""

    SIGMAS = (1.0, 2.5)

    @pytest.mark.parametrize("n,dealias,cut", CONTRACTION_CASES)
    def test_public_forms_match_full_grid(self, n, dealias, cut):
        g = GridSpec(n, 2 * np.pi, dealias)
        u = sp.random_exponential_field(g, n + 1, 1.0, decay=0.1)
        u.band[0, 0] = 0.7         # the k2 = 0 column carries the mean too
        if cut is not None:
            u = sp.project_jn(u, cut)
        ref = full_grid_forms(u.coeffs, g, self.SIGMAS, tildes=(0.5, 2.0))
        weights = [diag.sigma_weight(g, s) for s in self.SIGMAS]
        np.testing.assert_allclose(diag.quadratic_forms(u.band, g, weights), ref[:10],
                                   rtol=1e-15, atol=0.0)
        public = [diag.x_of(u), diag.y_of(u), diag.energy_first(u), diag.energy_second(u),
                  *(diag.energy_sigma(u, s) for s in self.SIGMAS),
                  diag.energy_tilde_s(u, 0.5), diag.energy_tilde_s(u, 2.0)]
        np.testing.assert_allclose(public, ref[[0, 1, 2, 3, 8, 9, 10, 11]], rtol=1e-15, atol=0.0)
        f = sp.random_exponential_field(g, n + 2, 1.0, decay=0.1)
        assert_work_matches_full_grid(diag.forcing_work(f.band, u.band, g), f.coeffs, u.coeffs, g)

    @pytest.mark.parametrize("n,dealias,cut", CONTRACTION_CASES)
    def test_run_records_match_full_grid(self, n, dealias, cut):
        g = GridSpec(n, 2 * np.pi, dealias)
        forcing = ForcingSpec(kind="separable_decaying", amplitude=0.5, eta=0.75,
                              profile=sp.random_exponential_field(g, n + 3, 1.0, decay=0.3))
        cfg = RunConfig(grid=g, mu=0.5, t_end=3e-3, dt=1e-3, galerkin_cut=cut,
                        initial_condition=sp.random_exponential_field(g, n + 4, 1.0, decay=0.3),
                        forcing=forcing, diagnostics_every=1, snapshot_every=1,
                        sigma_list=self.SIGMAS)
        out = simulate(cfg)
        assert len(out.records) == len(out.snapshots) == 4
        for rec, (t, state) in zip(out.records, out.snapshots):
            assert rec.t == t
            ref = full_grid_forms(state.coeffs, g, self.SIGMAS)
            got = [rec.x, rec.y, rec.e_first, rec.e_second, rec.diss_first, rec.diss_second,
                   *rec.e_sigma]
            np.testing.assert_allclose(got, np.delete(ref, [4, 5]), rtol=1e-15, atol=0.0)
            np.testing.assert_allclose([rec.h3, rec.h4], np.sqrt(ref[[4, 5]]), rtol=1e-15, atol=0.0)
            f = forcing.amplitude * (1 + t) ** (-1 - forcing.eta) * forcing.profile.coeffs
            assert_work_matches_full_grid((rec.work_first, rec.work_second), f, state.coeffs, g)

    def test_nyquist_cells_carry_no_energy(self):
        g = GridSpec(16, 2 * np.pi)
        u = SpectralField(g, np.zeros(g.band_shape, complex))
        u.band[8, 3] = 1.0     # the Nyquist row; coeffs[8, 13] is its mirror
        assert u.coeffs[8, 13] == 1.0
        assert diag.energy_first(u) == diag.x_of(u) == 0.0
        assert not np.any(diag.quadratic_forms(u.band, g))


class TestCumulativeSimpson:
    def test_polynomial_exact(self):
        # cubic integrands are exact for both Simpson and the 3/8 patch
        x = np.linspace(0.0, 2.0, 21)
        y = 3.0 * x**3 - x + 2.0
        out = diag.cumulative_simpson(y, x[1] - x[0])
        exact = 0.75 * x**4 - 0.5 * x**2 + 2.0 * x
        assert np.allclose(out[2:], exact[2:], rtol=1e-13, atol=1e-13)

    def test_fourth_order_convergence(self):
        def integral(m):
            x = np.linspace(0.0, 1.0, m)
            return diag.cumulative_simpson(np.exp(x), x[1] - x[0])[-1]

        e1 = abs(integral(33) - (np.e - 1.0))
        e2 = abs(integral(65) - (np.e - 1.0))
        assert e1 / e2 > 12.0


class TestBalanceResiduals:
    def test_zero_run_is_exactly_zero(self):
        zero = SpectralField(G, np.zeros(G.band_shape, complex))
        cfg = RunConfig(grid=G, mu=1.0, t_end=0.2, dt=1e-2,
                        initial_condition=zero, diagnostics_every=4)
        out = simulate(cfg)
        assert all(rec.res_first == 0.0 for rec in out.records)
        assert all(rec.res_second == 0.0 for rec in out.records)

    def test_linear_flow_unforced_residual_tiny(self):
        # exact propagator; the Simpson error is negligible once the fastest
        # dissipation rate 2 mu h is resolved by the record cadence
        mu = 0.02
        w0 = sp.random_band_field(G, 5, 1.0, 3.0, 1, 4)
        times = [0.005 * i for i in range(101)]
        states = linear_evolve(w0, ForcingSpec(kind="zero"), mu, times)
        cfg = RunConfig(grid=G, mu=mu, t_end=0.5, dt=0.005,
                        initial_condition=w0, disable_transport=True,
                        diagnostics_every=1)
        records = [_record(f.band, t, cfg) for t, f in states]
        _attach_residuals(records, mu)
        assert records[-1].res_first <= 1e-10
        assert records[-1].res_second <= 1e-10

    def test_nonlinear_residual_fourth_order(self):
        # cadence is tied to dt (fixed diagnostics_every), so stepper and
        # Simpson errors both shrink at fourth order under dt-halving
        r0 = sp.random_band_field(G, 6, 3.0, 3.0, 1, 5)
        forcing = ForcingSpec(kind="separable_decaying",
                              profile=sp.random_band_field(G, 7, 1.0, 3.0, 1, 5),
                              amplitude=0.5, eta=0.75)

        def residuals(dt):
            cfg = RunConfig(grid=G, mu=0.5, t_end=0.2, dt=dt,
                            initial_condition=r0, forcing=forcing,
                            diagnostics_every=5)
            out = simulate(cfg)
            return out.records[-1].res_first, out.records[-1].res_second

        a1, b1 = residuals(2e-3)
        a2, b2 = residuals(1e-3)
        assert a1 / a2 >= 12.0
        assert b1 / b2 >= 12.0

    def test_incomplete_series_rejected(self):
        with pytest.raises(ValueError, match="three"):
            diag.balance_residuals([0.0, 0.1], [1, 1], [0, 0], [0, 0], 1.0)

    def test_needs_uniform_cadence(self):
        with pytest.raises(ValueError):
            diag.balance_residuals([0.0, 0.1, 0.3], [1, 1, 1], [0, 0, 0], [0, 0, 0], 1.0)


class TestCompareH3:
    def test_identical_physics_gives_zero(self):
        w0 = rand(G, 8)
        cfg = RunConfig(grid=G, mu=1.0, t_end=0.2, dt=1e-2,
                        initial_condition=w0, disable_transport=True,
                        diagnostics_every=5, snapshot_every=1)
        out = simulate(cfg)
        lin = linear_evolve(w0, cfg.forcing, 1.0, [t for t, _ in out.snapshots])
        series = diag.compare_h3(out.snapshots, lin, eta=0.8)
        scale = sp.sobolev_norm(w0, 3.0)
        assert np.all(series.z_h3 <= 1e-10 * scale)

    def test_early_growth_at_most_quadratic(self):
        # zero datum, small forcing: r grows linearly from 0, the transport
        # source is quadratic in r, so z vanishes at least quadratically
        zero = SpectralField(G, np.zeros(G.band_shape, complex))
        forcing = ForcingSpec(kind="separable_decaying",
                              profile=rand(G, 9), amplitude=0.5, eta=0.75)

        def z_at(t):
            cfg = RunConfig(grid=G, mu=1.0, t_end=t, dt=t / 8,
                            initial_condition=zero, forcing=forcing,
                            diagnostics_every=8)
            out = simulate(cfg)
            (_, lin), = linear_evolve(zero, forcing, 1.0, [t])
            z = SpectralField(G, out.final.band - lin.band)
            return sp.sobolev_norm(z, 3.0)

        ratio = z_at(0.02) / z_at(0.01)
        assert ratio >= 3.5

    def test_mismatched_runs_rejected(self):
        w0 = rand(G, 10)
        snaps = [(0.0, w0), (1.0, w0)]
        with pytest.raises(ValueError):
            diag.compare_h3(snaps, [(0.0, w0)], eta=0.8)
        with pytest.raises(ValueError):
            diag.compare_h3(snaps, [(0.0, w0), (2.0, w0)], eta=0.8)


    def test_pairs_any_iterables_and_matches_full_grid_norm(self):
        r, w = rand(G, 11), rand(G, 12)
        snaps_r, snaps_w = [(0.0, r), (1.0, w)], [(0.0, w), (1.0, w)]
        series = diag.compare_h3(iter(snaps_r), (pair for pair in snaps_w), eta=0.8)
        assert series.times.tolist() == [0.0, 1.0] and series.z_h3[1] == 0.0
        full = sp.sobolev_norm(SpectralField(G, r.band - w.band), 3.0)
        assert series.z_h3[0] == pytest.approx(full, rel=1e-14)
        with pytest.raises(ValueError):
            diag.compare_h3(iter(snaps_r), iter(snaps_w[:1]), eta=0.8)


class TestPointwiseBounds:
    def test_time_zero_ratio_at_most_one(self):
        r0 = rand(G, 11)
        assert diag.pointwise_bound_sup([(0.0, r0)], r0) == 0.0

    def test_unforced_run_bounded_constant(self):
        r0 = rand(G, 12, amplitude=1.5)
        cfg = RunConfig(grid=G, mu=1.0, t_end=0.5, dt=5e-3,
                        initial_condition=r0, diagnostics_every=20,
                        snapshot_every=1)
        out = simulate(cfg)
        sup = diag.pointwise_bound_sup(out.snapshots, cfg.initial_state)
        assert np.isfinite(sup)
        # dissipation only shrinks coefficients of single-signed... the
        # fitted constant stays order-one for a generic run
        assert sup < 50.0

    def test_fitted_constant_stable_under_refinement(self):
        # the same band-limited datum resolved on 64^2 and on 128^2 gives
        # the same pointwise-bound constant within 20 percent
        def lift(u, g_big):
            half = u.grid.n // 2
            c = np.zeros(g_big.shape, complex)
            c[:half, :half] = u.coeffs[:half, :half]
            c[:half, g_big.n - half + 1:] = u.coeffs[:half, half + 1:]
            c[g_big.n - half + 1:, :half] = u.coeffs[half + 1:, :half]
            c[g_big.n - half + 1:, g_big.n - half + 1:] = u.coeffs[half + 1:, half + 1:]
            return SpectralField(g_big, c[:, :g_big.n // 2])

        g64 = GridSpec(64, 2 * np.pi)
        g128 = GridSpec(128, 2 * np.pi)
        base = sp.random_band_field(g64, 13, 25.0, 3.0, 1, 8)
        sups = []
        for g, r0 in ((g64, base), (g128, lift(base, g128))):
            cfg = RunConfig(grid=g, mu=1.0, t_end=0.4, dt=5e-3,
                            initial_condition=r0, diagnostics_every=16,
                            snapshot_every=1)
            out = simulate(cfg)
            sups.append(diag.pointwise_bound_sup(out.snapshots, cfg.initial_state))
        assert abs(sups[0] - sups[1]) <= 0.2 * max(sups)

    def test_single_mode_difference_is_zero(self):
        r0 = sp.cosine_field(G, 2, 0, 1.0)
        cfg = RunConfig(grid=G, mu=1.0, t_end=0.2, dt=1e-2,
                        initial_condition=r0, diagnostics_every=10,
                        snapshot_every=1)
        out = simulate(cfg)
        lin = linear_evolve(r0, cfg.forcing, 1.0, [t for t, _ in out.snapshots])
        z_snaps = [(t, SpectralField(G, a.band - b.band))
                   for (t, a), (_, b) in zip(out.snapshots, lin)]
        sup = diag.pointwise_z_bound_sup(z_snaps, r0)
        assert sup <= 1e-10


class TestEnvelopeHelpers:
    def test_envelope_series(self):
        times = np.array([0.0, 1.0, 3.0])
        vals = np.array([1.0, 0.5, 0.25])
        env = diag.envelope_series(times, vals, 1.0)
        assert env == pytest.approx([1.0, 1.0, 1.0])

    def test_bounded_non_increasing(self):
        t = np.linspace(0, 10, 50)
        good = 1.0 / (1.0 + t)
        bad = 1.0 + 0.1 * t
        assert diag.bounded_non_increasing(t, good, t_min=1.0)
        assert not diag.bounded_non_increasing(t, bad, t_min=1.0)
