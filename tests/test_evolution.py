"""Time stepping, exact linear flow, Galerkin cuts, twin-run stability."""

import dataclasses
import importlib
import struct

import numpy as np
import pytest

from qgk.grid import (
    GridSpec,
    SpectralField,
    complete_band,
    hermitian_defect,
    multiplier_table,
)
from qgk import diagnostics as diag
from qgk import evolution
from qgk import grid as grid_module
from qgk import spectral as sp
from qgk.quadrature import duhamel_time_factor, linear_segment_factor
from qgk.snapshots import read_snapshot, write_snapshot
from qgk.evolution import (
    ForcingSpec,
    LinearFlow,
    RunConfig,
    SimulationAbort,
    compare_runs,
    linear_series,
    max_velocity,
    simulate,
    step,
    tendency,
    _grad_l4_fourth,
)
from scipy_oracles import duhamel_time_factor_quad, duhamel_time_factor_table


G64 = GridSpec(64, 2 * np.pi)
G32 = GridSpec(32, 2 * np.pi)


def band_ic(g, seed=1, amplitude=1.0, hi=None):
    return sp.random_band_field(g, seed, amplitude, 3.0, 1, hi or g.n // 6)


def forcing_for(g, seed=9, K=0.5, eta=0.75):
    profile = sp.random_band_field(g, seed, 1.0, 3.0, 1, g.n // 6)
    return ForcingSpec(kind="separable_decaying", profile=profile, amplitude=K, eta=eta)


class TestForcingSpec:
    def test_separable_sobolev_law_exact(self):
        g = G32
        f = forcing_for(g, K=0.7, eta=0.6)
        base = sp.sobolev_norm(f.profile, 2.0)
        for t in (0.0, 1.5, 10.0):
            field = SpectralField(g, f.coefficients(t))
            assert sp.sobolev_norm(field, 2.0) == pytest.approx(
                0.7 * (1 + t) ** (-1.6) * base, rel=1e-14)

    def test_tabulated_interpolation(self):
        g = G32
        a, b = band_ic(g, 2), band_ic(g, 3)
        f = ForcingSpec(kind="tabulated", table=[(0.0, a), (2.0, b)])
        mid = f.coefficients(1.0)
        assert np.allclose(mid, 0.5 * (a.band + b.band))
        assert f.coefficients(5.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ForcingSpec(kind="separable_decaying", profile=None)
        with pytest.raises(ValueError):
            ForcingSpec(kind="nope")
        with pytest.raises(ValueError):
            ForcingSpec(kind="tabulated", table=[(0.0, band_ic(G32))])


class TestTendency:
    def test_single_mode_is_pure_decay(self):
        g = G32
        r = sp.cosine_field(g, 2, 1, 1.0)
        cfg = RunConfig(grid=g, mu=1.7, t_end=1.0, dt=0.1, initial_condition=r)
        rhs = tendency(r, 0.0, cfg)
        mt = multiplier_table(g)
        expected = -1.7 * mt.h * r.band
        assert np.max(np.abs(rhs.band - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_zero_state_gives_inverse_operator_forcing(self):
        g = G32
        f = forcing_for(g)
        zero = SpectralField(g, np.zeros(g.band_shape, complex))
        cfg = RunConfig(grid=g, mu=1.0, t_end=1.0, dt=0.1,
                        initial_condition=zero, forcing=f)
        rhs = tendency(zero, 0.3, cfg)
        mt = multiplier_table(g)
        expected = mt.d * f.coefficients(0.3)
        assert np.max(np.abs(rhs.band - expected)) == 0.0

    def test_mean_mode_with_mean_free_forcing(self):
        g = G32
        r = band_ic(g, 4)
        cfg = RunConfig(grid=g, mu=1.0, t_end=1.0, dt=0.1,
                        initial_condition=r, forcing=forcing_for(g))
        rhs = tendency(r, 0.0, cfg)
        assert rhs.coeffs[0, 0] == 0.0


class TestStep:
    def test_single_mode_exact_for_any_dt(self):
        g = G64
        r0 = sp.cosine_field(g, 3, 0, 2.0)
        cfg = RunConfig(grid=g, mu=1.0, t_end=1.0, dt=0.5, initial_condition=r0)
        y = step(cfg.initial_state.band, 0.0, cfg)
        r = SpectralField(g, step(y, 0.5, cfg))
        q = (3 * g.frequency_unit) ** 2
        h = (1 + q) * q * q / (1 + q + q * q)
        expected = np.exp(-h) * r0.coeffs
        err = np.max(np.abs(r.coeffs - expected)) / np.max(np.abs(r0.coeffs))
        assert err <= 1e-12

    def test_zero_field_stays_zero(self):
        g = G32
        zero = SpectralField(g, np.zeros(g.band_shape, complex))
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.5, dt=0.1, initial_condition=zero)
        out = simulate(cfg)
        assert np.all(out.final.coeffs == 0.0)

    def test_inviscid_energy_error_fourth_order(self):
        # one step at dt and two at dt/2: local error contrast ~ 2^4
        g = G32
        r0 = band_ic(g, 5, amplitude=2.0)

        def drift(dt, steps):
            cfg = RunConfig(grid=g, mu=0.0, t_end=dt * steps, dt=dt,
                            initial_condition=r0, diagnostics_every=steps)
            out = simulate(cfg)
            e_final, e_0 = (diag.quadratic_forms(r.band, g, rows=[diag.E_SECOND])[0]
                            for r in (out.final, cfg.initial_state))
            return abs(e_final - e_0)

        e1 = drift(2e-2, 8)
        e2 = drift(1e-2, 16)
        assert e1 / e2 > 10.0  # order >= 4 allows ~16 with slack

    def test_rk2_converges_second_order(self):
        g = G32
        r0 = band_ic(g, 6, amplitude=1.0)
        ref_cfg = RunConfig(grid=g, mu=1.0, t_end=0.2, dt=1e-3, initial_condition=r0)
        ref = simulate(ref_cfg).final

        def err(dt):
            cfg = RunConfig(grid=g, mu=1.0, t_end=0.2, dt=dt,
                            initial_condition=r0, stepper="if_rk2")
            out = simulate(cfg).final
            return sp.l2_norm(SpectralField(g, out.band - ref.band))

        ratio = err(2e-2) / err(1e-2)
        assert 3.0 < ratio < 5.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_on_blowup(self):
        g = G32
        r0 = band_ic(g, 7, amplitude=200.0, hi=10)
        cfg = RunConfig(grid=g, mu=0.0, t_end=50.0, dt=0.5, initial_condition=r0)
        with pytest.raises(SimulationAbort) as info:
            simulate(cfg)
        assert np.all(np.isfinite(info.value.last_good.coeffs))


class TestSimulate:
    def test_unforced_energies_non_increasing(self):
        g = G64
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.5, dt=5e-3,
                        initial_condition=band_ic(g, 8, 1.5), diagnostics_every=10)
        out = simulate(cfg)
        e1 = out.records["E_first"].tolist()
        e2 = out.records["E_second"].tolist()
        assert all(b <= a * (1 + 1e-12) for a, b in zip(e1, e1[1:]))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(e2, e2[1:]))

    def test_records_are_one_table_named_by_record_columns(self):
        g = G32
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.1, dt=1e-2, initial_condition=band_ic(g, 8),
                        forcing=forcing_for(g), diagnostics_every=2, sigma_list=(0.5, 2.0))
        records = simulate(cfg).records
        assert records.dtype.names == tuple(evolution.record_columns(cfg.sigma_list))
        assert records.dtype.names[5:7] == ("E_sigma_0.5", "E_sigma_2")
        assert all(records.dtype[c] == np.float64 for c in records.dtype.names)
        assert records["t"].tolist() == [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]
        assert np.all(records["first_balance_residual"][1:] > 0.0)

    def test_colliding_sigma_labels_rejected(self):
        with pytest.raises(ValueError, match="diag.sigma .* names the column E_sigma_1 "):
            RunConfig(grid=G32, mu=1.0, t_end=0.1, dt=1e-2, initial_condition=band_ic(G32),
                      sigma_list=(1.0, 1.0000001))

    def test_overflowing_step_count_names_t_end_and_dt(self):
        cfg = RunConfig(grid=G32, mu=1.0, t_end=1e300, dt=1e-10, initial_condition=band_ic(G32))
        with pytest.raises(ValueError, match=r"t_end / dt = 1e\+300 / 1e-10 overflows"):
            cfg.n_steps

    def test_mean_conserved_exactly(self):
        g = G32
        r0 = band_ic(g, 9)
        r0.band[0, 0] = 0.25
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.2, dt=5e-3,
                        initial_condition=r0, forcing=forcing_for(g))
        out = simulate(cfg)
        assert out.final.coeffs[0, 0] == 0.25

    def test_hermitian_preserved(self):
        g = G32
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.2, dt=5e-3,
                        initial_condition=band_ic(g, 10), forcing=forcing_for(g))
        out = simulate(cfg)
        assert hermitian_defect(out.final.coeffs) <= 1e-13 * np.max(np.abs(out.final.coeffs))

    def test_deterministic(self):
        g = G32
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.1, dt=5e-3,
                        initial_condition=band_ic(g, 11), forcing=forcing_for(g))
        a = simulate(cfg).final
        b = simulate(cfg).final
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_inviscid_records_warning(self):
        g = G32
        cfg = RunConfig(grid=g, mu=0.0, t_end=0.05, dt=5e-3,
                        initial_condition=band_ic(g, 12))
        out = simulate(cfg)
        assert any("inviscid" in w for w in out.warnings)

    def test_cfl_warning(self):
        g = G32
        r0 = band_ic(g, 13, amplitude=50.0, hi=8)
        first = RunConfig(grid=g, mu=1.0, t_end=1.0, dt=1.0, initial_condition=r0)
        dt = 10.0 * 0.5 * g.dx / max_velocity(first.initial_state.band, g)
        steps = 2
        cfg = RunConfig(grid=g, mu=1.0, t_end=steps * dt, dt=dt,
                        initial_condition=r0, diagnostics_every=1)
        try:
            out = simulate(cfg)
            assert any("CFL" in w for w in out.warnings)
        except SimulationAbort:
            pass  # blowing up this fast also proves the bound was violated

    def test_snapshot_cadence(self):
        g = G32
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.2, dt=1e-2,
                        initial_condition=band_ic(g, 14),
                        diagnostics_every=5, snapshot_every=2)
        out = simulate(cfg)
        times = [t for t, _ in out.snapshots]
        assert times == pytest.approx([0.0, 0.1, 0.2])


class TestGalerkin:
    def test_projected_system_keeps_band(self):
        g = G64
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.1, dt=5e-3,
                        initial_condition=band_ic(g, 15), galerkin_cut=16.0,
                        forcing=forcing_for(g))
        out = simulate(cfg)
        outside = multiplier_table(g).q > 16.0
        assert np.all(out.final.band[outside] == 0.0)

    def test_refinement_differences_shrink(self):
        # analytic datum: doubling the cut shrinks the H3 difference
        # (decay fast enough that the cubic H3 weight cannot fight it)
        g = G64
        r0 = sp.random_exponential_field(g, 16, 1.0, 1.0)

        def run(cut):
            cfg = RunConfig(grid=g, mu=1.0, t_end=0.2, dt=5e-3,
                            initial_condition=r0, galerkin_cut=cut,
                            diagnostics_every=8, snapshot_every=1)
            return simulate(cfg).snapshots

        snaps = {cut: run(cut) for cut in (9.0, 36.0, 144.0)}
        sups = []
        for lo, hi in ((9.0, 36.0), (36.0, 144.0)):
            diffs = [sp.sobolev_norm(SpectralField(g, a.band - b.band), 3.0)
                     for (_, a), (_, b) in zip(snaps[lo], snaps[hi])]
            sups.append(max(diffs))
        assert sups[1] < 0.5 * sups[0]

    def test_degenerate_cut_mean_only_ode(self):
        g = G32
        r0 = band_ic(g, 17)
        r0.band[0, 0] = 1.0
        # mean-mode forcing via tabulated constant field
        fmean = SpectralField(g, np.zeros(g.band_shape, complex))
        fmean.band[0, 0] = 0.5
        forcing = ForcingSpec(kind="tabulated", table=[(0.0, fmean), (10.0, fmean)])
        cut = 0.5 * g.frequency_unit ** 2  # below the lowest shell
        cfg = RunConfig(grid=g, mu=1.0, t_end=1.0, dt=0.05,
                        initial_condition=r0, galerkin_cut=cut, forcing=forcing)
        out = simulate(cfg)
        off_mean = out.final.coeffs.copy()
        off_mean[0, 0] = 0.0
        assert np.all(off_mean == 0.0)
        # d/dt c0 = f0 exactly (a(0) = 1, h(0) = 0)
        assert out.final.coeffs[0, 0] == pytest.approx(1.0 + 0.5 * 1.0, rel=1e-12)


def full_grid_duhamel(w0, forcing, mu, t):
    """The separable Duhamel solution with the quadrature run on every
    distinct |xi|^2 of the grid, not only on the forcing's support."""
    g = w0.grid
    mt = multiplier_table(g)
    q, inverse = np.unique(mt.q.ravel(), return_inverse=True)
    lam = mu * (1.0 + q) * q * q / (1.0 + q + q * q)
    factors = duhamel_time_factor(lam, t, forcing.eta)[inverse].reshape(g.band_shape)
    f0 = forcing.amplitude * mt.d * forcing.profile.band
    return np.exp(-mu * mt.h * t) * w0.band + f0 * factors * mt.keep


def forcing_support(forcing, g):
    mt = multiplier_table(g)
    return forcing.amplitude * mt.d * forcing.profile.band * mt.keep != 0.0


def resummed_tabulated_duhamel(forcing, mu, t, g):
    """Duhamel integral of tabulated forcing summed segment by segment from
    the first knot, as a reference for the carried evaluation."""
    mt = multiplier_table(g)
    lam = mu * mt.h
    acc = np.zeros(g.band_shape, dtype=complex)
    for (t0, f0), (t1, f1) in zip(forcing.table, forcing.table[1:]):
        if t <= t0:
            break
        t_up = min(t, t1)
        width = t_up - t0
        a0 = mt.d * f0.band
        slope = (mt.d * f1.band - a0) / (t1 - t0)
        j0, j1 = linear_segment_factor(lam, width)
        acc = acc + np.exp(-lam * (t - t_up)) * ((a0 + slope * width) * j0 - slope * j1)
    return acc


def full_table_flow(w0, forcing, mu, cut, t):
    """LinearFlow.at written out with every exponential passed to np.exp: the
    bits its trimmed tables must keep."""
    mt = multiplier_table(w0.grid)
    y = np.exp(-mu * mt.h * t) * (w0.band * mt.keep)
    if forcing.kind == "separable_decaying":
        f0 = forcing.amplitude * mt.d * forcing.profile.band
        support = f0 != 0.0
        q, inverse = np.unique(mt.q[support], return_inverse=True)
        lam = mu * (1.0 + q) * q * q / (1.0 + q + q * q)
        y[support] += f0[support] * duhamel_time_factor_table(lam, t, forcing.eta)[inverse]
    elif forcing.kind == "tabulated":
        lam, knots = mu * mt.h, forcing.knot_times
        a = [mt.d * f.band for _, f in forcing.table]

        def carry(k, width, acc):
            acc = np.exp(-lam * width) * acc
            if k + 1 == len(knots):
                return acc
            slope = (a[k + 1] - a[k]) / (knots[k + 1] - knots[k])
            j0, j1 = linear_segment_factor(lam, width)
            return acc + ((a[k] + slope * width) * j0 - slope * j1)

        acc = np.zeros(w0.grid.band_shape, dtype=complex)
        last = int(np.searchsorted(knots, t, side="right")) - 1
        for k in range(last):
            acc = carry(k, knots[k + 1] - knots[k], acc)
        y = y + (carry(last, t - knots[last], acc) if t > knots[0] else acc)
    return y if cut is None else y * cut


class TestLinearFlow:
    @pytest.mark.parametrize("g", [G32, GridSpec(64, 100.0)], ids=["32", "64-L100"])
    @pytest.mark.parametrize("kind", ["zero", "separable", "tabulated"])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("cut", [None, 12.0])
    def test_bits_of_the_full_exponential_tables(self, g, kind, mu, cut):
        # modes whose exponential is exactly zero are skipped, not rounded;
        # on 64^2 with L = 100 the forcing's rates have rounding inversions
        forcing = {
            "zero": ForcingSpec(kind="zero"),
            "separable": forcing_for(g, K=0.6),
            "tabulated": ForcingSpec(kind="tabulated", table=[
                (t, band_ic(g, 80 + i, 0.4)) for i, t in enumerate([0.5, 0.8, 1.6, 30.0])]),
        }[kind]
        mask = None if cut is None else (multiplier_table(g).q <= cut).astype(float)
        # every shell, so that some modes land just inside and outside the underflow
        w0 = band_ic(g, 33, hi=g.n // 2)
        flow = LinearFlow(w0, forcing, mu, mask)
        for t in (0.0, 1e-9, 25.0, 1000.0, 1e6):
            expected = full_table_flow(w0, forcing, mu, mask, t)
            assert np.array_equal(flow.at(t).view(np.int64), expected.view(np.int64)), t

    def test_non_finite_time_rejected(self):
        flow = LinearFlow(band_ic(G32, 33), forcing_for(G32), 1.0)
        for t in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                flow.at(t)

    @pytest.mark.parametrize("mu", [0.0, 1.3])
    def test_tabulated_carry_matches_resummation(self, mu):
        g = G32
        knots = [0.5, 0.8, 1.6, 2.0, 3.5, 4.0]
        forcing = ForcingSpec(kind="tabulated", table=[
            (t, band_ic(g, 60 + i, 0.4)) for i, t in enumerate(knots)])
        assert forcing.knot_times.tolist() == knots and not forcing.knot_times.flags.writeable
        # unsorted, repeated, before the first knot, on knots, inside
        # segments and past the last knot
        times = [2.7, 0.2, 1.6, 6.0, 0.5, 0.65, 4.0, 3.9, 1.6, 0.0, 2.0, 40.0]
        flow = LinearFlow(SpectralField(g, np.zeros(g.band_shape, complex)), forcing, mu)
        for t in times:
            band = flow.at(t)
            ref = resummed_tabulated_duhamel(forcing, mu, t, g)
            if t <= knots[0]:
                assert np.array_equal(band, ref)
            else:
                assert np.max(np.abs(band - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [24, 32, 48])
    @pytest.mark.parametrize("mu", [0.0, 1.3])
    def test_support_quadrature_matches_full_grid(self, n, mu):
        g = GridSpec(n, 2 * np.pi)
        w0 = band_ic(g, 30 + n)
        profile = sp.random_band_field(g, n, 1.0, 3.0, 2, n // 4)
        forcing = ForcingSpec(kind="separable_decaying", profile=profile, amplitude=0.7, eta=0.6)
        support = forcing_support(forcing, g)
        assert 0 < support.sum() < support.size
        mt = multiplier_table(g)
        times = [0.0, 0.5, 3.7, 25.0, 1000.0]
        flow = LinearFlow(w0, forcing, mu)
        for t in times:
            band = flow.at(t)
            ref = full_grid_duhamel(w0, forcing, mu, t)
            assert np.max(np.abs(band - ref)) <= 1e-15 * np.max(np.abs(ref))
            free = np.exp(-mu * mt.h * t) * w0.band
            assert np.array_equal(band[~support], free[~support])

    def test_quadrature_sees_distinct_support_rates_once_per_time(self, monkeypatch):
        g = G32
        mu, times = 1.3, [0.0, 0.4, 2.0, 9.0]
        forcing = forcing_for(g, K=0.9, eta=0.6)
        calls = []

        def recording(lam, t, eta):
            calls.append((np.array(lam), t))
            return duhamel_time_factor(lam, t, eta)

        monkeypatch.setattr(evolution, "duhamel_time_factor", recording)
        flow = LinearFlow(band_ic(g, 27), forcing, mu)
        for t in times:
            flow.at(t)
        q = np.unique(multiplier_table(g).q[forcing_support(forcing, g)])
        expected = mu * (1.0 + q) * q * q / (1.0 + q + q * q)
        assert [t for _, t in calls] == times
        for lam, _ in calls:
            assert np.array_equal(lam, expected)

    def test_profile_vanishing_on_grid_gives_free_flow(self):
        # a shell band beyond every |k| on the grid leaves an empty support
        g = G32
        k1, k2 = multiplier_table(g).k1, multiplier_table(g).k2
        radius = np.hypot(k1, k2)
        profile = SpectralField(g, np.where((radius >= g.n) & (radius <= 2 * g.n), 1.0 + 0j, 0.0))
        forcing = ForcingSpec(kind="separable_decaying", profile=profile, amplitude=0.5)
        assert duhamel_time_factor(np.array([]), 2.0, 0.75).shape == (0,)
        w0 = band_ic(g, 28)
        mt = multiplier_table(g)
        flow = LinearFlow(w0, forcing, 1.0)
        for t in (0.0, 1.5, 40.0):
            assert np.array_equal(flow.at(t), np.exp(-mt.h * t) * w0.band)

    def test_linear_series_vanishes_outside_galerkin_cut(self):
        g = G32
        cut = 12.0
        cfg = RunConfig(grid=g, mu=0.8, t_end=1.0, dt=1e-2, initial_condition=band_ic(g, 29),
                        galerkin_cut=cut, forcing=forcing_for(g, K=0.6))
        states, records = linear_series(cfg, [0.0, 0.5, 1.0])
        assert len(records) == 3
        outside = multiplier_table(g).q > cut
        for _, field in states:
            assert np.all(field.band[outside] == 0.0)
            assert np.any(field.band[~outside] != 0.0)

    @pytest.mark.parametrize("kind", ["zero", "separable", "tabulated"])
    @pytest.mark.parametrize("mu", [0.0, 1.3])
    @pytest.mark.parametrize("cut", [None, 12.0])
    def test_at_in_any_order_is_bitwise_sorted_evaluation(self, kind, mu, cut):
        g = G32
        forcing = {
            "zero": ForcingSpec(kind="zero"),
            "separable": forcing_for(g, K=0.6),
            "tabulated": ForcingSpec(kind="tabulated", table=[
                (t, band_ic(g, 70 + i, 0.4)) for i, t in enumerate([0.5, 0.8, 1.6, 2.0, 3.5])]),
        }[kind]
        mask = None if cut is None else (multiplier_table(g).q <= cut).astype(float)
        w0 = band_ic(g, 31)
        # before, on, between and past the knots, in increasing order
        times = [0.0, 0.2, 0.5, 0.65, 0.8, 1.6, 2.0, 2.7, 3.5, 6.0, 40.0]
        sorted_flow = LinearFlow(w0, forcing, mu, mask)
        expected = {t: sorted_flow.at(t).tobytes() for t in times}
        shuffled = [times[i] for i in np.random.default_rng(5).permutation(len(times))]
        flow = LinearFlow(w0, forcing, mu, mask)
        # shuffled, then decreasing, then repeated: the bits (signed zeros
        # included) never depend on the order or on earlier calls
        for t in shuffled + times[::-1] + [2.7, 2.7, 0.5, 0.5, 0.0]:
            assert flow.at(t).tobytes() == expected[t]

    def test_run_config_builds_one_flow(self, monkeypatch):
        built = []

        class CountingFlow(LinearFlow):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(evolution, "LinearFlow", CountingFlow)
        g = G32
        cfg = RunConfig(grid=g, mu=0.8, t_end=1.0, dt=1e-2, initial_condition=band_ic(g, 29),
                        galerkin_cut=12.0, forcing=forcing_for(g, K=0.6))
        states, _ = linear_series(cfg, [0.0, 0.5, 1.0])
        linear_series(cfg, [1.0, 0.5])
        assert cfg.linear_flow is cfg.linear_flow
        assert len(built) == 1 and built[0][0] is cfg.initial_state
        assert cfg.linear_flow.cut is cfg.galerkin_block
        for t, field in states:
            assert field.band.tobytes() == cfg.linear_flow.at(t).tobytes()
        with pytest.raises(ValueError, match="nonnegative"):
            cfg.linear_flow.at(-0.1)

    def test_free_flow_matches_closed_form(self):
        g = G32
        w0 = band_ic(g, 18)
        mt = multiplier_table(g)
        flow = LinearFlow(w0, ForcingSpec(kind="zero"), 0.8)
        for t in (0.0, 0.7, 2.0):
            expected = np.exp(-0.8 * mt.h * t) * w0.band
            assert np.max(np.abs(flow.at(t) - expected)) <= 1e-14 * np.max(np.abs(w0.coeffs))

    def test_constant_forcing_saturates(self):
        # constant-in-time forcing: mode tends to f0_hat / (mu h)
        g = G32
        prof = band_ic(g, 19)
        forcing = ForcingSpec(kind="tabulated", table=[(0.0, prof), (1e4, prof)])
        mt = multiplier_table(g)
        band = LinearFlow(SpectralField(g, np.zeros(g.band_shape, complex)),
                          forcing, 1.0).at(2e3)
        nz = np.abs(prof.band) > 0
        expected = (mt.d * prof.band)[nz] / mt.h[nz]
        assert np.allclose(band[nz], expected, rtol=1e-10)

    def test_separable_forcing_against_adaptive_quadrature(self):
        g = G32
        forcing = forcing_for(g, K=0.9, eta=0.6)
        w0 = band_ic(g, 20)
        t = 3.7
        field = SpectralField(g, LinearFlow(w0, forcing, 1.3).at(t))
        mt = multiplier_table(g)
        for idx in ((1, 0), (2, 3), (5, 1)):
            lam = 1.3 * mt.h[idx]
            factor = duhamel_time_factor_quad(lam, t, 0.6)
            expected = (np.exp(-lam * t) * w0.coeffs[idx]
                        + 0.9 * mt.d[idx] * forcing.profile.coeffs[idx] * factor)
            assert field.coeffs[idx] == pytest.approx(expected, rel=1e-10)

    def test_transport_disabled_run_matches_linear(self):
        g = G64
        w0 = band_ic(g, 21)
        forcing = forcing_for(g, K=0.4, eta=0.7)
        cfg = RunConfig(grid=g, mu=1.0, t_end=1.0, dt=1e-2,
                        initial_condition=w0, forcing=forcing,
                        disable_transport=True, diagnostics_every=100)
        out = simulate(cfg)
        lin = SpectralField(g, LinearFlow(w0, forcing, 1.0).at(1.0))
        err = sp.l2_norm(SpectralField(g, out.final.band - lin.band)) / sp.l2_norm(lin)
        assert err <= 1e-10


class TestCompareRuns:
    def test_zero_perturbation(self):
        g = G32
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.2, dt=1e-2,
                        initial_condition=band_ic(g, 22), diagnostics_every=5)
        zero = SpectralField(g, np.zeros(g.band_shape, complex))
        report = compare_runs(cfg, zero)
        assert np.all(report.e_delta == 0.0)

    def test_linear_response_to_small_perturbations(self):
        g = G32
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.3, dt=5e-3,
                        initial_condition=band_ic(g, 23, 2.0), diagnostics_every=10)
        pert = band_ic(g, 24, 1e-6)
        half = SpectralField(g, 0.5 * pert.band)
        full_sup = max(compare_runs(cfg, pert).delta_h3)
        half_sup = max(compare_runs(cfg, half).delta_h3)
        assert full_sup / half_sup == pytest.approx(2.0, rel=0.1)

    def test_envelope_dominates_with_order_one_constants(self):
        g = G32
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.3, dt=5e-3,
                        initial_condition=band_ic(g, 25, 2.0), diagnostics_every=10)
        report = compare_runs(cfg, band_ic(g, 26, 1e-6))
        assert report.envelope_margin <= 1.0 + 1e-9
        assert report.fitted_k >= 0.0
        assert 0.0 < report.fitted_c <= 10.0


def blowup_config(g=G32):
    """The datum of TestStep.test_abort_on_blowup: an inviscid run that
    turns non-finite within a few steps."""
    r0 = band_ic(g, 7, amplitude=200.0, hi=10)
    return RunConfig(grid=g, mu=0.0, t_end=50.0, dt=0.5, initial_condition=r0)


def last_finite_state(cfg):
    """(t, state) just before the solo step that aborts."""
    y, t = cfg.initial_state.band, 0.0
    while True:
        try:
            nxt = step(y, t, cfg)
        except SimulationAbort:
            return t, SpectralField(cfg.grid, y)
        y, t = nxt, t + cfg.dt


def stacked_config(g, **overrides):
    values = dict(grid=g, mu=0.7, t_end=0.06, dt=1e-2,
                  initial_condition=band_ic(g, 31, 1.5), diagnostics_every=3)
    values.update(overrides)
    return RunConfig(**values)


def tabulated_forcing(g):
    return ForcingSpec(kind="tabulated", table=[(0.0, band_ic(g, 32, 0.3)),
                                                (0.015, band_ic(g, 33, 0.5)),
                                                (1.0, band_ic(g, 34, 0.2))])


G24_TWO_THIRDS = GridSpec(24, 3.0, "two_thirds_truncation")

STACKED_CASES = {
    "if_rk4": lambda: stacked_config(G32),
    "if_rk2": lambda: stacked_config(G32, stepper="if_rk2"),
    "two_thirds_3_divides_n": lambda: stacked_config(
        G24_TWO_THIRDS, initial_condition=band_ic(G24_TWO_THIRDS, 35, 1.5, hi=8)),
    "galerkin_cut": lambda: stacked_config(G32, galerkin_cut=20.0),
    "inviscid": lambda: stacked_config(G32, mu=0.0),
    "separable_forcing": lambda: stacked_config(G32, forcing=forcing_for(G32)),
    "tabulated_forcing": lambda: stacked_config(G32, forcing=tabulated_forcing(G32)),
    "transport_disabled": lambda: stacked_config(
        G32, disable_transport=True, forcing=forcing_for(G32)),
}


class TestEnsembleAxis:
    """A stack of band blocks steps bitwise like its members stepped alone."""

    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_stacked_step_equals_solo_steps(self, case):
        cfg = STACKED_CASES[case]()
        h = cfg.grid.n // 2
        solo = [cfg.initial_state, SpectralField(
            cfg.grid, cfg.initial_state.band + band_ic(cfg.grid, 36, 0.1, hi=5).band)]
        pair = np.stack([r.band for r in solo])
        for i in range(cfg.n_steps):
            t = i * cfg.dt
            pair = step(pair, t, cfg)
            solo = [SpectralField(cfg.grid, step(r.band, t, cfg)) for r in solo]
            for member, r in zip(complete_band(pair), solo):
                assert np.array_equal(member, r.coeffs)
        assert pair.shape == (2, cfg.grid.n, h)

    def test_compare_runs_equals_two_loop_reference(self):
        g = G32
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.1, dt=5e-3,
                        initial_condition=band_ic(g, 37, 2.0), diagnostics_every=5,
                        forcing=forcing_for(g))
        perturbation = band_ic(g, 38, 1e-4)
        report = compare_runs(cfg, perturbation)

        base = cfg.initial_state
        pert = SpectralField(g, base.band + sp.sanitize_band(perturbation).band)
        e_delta, delta_h3, rate = [], [], []

        def push(a, b):
            delta = SpectralField(g, b.band - a.band)
            e_delta.append(diag.quadratic_forms(delta.band, g, rows=[diag.E_FIRST])[0])
            delta_h3.append(np.sqrt(diag.quadratic_forms(delta.band, g)[diag.H3_SQ]))
            rate.append(_grad_l4_fourth(a.band, g))

        push(base, pert)
        for i in range(cfg.n_steps):
            base = SpectralField(g, step(base.band, i * cfg.dt, cfg))
            pert = SpectralField(g, step(pert.band, i * cfg.dt, cfg))
            if (i + 1) % cfg.diagnostics_every == 0:
                push(base, pert)
        growth = diag.cumulative_simpson(np.asarray(rate), cfg.dt * cfg.diagnostics_every)
        assert np.array_equal(report.e_delta, e_delta)
        assert np.array_equal(report.delta_h3, delta_h3)
        assert np.array_equal(report.growth_integral, growth)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [0, 1])
    def test_stacked_abort_keeps_first_nonfinite_member(self, bad):
        cfg = blowup_config()
        t, doomed = last_finite_state(cfg)
        calm = band_ic(cfg.grid, 40, 0.1)
        members = [calm, calm]
        members[bad] = doomed
        with pytest.raises(SimulationAbort) as info:
            step(np.stack([r.band for r in members]), t, cfg)
        assert info.value.t == t + cfg.dt
        assert np.array_equal(info.value.last_good.coeffs, doomed.coeffs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_twin_run_abort_keeps_last_good_base(self):
        cfg = blowup_config()
        t, doomed = last_finite_state(cfg)
        with pytest.raises(SimulationAbort) as info:
            compare_runs(cfg, band_ic(cfg.grid, 41, 1e-6))
        # a tiny perturbation: the base run is the first member to blow up
        assert info.value.t == t + cfg.dt
        assert np.array_equal(info.value.last_good.coeffs, doomed.coeffs)
        assert np.all(np.isfinite(info.value.last_good.coeffs))


def qgk_caches():
    """Every lru_cache table defined in a qgk module, by qualified name."""
    caches = {}
    for name in ("grid", "spectral", "bilinear", "evolution", "diagnostics", "quadrature",
                 "littlewood_paley", "decay_lab", "snapshots", "config", "cli"):
        module = importlib.import_module(f"qgk.{name}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{name}.{attr}"] = obj
    return caches


class TestRunConstants:
    """The stepper's per-run constants live on the frozen RunConfig."""

    def test_dt_sweep_grows_no_cache(self):
        g = GridSpec(16, 2 * np.pi)
        r0 = band_ic(g, 42, hi=3)
        step(r0.band, 0.0, RunConfig(grid=g, mu=1.0, t_end=1e-3, dt=1e-3, initial_condition=r0))
        caches = qgk_caches()
        sizes = {name: cache.cache_info().currsize for name, cache in caches.items()}
        for k in range(40):
            dt = 1e-3 * (1.0 + k / 40.0)
            step(r0.band, 0.0, RunConfig(grid=g, mu=1.0, t_end=dt, dt=dt, initial_condition=r0))
        assert {name: cache.cache_info().currsize for name, cache in caches.items()} == sizes

    def test_frozen_and_read_only(self):
        cfg = stacked_config(G32, galerkin_cut=20.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dt = 2e-2
        assert cfg.initial_state is cfg.initial_state
        arrays = [cfg.initial_state.band, cfg.initial_state.coeffs, *cfg.exp_factors,
                  cfg.galerkin_block, *cfg.sigma_weights]
        assert not any(arr.flags.writeable for arr in arrays)
        assert stacked_config(G32).galerkin_block is None

    def test_constants_match_the_grid_table(self):
        cfg = stacked_config(G24_TWO_THIRDS, galerkin_cut=20.0)
        mt = multiplier_table(cfg.grid)
        e_half = np.exp(-cfg.mu * mt.h * (0.5 * cfg.dt))
        assert np.array_equal(cfg.exp_factors[0], e_half)
        assert np.array_equal(cfg.exp_factors[1], e_half * e_half)
        assert np.array_equal(cfg.exp_factors[2], cfg.dt * e_half)
        assert np.array_equal(cfg.exp_factors[3], 2.0 * e_half)
        assert np.array_equal(cfg.galerkin_block, (mt.q <= 20.0).astype(float))

    @pytest.mark.parametrize("stepper", ["if_rk4", "if_rk2"])
    def test_step_keeps_the_bits_of_the_written_out_scheme(self, stepper):
        # the held products dt * e_half and 2 * e_half, and e_full * y formed
        # once, give the scheme as written term by term, bit for bit
        cfg = stacked_config(G32, stepper=stepper, forcing=tabulated_forcing(G32))
        y, t, dt = cfg.initial_state.band, 0.01, cfg.dt
        e_half, e_full = cfg.exp_factors[:2]
        nl = evolution._nonlinear_rhs
        if stepper == "if_rk2":
            k1 = nl(y, t, cfg)
            k2 = nl(e_half * (y + 0.5 * dt * k1), t + 0.5 * dt, cfg)
            expected = e_full * y + dt * e_half * k2
        else:
            a = nl(y, t, cfg)
            b = nl(e_half * (y + 0.5 * dt * a), t + 0.5 * dt, cfg)
            c = nl(e_half * y + 0.5 * dt * b, t + 0.5 * dt, cfg)
            d = nl(e_full * y + dt * e_half * c, t + dt, cfg)
            expected = e_full * y + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
        assert step(y, t, cfg).tobytes() == expected.tobytes()

    def test_sigma_weights_built_once_per_run(self):
        cfg = stacked_config(G32, sigma_list=(1.0, 2.5))
        assert cfg.sigma_weights is cfg.sigma_weights
        q = multiplier_table(cfg.grid).q
        y = diag._weights(cfg.grid)[0][diag.Y]
        for s, w in zip(cfg.sigma_list, cfg.sigma_weights):
            assert np.array_equal(w, (1.0 + q) ** s * y)
        r = cfg.initial_state
        e_sigma = diag.quadratic_forms(r.band, cfg.grid, cfg.sigma_weights)[diag.D_SECOND + 1:]
        solo = [diag.sigma_weight(cfg.grid, s) for s in cfg.sigma_list]
        assert e_sigma.tolist() == diag.quadratic_forms(r.band, cfg.grid, solo, rows=[]).tolist()


class TestBandState:
    """A run's state stays a band block from its prepared datum to its
    outputs."""

    def test_full_arrays_only_at_the_output_edge(self, monkeypatch, tmp_path):
        calls = []

        def counting(block):
            calls.append(block.shape)
            return complete_band(block)

        monkeypatch.setattr(grid_module, "complete_band", counting)
        cfg = stacked_config(G32, t_end=0.12, snapshot_every=2, forcing=forcing_for(G32))
        out = simulate(cfg)
        # 12 steps recorded every 3: 5 records, snapshots at records 0, 2 and 4
        assert [t for t, _ in out.snapshots] == [0.0, 6 * cfg.dt, 12 * cfg.dt]
        assert calls == []
        compare_runs(cfg, band_ic(G32, 43, 1e-4))
        assert calls == []
        # the files are written and read in file order, straight from and to
        # the band block
        for k, (t, field) in enumerate(out.snapshots + [(cfg.t_end, out.final)]):
            write_snapshot(tmp_path / f"snap_{k}.qgk", field, t)
            assert read_snapshot(tmp_path / f"snap_{k}.qgk")[0].band.tobytes() == \
                field.band.tobytes()
        assert calls == []

    @pytest.mark.parametrize("kind", ["separable", "tabulated"])
    def test_every_state_is_its_band_block(self, kind, tmp_path):
        # a datum file the snapshot reader accepts: Hermitian only to 1e-13 of
        # its largest coefficient, the asymmetry in a column outside the band
        # block, which the reader drops
        g = GridSpec(16, 2 * np.pi)
        full = band_ic(g, 44, hi=4).coeffs.copy()
        full[2, -1] += 1e-13 * np.max(np.abs(full))
        assert hermitian_defect(full) > 0.0
        path = tmp_path / "w0.qgk"
        path.write_bytes(struct.pack("<4sIIdd", b"QGK1", 1, g.n, g.box_length, 0.0)
                         + np.fft.fftshift(full).astype("<c16").tobytes())
        w0, _ = read_snapshot(path)
        assert np.array_equal(w0.band, full[:, :g.n // 2])
        forcing = forcing_for(g) if kind == "separable" else tabulated_forcing(g)
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.04, dt=1e-2, initial_condition=w0,
                        forcing=forcing, diagnostics_every=2, snapshot_every=1)
        flow = LinearFlow(w0, forcing, cfg.mu)
        states = [(t, SpectralField(g, flow.at(t))) for t in (0.0, 0.5, 2.0)]
        snaps = simulate(cfg).snapshots
        assert [t for t, _ in snaps] == [0.0, 0.02, 0.04]
        for _, field in states + snaps + linear_series(cfg, [0.0, 0.5, 1.0])[0]:
            assert np.array_equal(field.coeffs, complete_band(field.band))
        assert np.array_equal(snaps[0][1].coeffs, cfg.initial_state.coeffs)


def test_every_cache_bounded_over_20_grids():
    caches = qgk_caches()
    assert sorted(caches) == ["diagnostics._weights", "grid.multiplier_table"]
    for n in range(8, 48, 2):
        g = GridSpec(n, 2 * np.pi)
        multiplier_table(g)
        diag._weights(g)
        for cache in caches.values():
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
