"""Radial moment integrals, Duhamel moments and slope fitting."""

import numpy as np
import pytest
from scipy.integrate import quad

from qgk import decay_lab as dl
from qgk.diagnostics import bounded_non_increasing
from qgk.quadrature import QuadratureError, duhamel_time_factor, ols_loglog
from qgk.grid import GridSpec, multiplier_table
from scipy_oracles import (
    duhamel_time_factor_quad,
    duhamel_time_factor_table,
    moment_integral_simpson,
    upper_limit,
)

KNOTS = np.arange(0.0, 4.01, 0.5)


def tabulated_exp():
    """e^{-r} sampled at r = 0, 0.5, ..., 4: kinks at every knot."""
    return dl.tabulated_profile(KNOTS, np.exp(-KNOTS))


def nan_profile():
    return dl.RadialProfile(kind="nan", evaluate=lambda rho: np.full_like(rho, np.nan),
                            edges=(1.0,))


def adaptive_moment(profile, k, mu, t):
    """M_k(t) by scipy's adaptive quad up to the decay radius, with the
    concentration peak of rho^(k+1) e^{-mu t rho^4} and the profile's inner
    edges as break points: the oracle for the panel rule."""
    upper = upper_limit(profile, mu, t)

    def integrand(rho):
        return np.exp(-mu * t * dl.h_of(rho)) * rho ** (k + 1) * profile(rho)

    pts = list(profile.edges[:-1])
    if mu * t > 0.0:
        peak = ((k + 1) / (4.0 * mu * t)) ** 0.25
        pts += [peak / 4.0, peak, 4.0 * peak]
    pts = [p for p in pts if 0.0 < p < upper]
    val, _ = quad(integrand, 0.0, upper, epsrel=1e-11, epsabs=0.0, limit=300,
                  points=pts or None)
    return 2.0 * np.pi * val


class TestProfiles:
    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            dl.gaussian_profile(0.0)

    def test_edges_end_at_the_support(self):
        assert dl.gaussian_profile(2.0).edges == (2.0 * np.sqrt(2.0 * 709.0),)
        assert dl.compact_indicator_profile(2.5).edges == (2.5,)
        assert tabulated_exp().edges == tuple(KNOTS[1:])

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            dl.tabulated_profile([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            dl.tabulated_profile([1.0, 0.5], [1.0, 1.0])

    def test_parse_profile(self):
        p = dl.parse_profile("gaussian:2.0")
        assert p.kind == "gaussian:2.0"
        assert p(0.0) == 1.0
        q = dl.parse_profile("compact_indicator:1.5")
        assert q(1.0) == 1.0 and q(2.0) == 0.0
        with pytest.raises(ValueError):
            dl.parse_profile("fancy:1")


class TestMomentIntegral:
    def test_gaussian_at_time_zero(self):
        # 2 pi int rho exp(-rho^2/2) drho = 2 pi
        val = dl.moment_integral(dl.gaussian_profile(1.0), 0, 1.0, 0.0)
        assert val == pytest.approx(2.0 * np.pi, rel=1e-10)

    def test_monotone_in_time(self):
        prof = dl.gaussian_profile(1.0)
        times = [0.0, 1.0, 10.0, 100.0, 1e4]
        vals = [dl.moment_integral(prof, 1, 1.0, t) for t in times]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("profile", [
        dl.gaussian_profile(0.3), dl.gaussian_profile(1.0), dl.gaussian_profile(3.0),
        dl.compact_indicator_profile(1.0), dl.compact_indicator_profile(2.5),
        tabulated_exp(),
    ], ids=lambda p: p.kind)
    def test_matches_adaptive_oracle(self, profile):
        times = [0.0, *np.geomspace(1e-2, 1e7, 30)]
        worst = 0.0
        for k in (0, 1, 2, 3, 5):
            for mu in (0.1, 1.0):
                for t in times:
                    val = dl.moment_integral(profile, k, mu, t)
                    ref = adaptive_moment(profile, k, mu, t)
                    worst = max(worst, abs(val - ref) / ref)
        assert worst <= 1e-13

    def test_non_finite_raises(self):
        with pytest.raises(QuadratureError):
            dl.moment_integral(nan_profile(), 1, 1.0, 1.0)

    def test_matches_simpson_cross_oracle(self):
        prof = dl.gaussian_profile(1.0)
        for k, t in ((0, 1.0), (1, 100.0), (3, 1e4)):
            a = dl.moment_integral(prof, k, 1.0, t)
            b = moment_integral_simpson(prof, k, 1.0, t)
            assert a == pytest.approx(b, rel=1e-7)

    def test_compact_indicator_slope_minus_half(self):
        prof = dl.compact_indicator_profile(1.0)
        times = np.geomspace(1e2, 1e6, 16)
        vals = [dl.moment_integral(prof, 0, 1.0, t) for t in times]
        slope, _ = ols_loglog(times, vals)
        assert slope == pytest.approx(-0.5, abs=0.03)

    @pytest.mark.parametrize("k,expected", [(1, -0.75), (3, -1.25)])
    def test_gaussian_higher_moment_slopes(self, k, expected):
        prof = dl.gaussian_profile(1.0)
        times = np.geomspace(1e2, 1e6, 16)
        vals = [dl.moment_integral(prof, k, 1.0, t) for t in times]
        slope, _ = ols_loglog(times, vals)
        assert slope == pytest.approx(expected, abs=0.05)


def support_rates(n: int, box_length: float) -> np.ndarray:
    """LinearFlow's rates on every distinct |xi|^2 of a grid, mu = 1: they
    follow the ascending q, with rounding inversions."""
    q = np.unique(multiplier_table(GridSpec(n, box_length)).q)
    return (1.0 + q) * q * q / (1.0 + q + q * q)


_SWEEP = np.random.default_rng(2206)
SWEEP_RATES = {
    "unsorted": 10.0 ** _SWEEP.uniform(-4.0, 3.0, 300),
    "ascending_with_inversions": support_rates(64, 100.0),
    "zeros": np.where(_SWEEP.random(120) < 0.3, 0.0, _SWEEP.uniform(0.0, 40.0, 120)),
    "negatives": np.where(_SWEEP.random(120) < 0.3, -_SWEEP.uniform(0.0, 1e-3, 120),
                          _SWEEP.uniform(0.0, 40.0, 120)),
    "single": np.array([3.7]),
}


class TestDuhamelTimeFactor:
    @pytest.mark.parametrize("eta", [0.25, 0.75])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 25.0, 1000.0, 1e5])
    @pytest.mark.parametrize("kind", sorted(SWEEP_RATES))
    def test_bits_of_the_full_exponential_table(self, kind, t, eta):
        # cells whose exponential is exactly zero are skipped, not rounded
        lam = SWEEP_RATES[kind]
        fast = duhamel_time_factor(lam, t, eta)
        ref = duhamel_time_factor_table(lam, t, eta)
        assert np.array_equal(fast.view(np.int64), ref.view(np.int64))

    def test_sweep_rates_have_rounding_inversions(self):
        assert np.sum(np.diff(SWEEP_RATES["ascending_with_inversions"]) < 0.0) == 6

    @pytest.mark.parametrize("lam,t", [([1.0, np.inf], 10.0), ([1.0, np.nan], 10.0),
                                       ([1.0], np.inf), ([1.0], np.nan), ([1.0], -1.0)])
    def test_non_finite_rate_or_bad_time_raises(self, lam, t):
        with pytest.raises(ValueError):
            duhamel_time_factor(np.array(lam), t, 0.5)

    @pytest.mark.parametrize("lam,t,eta", [(0.0, 5.0, 0.75), (0.3, 50.0, 0.6),
                                           (40.0, 1e3, 0.75), (4e3, 1e5, 0.9)])
    def test_matches_adaptive_reference(self, lam, t, eta):
        fast = duhamel_time_factor(np.array([lam]), t, eta)[0]
        ref = duhamel_time_factor_quad(lam, t, eta)
        assert fast == pytest.approx(ref, rel=1e-10)

    def test_zero_time(self):
        assert duhamel_time_factor(np.array([1.0]), 0.0, 0.5)[0] == 0.0

    def test_zero_rate_closed_form(self):
        # lam = 0: integral of (1+t-s)^(-1-eta) is (1 - (1+t)^-eta)/eta
        t, eta = 7.0, 0.75
        val = duhamel_time_factor(np.array([0.0]), t, eta)[0]
        assert val == pytest.approx((1 - (1 + t) ** -eta) / eta, rel=1e-12)


class TestDuhamelMoment:
    def test_zero_amplitude_and_zero_time(self):
        prof = dl.gaussian_profile(1.0)
        assert dl.duhamel_moment(prof, 1, 1.0, 0.75, 0.0, 10.0) == 0.0
        assert dl.duhamel_moment(prof, 1, 1.0, 0.75, 1.0, 0.0) == 0.0

    def test_eta_range(self):
        with pytest.raises(ValueError):
            dl.duhamel_moment(dl.gaussian_profile(1.0), 1, 1.0, 1.5, 1.0, 1.0)

    @pytest.mark.parametrize("prof,t", [
        (dl.gaussian_profile(1.0), 30.0),
        # the panels must have an edge on every kink of the interpolant
        (tabulated_exp(), 0.5), (tabulated_exp(), 30.0),
    ], ids=["gaussian-30", "tabulated-0.5", "tabulated-30"])
    def test_against_nested_adaptive_quadrature(self, prof, t):
        mu, eta, K, k = 1.0, 0.75, 1.0, 1

        def outer(rho):
            lam = mu * dl.h_of(rho)
            return rho ** (k + 1) * prof(rho) * dl.d_of(rho) * duhamel_time_factor_quad(lam, t, eta)

        upper = min(prof.edges[-1], 12.0)
        ref, _ = quad(outer, 0.0, upper, epsrel=1e-12, limit=200,
                      points=prof.edges[:-1] or None)
        ref *= 2.0 * np.pi * K
        val = dl.duhamel_moment(prof, k, mu, eta, K, t)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_non_finite_raises(self):
        with pytest.raises(QuadratureError):
            dl.duhamel_moment(nan_profile(), 1, 1.0, 0.75, 1.0, 1.0)

    @pytest.mark.parametrize("mu,t", [(np.inf, 10.0), (np.nan, 10.0), (1.0, np.inf),
                                      (1e300, 1e300)])
    def test_non_finite_mu_t_raises(self, mu, t):
        # an infinite mu t used to leave the radial panel loop no scale to grow
        prof = dl.gaussian_profile(1.0)
        with pytest.raises(ValueError, match="finite mu t"):
            dl.duhamel_moment(prof, 1, mu, 0.75, 1.0, t)
        with pytest.raises(ValueError, match="finite mu t"):
            dl._radial_edges(prof, mu, t)

    def test_envelope_bounded_non_increasing_from_t10(self):
        # (1+t)^(1/2) (D1 + D3) peaks near t = 3, then falls by about 0.75
        # per half decade
        prof = dl.gaussian_profile(1.0)
        times = np.geomspace(1.0, 1e5, 11)
        env = []
        for t in times:
            d1 = dl.duhamel_moment(prof, 1, 1.0, 0.75, 1.0, t)
            d3 = dl.duhamel_moment(prof, 3, 1.0, 0.75, 1.0, t)
            env.append(np.sqrt(1.0 + t) * (d1 + d3))
        env = np.array(env)
        assert np.all(np.isfinite(env)) and np.all(env > 0)
        assert bounded_non_increasing(times, env, t_min=10.0)


class TestFitExponent:
    def test_exact_power_law(self):
        times = np.geomspace(10.0, 1e5, 12)
        vals = 3.7 * times ** -0.5
        slope, stderr = dl.fit_exponent(times, vals, (times[0], times[-1]))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr < 1e-12

    def test_needs_enough_samples(self):
        times = np.geomspace(10.0, 1e5, 12)
        vals = times ** -1.0
        with pytest.raises(ValueError):
            dl.fit_exponent(times, vals, (10.0, 20.0))

    def test_rejects_nonpositive(self):
        times = np.geomspace(10.0, 1e5, 12)
        vals = times - 300.0
        with pytest.raises(ValueError):
            dl.fit_exponent(times, vals, (times[0], times[-1]))


def test_decay_series_table():
    series = dl.decay_series(dl.gaussian_profile(1.0), moments=(0, 1), mu=1.0,
                             window=(1e2, 1e5), num=10)
    assert series.times.shape == (10,)
    assert set(series.moments) == {0, 1}
    slope0, _ = series.fitted[0]
    assert slope0 == pytest.approx(-0.5, abs=0.05)
    env0 = series.envelopes[0]
    # one-sided envelope: bounded and non-increasing on the tail
    assert np.all(np.diff(env0) <= 1e-12 + 0.0 * env0[1:])


def test_decay_series_duhamel_columns_are_single_moments():
    # one Duhamel factor table per time serves every k, bit for bit
    prof, moments, eta, amp = tabulated_exp(), (0, 1, 3), 0.75, 1.3
    series = dl.decay_series(prof, moments=moments, mu=0.8, window=(1.0, 1e4), num=9,
                             duhamel_eta=eta, duhamel_amplitude=amp)
    for k in moments:
        expected = np.array([dl.duhamel_moment(prof, k, 0.8, eta, amp, t)
                             for t in series.times])
        assert np.array_equal(series.duhamel[k].view(np.int64), expected.view(np.int64))


def test_composite_linear_decay_check():
    # free moments plus forced moments together satisfy the (1+t)^(-1/2)
    # envelope that the linear theory guarantees for the derivative norms
    prof = dl.gaussian_profile(1.0)
    times = np.geomspace(1.0, 1e4, 9)
    env = []
    for t in times:
        total = (dl.moment_integral(prof, 1, 1.0, t)
                 + dl.moment_integral(prof, 3, 1.0, t)
                 + dl.duhamel_moment(prof, 1, 1.0, 0.75, 1.0, t)
                 + dl.duhamel_moment(prof, 3, 1.0, 0.75, 1.0, t))
        env.append(np.sqrt(1.0 + t) * total)
    env = np.array(env)
    assert np.all(np.isfinite(env))
    peak = int(np.argmax(env))
    assert peak <= len(env) // 2
    assert np.all(np.diff(env[peak:]) <= 1e-12)
