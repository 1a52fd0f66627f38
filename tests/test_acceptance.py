"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under `pytest -s` or `-v`).
The long-time comparison experiment (criteria 8 and 9) runs once as a
module-scoped fixture; it takes a few minutes at the required resolution.
"""

import time

import numpy as np
import pytest

from qgk.grid import GridSpec, SpectralField
from qgk import bilinear as bl
from qgk import decay_lab as dl
from qgk import diagnostics as diag
from qgk import littlewood_paley as lp
from qgk import spectral as sp
from qgk.evolution import (
    ForcingSpec,
    RunConfig,
    compare_runs,
    simulate,
)

TWO_PI = 2.0 * np.pi


def report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE-{num:02d} {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. bilinear cancellations


def test_criterion_01_bilinear_cancellations():
    t0 = time.perf_counter()
    worst = 0.0
    for n, seed in ((64, 1), (128, 2)):
        g = GridSpec(n, TWO_PI)
        rho = sp.random_band_field(g, seed, 1.0, 3.0, 1, n // 4)
        zeta = sp.random_band_field(g, seed + 10, 1.0, 3.0, 1, n // 4)
        scale = bl.pairing_scale(rho, zeta)
        worst = max(worst, abs(bl.pairing_first(rho, zeta)) / scale)
        worst = max(worst, abs(bl.pairing_second(rho, zeta)) / scale)
        worst = max(worst, bl.antisymmetry_residual(rho, zeta))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 2.0
    report(1, ok, f"pairings/antisymmetry worst {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 2s)")


# ---------------------------------------------------------------------------
# 2. single-mode exactness


def test_criterion_02_single_mode_exactness():
    t0 = time.perf_counter()
    g = GridSpec(64, TWO_PI)
    r0 = sp.cosine_field(g, 1, 0, 1.0)
    lam = bl.transport(r0, r0)
    u1, _ = bl.velocity(r0)
    lam_scale = max(sp.l2_norm(u1) * sp.l2_norm(sp.gradient(sp.bilaplacian(r0))[0]), 1e-300)
    lam_rel = sp.l2_norm(lam) / lam_scale
    cfg = RunConfig(grid=g, mu=1.0, t_end=1.0, dt=1e-2, initial_condition=r0,
                    diagnostics_every=10, snapshot_every=1)
    out = simulate(cfg)
    q = g.frequency_unit ** 2
    h = (1.0 + q) * q * q / (1.0 + q + q * q)
    worst = 0.0
    for t, field in out.snapshots:
        exact = np.exp(-h * t) * r0.coeffs
        err = np.max(np.abs(field.coeffs - exact)) / np.max(np.abs(r0.coeffs))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and lam_rel <= 1e-13 and elapsed < 1.0
    report(2, ok, f"propagator err {worst:.2e} (tol 1e-12), transport {lam_rel:.2e} "
                  f"(tol 1e-13), {elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# 3-4. energy balance residuals and their fourth-order convergence


@pytest.fixture(scope="module")
def balance_runs():
    g = GridSpec(128, TWO_PI)
    r0 = sp.random_band_field(g, 21, 3.0, 3.0, 1, 5)
    prof = sp.random_band_field(g, 22, 1.0, 3.0, 1, 5)
    forcing = ForcingSpec(kind="separable_decaying", profile=prof, amplitude=0.5, eta=0.75)
    t0 = time.perf_counter()
    out = {}
    for dt in (1e-3, 5e-4):
        cfg = RunConfig(grid=g, mu=0.3, t_end=0.25, dt=dt, initial_condition=r0,
                        forcing=forcing, diagnostics_every=25)
        out[dt] = simulate(cfg).records[-1]
    return out, time.perf_counter() - t0


def test_criterion_03_first_energy_balance(balance_runs):
    records, elapsed = balance_runs
    res, res_half = (records[1e-3]["first_balance_residual"],
                     records[5e-4]["first_balance_residual"])
    ratio = res / res_half
    ok = res < 1e-6 and ratio >= 12.0 and elapsed < 30.0
    report(3, ok, f"first balance residual {res:.2e} (< 1e-6), halving ratio {ratio:.1f} "
                  f"(>= 12), {elapsed:.1f}s (< 30s)")


def test_criterion_04_second_energy_balance(balance_runs):
    records, elapsed = balance_runs
    res, res_half = (records[1e-3]["second_balance_residual"],
                     records[5e-4]["second_balance_residual"])
    ratio = res / res_half
    ok = res < 1e-6 and ratio >= 12.0
    report(4, ok, f"second balance residual {res:.2e} (< 1e-6), halving ratio {ratio:.1f} (>= 12)")


# ---------------------------------------------------------------------------
# 5. inviscid conservation


def test_criterion_05_inviscid_conservation():
    g = GridSpec(64, TWO_PI)
    r0 = sp.random_band_field(g, 31, 85.0, 3.0, 1, 10)

    def drift(dt):
        cfg = RunConfig(grid=g, mu=0.0, t_end=0.5, dt=dt, initial_condition=r0,
                        diagnostics_every=int(round(0.05 / dt)))
        out = simulate(cfg)
        e0 = diag.quadratic_forms(cfg.initial_state.band, g, rows=[diag.E_SECOND])[0]
        return max(abs(e - e0) for e in out.records["E_second"].tolist()) / e0

    d1 = drift(1e-3)
    d2 = drift(5e-4)
    ratio = d1 / d2
    ok = d1 <= 1e-8 and ratio >= 12.0
    report(5, ok, f"tilde-energy drift {d1:.2e} (<= 1e-8), halving ratio {ratio:.1f} (>= 12)")


# ---------------------------------------------------------------------------
# 6. linear decay envelopes and measured slopes


def test_criterion_06_linear_decay_envelopes():
    t0 = time.perf_counter()
    series = dl.decay_series(dl.gaussian_profile(1.0), moments=(0, 1, 3), mu=1.0,
                             window=(1e2, 1e6), num=32)
    slopes = {k: series.fitted[k][0] for k in (0, 1, 3)}
    expected = {0: -0.50, 1: -0.75, 3: -1.25}
    slope_ok = all(abs(slopes[k] - expected[k]) <= 0.05 for k in expected)
    env_ok = all(
        np.all(np.isfinite(series.envelopes[k]))
        and np.all(np.diff(series.envelopes[k]) <= 1e-12)
        for k in (0, 1, 3)
    )
    elapsed = time.perf_counter() - t0
    ok = slope_ok and env_ok and elapsed < 10.0
    report(6, ok, "slopes " + ", ".join(f"M{k}: {slopes[k]:+.3f}" for k in (0, 1, 3))
           + f" (each within 0.05), envelopes non-increasing, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 7. Duhamel decay envelope


def test_criterion_07_duhamel_decay():
    t0 = time.perf_counter()
    prof = dl.gaussian_profile(1.0)
    times = np.geomspace(1.0, 1e5, 16)
    env = np.array([
        np.sqrt(1.0 + t) * (dl.duhamel_moment(prof, 1, 1.0, 0.75, 1.0, t)
                            + dl.duhamel_moment(prof, 3, 1.0, 0.75, 1.0, t))
        for t in times
    ])
    peak = int(np.argmax(env))
    tail_ok = np.all(np.diff(env[peak:]) <= 1e-12)
    elapsed = time.perf_counter() - t0
    ok = np.all(np.isfinite(env)) and np.all(env > 0) and peak < len(env) // 2 \
        and tail_ok and elapsed < 30.0
    report(7, ok, f"(1+t)^0.5 (D1+D3) bounded by {np.max(env):.3f}, "
                  f"non-increasing after its peak, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 8-9. long-time convergence to the linear flow (the big run)


@pytest.fixture(scope="module")
def long_time_run():
    g = GridSpec(256, 100.0)
    # small smooth datum in the shell 1 <= |xi| <= 2.5 so the transient is
    # gone well before t = 10; same band for the forcing profile
    r0 = sp.random_band_field(g, 11, 0.25, 3.0, 16, 40)
    prof = sp.random_band_field(g, 12, 1.0, 3.0, 16, 40)
    forcing = ForcingSpec(kind="separable_decaying", profile=prof, amplitude=0.05, eta=0.8)
    cfg = RunConfig(grid=g, mu=1.0, t_end=1000.0, dt=0.2, initial_condition=r0,
                    forcing=forcing, diagnostics_every=25, snapshot_every=2)
    t0 = time.perf_counter()
    out = simulate(cfg)
    times = [t for t, _ in out.snapshots]
    lin = [(t, SpectralField(g, cfg.linear_flow.at(t))) for t in times]
    return cfg, out, lin, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_08_long_time_convergence(long_time_run):
    cfg, out, lin, elapsed = long_time_run
    series = diag.compare_h3(out.snapshots, lin, eta=0.8)
    # torus validity window: t_end = 1e3 << mu^-1 (L / 2 pi)^4 ~ 6.4e4
    assert cfg.t_end < 0.1 / (cfg.mu * cfg.grid.frequency_unit ** 4)
    mask = series.times >= 10.0
    ratios = series.envelope_ratio[mask]
    monotone = diag.bounded_non_increasing(series.times, series.envelope_ratio,
                                           t_min=10.0, slack=0.02)
    ok = np.all(np.isfinite(ratios)) and monotone
    report(8, ok, f"|z|_H3 / (1+t)^-0.3 bounded by {np.max(ratios):.3e} and "
                  f"non-increasing on t in [10, 1e3]; run {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_09_nonlinear_sobolev_decay(long_time_run):
    cfg, out, _, _ = long_time_run
    eta = cfg.forcing.eta
    times, h3, h4 = (out.records[c] for c in ("t", "H3", "H4"))
    env3 = diag.envelope_series(times, h3, eta / 2.0)
    env4 = diag.envelope_series(times, h4, eta / 2.0)
    ok3 = diag.bounded_non_increasing(times, env3, t_min=10.0, slack=0.02)
    ok4 = diag.bounded_non_increasing(times, env4, t_min=10.0, slack=0.02)
    ok = ok3 and ok4 and np.all(np.isfinite(env3)) and np.all(np.isfinite(env4))
    report(9, ok, f"(1+t)^0.4 |r|_H3 <= {np.max(env3[times >= 10]):.3e}, "
                  f"H4 <= {np.max(env4[times >= 10]):.3e}, both non-increasing for t >= 10")


# ---------------------------------------------------------------------------
# 10. Bony reconstruction and Besov/Sobolev equivalence


def test_criterion_10_bony_and_besov():
    g = GridSpec(64, TWO_PI)
    partition = lp.dyadic_partition(g)
    worst_bony = 0.0
    for seed in (51, 52):
        u = sp.random_band_field(g, seed, 1.0, 3.0, 1, 20)
        v = sp.random_band_field(g, seed + 10, 1.0, 3.0, 1, 20)
        total = (lp.paraproduct(partition, u, v).band
                 + lp.paraproduct(partition, v, u).band
                 + lp.remainder(partition, u, v).band)
        ref = sp.dealiased_product(u, v)
        worst_bony = max(worst_bony, sp.l2_norm(SpectralField(g, total - ref.band))
                         / sp.l2_norm(ref))
    equiv_ok = True
    details = []
    for s in (0.0, 1.0, 2.0, 3.0):
        lo, hi = lp.besov_sobolev_bounds(partition, s)
        u = sp.random_band_field(g, 61 + int(s), 1.0, 3.0, 1, 20)
        ratio = lp.besov_norm(partition, u, s) / sp.sobolev_norm(u, s)
        equiv_ok &= lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)
        details.append(f"s={s:g}: {ratio:.3f} in [{lo:.3f}, {hi:.3f}]")
    ok = worst_bony <= 1e-12 and equiv_ok
    report(10, ok, f"Bony defect {worst_bony:.2e} (tol 1e-12); " + "; ".join(details))


# ---------------------------------------------------------------------------
# 11. Galerkin refinement


def test_criterion_11_galerkin_refinement():
    g = GridSpec(128, TWO_PI)
    r0 = sp.random_exponential_field(g, 41, 1.0, 0.6)

    def run(cut):
        cfg = RunConfig(grid=g, mu=1.0, t_end=0.3, dt=5e-3, initial_condition=r0,
                        galerkin_cut=cut, diagnostics_every=6, snapshot_every=1)
        return simulate(cfg).snapshots

    snaps = {cut: run(cut) for cut in (64.0, 256.0, 1024.0)}
    sups = []
    for lo, hi in ((64.0, 256.0), (256.0, 1024.0)):
        diffs = [sp.sobolev_norm(SpectralField(g, a.band - b.band), 3.0)
                 for (_, a), (_, b) in zip(snaps[lo], snaps[hi])]
        sups.append(max(diffs))
    ok = sups[1] < sups[0] and sups[1] <= 0.5 * sups[0]
    report(11, ok, f"sup_t H3 differences {sups[0]:.3e} -> {sups[1]:.3e} "
                   f"(strictly decreasing, ratio {sups[1] / sups[0]:.3f} <= 0.5)")


# ---------------------------------------------------------------------------
# 12. stability envelope and linear response


def test_criterion_12_stability_envelope():
    g = GridSpec(64, TWO_PI)
    cfg = RunConfig(grid=g, mu=1.0, t_end=2.0, dt=5e-3,
                    initial_condition=sp.random_band_field(g, 71, 2.0, 3.0, 1, 6),
                    diagnostics_every=20)
    pert = sp.random_band_field(g, 72, 1e-6, 3.0, 1, 6)
    half = SpectralField(g, 0.5 * pert.band)
    full_report = compare_runs(cfg, pert)
    half_report = compare_runs(cfg, half)
    halving = max(full_report.delta_h3) / max(half_report.delta_h3)
    ok = (full_report.envelope_margin <= 1.0 + 1e-9
          and full_report.fitted_c <= 10.0
          and full_report.fitted_k >= 0.0
          and abs(halving - 2.0) <= 0.2)
    report(12, ok, f"within fitted Gronwall envelope (margin {full_report.envelope_margin:.3f}, "
                   f"C={full_report.fitted_c:.3g} order one, K={full_report.fitted_k:.3g}); "
                   f"perturbation halving ratio {halving:.3f} (2 +- 0.2)")
