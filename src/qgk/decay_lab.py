"""Radial-quadrature verification of the linear decay estimates.

Works directly with the exact mode-wise solution of the linear equation on
the plane: for a radial initial spectrum |w0_hat|(rho) the quantity

    M_k(t) = 2 pi int_0^inf exp(-mu h(rho) t) rho^k |w0_hat|(rho) rho d rho,
    h(rho) = rho^4 (1 + rho^2) / (1 + rho^2 + rho^4),

is the sharp upper bound (up to the inverse-transform constant) for the
sup norm of the k-th derivative of the free solution.  Because h ~ rho^4
near zero the measured large-time slopes of M_0, M_1, M_3 are -1/2, -3/4
and -5/4, steeper than the -1/4, -1/2, -1 one-sided envelopes the theory
guarantees.  Forced moments carry the extra factor d(rho) = 1/a(rho) (the
forcing enters through the inverse of the full elliptic operator) and a
decaying-in-time amplitude K (1+t)^(-1-eta).

Both families of moments are sums over one set of radial panels
(`_radial_edges`) with the Gauss-Legendre rule of `quadrature.panel_rule`:
geometric panels resolve the concentration of exp(-mu t h(rho)) near
rho = 0, and a profile's `edges` (kinks, jumps and its support radius)
are panel edges, so every panel integrates a smooth function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import QuadratureError, duhamel_time_factor, ols_loglog, panel_rule


def h_of(rho):
    rho = np.asarray(rho, dtype=float)
    # q^2 (1 + q) overflows from rho ~ 2.4e51, where q is h correctly rounded
    with np.errstate(over="ignore", invalid="ignore"):
        q = rho * rho
        h = q * q * (1.0 + q) / (1.0 + q + q * q)
    return np.where(np.isfinite(h), h, q)


def d_of(rho):
    rho = np.asarray(rho, dtype=float)
    q = rho * rho
    return 1.0 / (1.0 + q + q * q)


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative radial spectrum |w0_hat|(rho), integrable against rho drho.

    `edges` are the radii, increasing, where the profile is not smooth; the
    last one is its support radius, beyond which it is zero.
    """

    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    edges: tuple[float, ...]

    def __call__(self, rho):
        return self.evaluate(np.asarray(rho, dtype=float))


def gaussian_profile(width: float = 1.0) -> RadialProfile:
    if not width > 0:
        raise ValueError("gaussian width must be positive")
    return RadialProfile(
        kind=f"gaussian:{width}",
        evaluate=lambda rho: np.exp(-0.5 * (rho / width) ** 2),
        edges=(float(width * np.sqrt(2.0 * 709.0)),),
    )


def compact_indicator_profile(radius: float = 1.0) -> RadialProfile:
    if not radius > 0:
        raise ValueError("indicator radius must be positive")
    return RadialProfile(
        kind=f"compact_indicator:{radius}",
        evaluate=lambda rho: np.where(rho <= radius, 1.0, 0.0),
        edges=(float(radius),),
    )


def tabulated_profile(rho_samples, values) -> RadialProfile:
    rho_samples = np.asarray(rho_samples, dtype=float)
    values = np.asarray(values, dtype=float)
    if rho_samples.ndim != 1 or rho_samples.shape != values.shape or len(rho_samples) < 2:
        raise ValueError("tabulated profile needs matching 1-d sample arrays")
    if np.any(np.diff(rho_samples) <= 0) or rho_samples[0] < 0:
        raise ValueError("tabulated radii must be increasing and nonnegative")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("tabulated profile values must be finite and nonnegative")

    def evaluate(rho):
        return np.interp(rho, rho_samples, values, left=values[0], right=0.0)

    return RadialProfile(
        kind="tabulated",
        evaluate=evaluate,
        edges=tuple(float(r) for r in rho_samples if r > 0.0),
    )


def parse_profile(text: str) -> RadialProfile:
    """'gaussian:1.0' or 'compact_indicator:2.5' -> RadialProfile."""
    kind, _, arg = text.partition(":")
    value = float(arg) if arg else 1.0
    # an infinite width or radius leaves the radial panels no finite support
    if not np.isfinite(value):
        raise ValueError(f"radial profile {text!r} needs a finite parameter")
    if kind == "gaussian":
        return gaussian_profile(value)
    if kind == "compact_indicator":
        return compact_indicator_profile(value)
    raise ValueError(f"unknown radial profile {text!r}")


def moment_integral(profile: RadialProfile, k: int, mu: float, t: float) -> float:
    """M_k(t) on the radial panels; agrees with adaptive quadrature to 1e-13
    relative (tests/test_decay_lab.py)."""
    if k < 0 or t < 0.0 or mu < 0.0:
        raise ValueError("moment_integral needs k >= 0, t >= 0, mu >= 0")
    rho, wts = panel_rule(_radial_edges(profile, mu, t))
    # exp underflows to zero beyond the decay radius, so the whole support
    # is integrated; on a support too wide for h(rho) the sum is not finite,
    # which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(-mu * t * h_of(rho)) * rho ** (k + 1) * profile(rho)
        out = 2.0 * np.pi * float(np.sum(wts * vals))
    if not np.isfinite(out):
        raise QuadratureError("moment_integral returned a non-finite value")
    return out


def duhamel_moment(profile_f: RadialProfile, k: int, mu: float, eta: float,
                   amplitude: float, t: float) -> float:
    """Forced moment: 2 pi K int rho^{k+1} |f_hat|(rho) d(rho) I(mu h(rho), t) drho.

    I is the Duhamel time factor with amplitude law (1+tau)^(-1-eta); the
    d(rho) factor reflects that the forcing acts through the inverse of the
    full elliptic operator.  Nested panel quadrature; agrees with nested
    adaptive quadrature to 1e-12 relative (tests/test_decay_lab.py).
    """
    return duhamel_moments(profile_f, (k,), mu, eta, amplitude, t)[0]


def duhamel_moments(profile_f: RadialProfile, ks, mu: float, eta: float,
                    amplitude: float, t: float) -> list[float]:
    """`duhamel_moment` for each k in ks, on one table of Duhamel factors."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if amplitude == 0.0 or t == 0.0:
        return [0.0 for _ in ks]
    rho, wts = panel_rule(_radial_edges(profile_f, mu, t))
    with np.errstate(over="ignore", invalid="ignore"):
        rates = mu * h_of(rho)
    if not np.all(np.isfinite(rates)):
        raise QuadratureError("duhamel_moment rates mu h(rho) overflow on the profile's support")
    factor = duhamel_time_factor(rates, t, eta)
    out = []
    for k in ks:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = rho ** (k + 1) * profile_f(rho) * d_of(rho) * factor
            out.append(2.0 * np.pi * amplitude * float(np.sum(wts * vals)))
        if not np.isfinite(out[-1]):
            raise QuadratureError("duhamel_moment returned a non-finite value")
    return out


def _radial_edges(profile: RadialProfile, mu: float, t: float) -> np.ndarray:
    """Geometric radial panels resolving the mu t h(rho) concentration, with
    an edge on each of the profile's edges, up to its support radius."""
    # a non-finite or negative mu t would leave the panel loop below no scale to grow
    if not 0.0 <= mu * t < np.inf:
        raise ValueError(f"radial panels need a finite mu t >= 0, not mu = {mu}, t = {t}")
    upper = profile.edges[-1]
    pts = {0.0, *profile.edges}
    scale = (1.0 / (1.0 + mu * t)) ** 0.25
    s = min(scale / 8.0, upper)
    while s < upper:
        pts.add(s)
        s *= 2.0
    # a few unit-scale panels for the rational factors
    for p in (0.5, 1.0, 2.0, 4.0):
        if p < upper:
            pts.add(p)
    return np.array(sorted(pts))


@dataclass
class DecaySeries:
    """Log-spaced moment table with envelopes and fitted slopes."""

    times: np.ndarray
    moments: dict            # k -> M_k(t) array
    envelopes: dict          # k -> (1+t)^rate * M_k(t)
    envelope_rates: dict     # k -> rate used above
    fitted: dict             # k -> (slope, stderr)
    duhamel: dict            # k -> forced moment array (may be empty)


def envelope_rate(k: int) -> float:
    """One-sided envelope exponent for moment k (from the linear theory)."""
    return 0.25 * (k + 1)


def decay_series(profile: RadialProfile, moments=(0, 1, 3), mu: float = 1.0,
                 window=(1e2, 1e6), num: int = 32,
                 duhamel_eta: float | None = None,
                 duhamel_amplitude: float = 1.0) -> DecaySeries:
    """Moment table on a log-spaced grid with envelope and slope fits."""
    lo, hi = window
    if not (0 < lo < hi):
        raise ValueError("window must satisfy 0 < lo < hi")
    times = np.geomspace(lo, hi, num)
    mom, env, rates, fits, duh = {}, {}, {}, {}, {}
    for k in moments:
        vals = np.array([moment_integral(profile, k, mu, t) for t in times])
        mom[k] = vals
        rates[k] = envelope_rate(k)
        env[k] = (1.0 + times) ** rates[k] * vals
        fits[k] = fit_exponent(times, vals, window)
    if duhamel_eta is not None:
        table = np.array([duhamel_moments(profile, moments, mu, duhamel_eta,
                                          duhamel_amplitude, t) for t in times])
        duh = {k: table[:, j] for j, k in enumerate(moments)}
    return DecaySeries(times=times, moments=mom, envelopes=env,
                       envelope_rates=rates, fitted=fits, duhamel=duh)


def fit_exponent(times, values, window) -> tuple[float, float]:
    """OLS slope of log(value) vs log(t) over the window, with stderr."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if int(np.sum(mask)) < 8:
        raise ValueError("fit window must contain at least 8 samples")
    if np.any(values[mask] <= 0.0):
        raise ValueError("fit window contains nonpositive values")
    return ols_loglog(times[mask], values[mask])
