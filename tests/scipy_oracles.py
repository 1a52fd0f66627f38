"""References the tests check qgk's quadrature against: scipy's adaptive
quadrature, and the full exponential tables that qgk trims.  qgk itself
imports no scipy; these run only under the test extra."""

import numpy as np
from scipy.integrate import quad, simpson
from scipy.optimize import brentq

from qgk import decay_lab as dl
from qgk.quadrature import QuadratureError, _panel_points, panel_rule


def duhamel_time_factor_quad(lam: float, t: float, eta: float, epsrel: float = 1e-12) -> float:
    """I(lam, t) of qgk.quadrature by adaptive quadrature, for a single rate."""
    if t == 0.0:
        return 0.0

    def integrand(s):
        return np.exp(-lam * s) * (1.0 + t - s) ** (-1.0 - eta)

    pts = [p for p in _panel_points(t, max(lam, 0.0))[1:-1]]
    val, err = quad(integrand, 0.0, t, epsrel=epsrel, limit=400, points=pts or None)
    if not np.isfinite(val) or err > max(abs(val), 1e-300) * 1e-6:
        raise QuadratureError(f"adaptive Duhamel quadrature failed: value={val}, err={err}")
    return val


def duhamel_time_factor_table(lam, t: float, eta: float) -> np.ndarray:
    """I(lam, t) of qgk.quadrature with every cell of its exponential table
    passed to np.exp: the bits the underflow-skipping evaluation must keep."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if t == 0.0 or lam.size == 0:
        return np.zeros_like(lam)
    nodes, weights = panel_rule(_panel_points(t, float(np.max(lam))))
    g = (1.0 + t - nodes) ** (-1.0 - eta)
    return np.exp(-np.outer(lam, nodes)) @ (weights * g)


def h_scalar(rho: float) -> float:
    """h(rho) = q^2 (1 + q) / (1 + q + q^2), q = rho^2, on one float: the
    point-by-point integrands of quad and brentq, written out apart from
    the code under test."""
    q = rho * rho
    return q * q * (1.0 + q) / (1.0 + q + q * q)


def decay_radius(mu: float, t: float, log_cut: float = 709.0) -> float:
    """Radius where mu t h(rho) reaches log_cut (integrand underflow)."""
    if mu * t <= 0.0:
        return np.inf
    target = log_cut / (mu * t)
    lo, hi = 0.0, 1.0
    while h_scalar(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            return np.inf
    return float(brentq(lambda r: h_scalar(r) - target, lo, hi, xtol=1e-12, rtol=1e-12))


def upper_limit(profile: dl.RadialProfile, mu: float, t: float) -> float:
    """The end of the moment integrand's support: the profile's or the decay radius."""
    return float(min(profile.edges[-1], decay_radius(mu, t)))


def moment_integral_simpson(profile: dl.RadialProfile, k: int, mu: float, t: float,
                            num: int = 40001) -> float:
    """M_k(t) of qgk.decay_lab by fixed-step Simpson up to the upper limit."""
    upper = upper_limit(profile, mu, t)
    rho = np.linspace(0.0, upper, num)
    y = np.exp(-mu * t * dl.h_of(rho)) * rho ** (k + 1) * profile(rho)
    return 2.0 * np.pi * float(simpson(y, x=rho))
