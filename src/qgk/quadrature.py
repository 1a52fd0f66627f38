"""Panel quadrature for Duhamel time integrals and radial Fourier moments.

Every integral in qgk runs on one rule: `panel_rule` places 20-point
Gauss-Legendre nodes on each panel between given edges, and the caller
chooses the edges.  The scalar integral behind every forced-mode
evaluation is

    I(lam, t) = int_0^t exp(-lam s) (1 + t - s)^(-1-eta) ds ,

smooth but two-scaled: exp(-lam s) lives on the scale 1/lam near s = 0 and
the algebraic factor on the unit scale near s = t.  Panels refine
geometrically from both endpoints, which resolves each factor to better
than 1e-12 relative, uniformly in lam; the evaluation is vectorized over an
array of rates.  Along an even cadence, duhamel_carry steps I from one
time to the next on the same rule, with one exponential table per block of
times.  The radial moments of `qgk.decay_lab` use the same rule on their
own radial panels.
"""

from __future__ import annotations

import functools

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be evaluated to tolerance."""


@functools.lru_cache(maxsize=1)
def _gauss_nodes():
    """20-point Gauss-Legendre nodes and weights on [-1, 1], read-only.
    Built on first use: leggauss imports numpy.polynomial, which commands
    that run no quadrature never need."""
    x, w = np.polynomial.legendre.leggauss(20)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w

# exp(-x) rounds to +0 for every x > 1075 ln 2 = 745.133...; an exponential
# table leaves the cells whose argument is below -EXP_ZERO_BEYOND at zero
# instead of passing them to np.exp, whose underflowing path is slow
EXP_ZERO_BEYOND = 746.0
# rows of the Duhamel exponential table that share one nonzero column count
_BAND_ROWS = 32
# times per exponential table in duhamel_carry: a block of factors is about
# one table's size, so a long list holds one block, not one row per time
_CARRY_ROWS = 256


def masked_exp(arg) -> np.ndarray:
    """np.exp(arg) bit for bit, with the cells below -EXP_ZERO_BEYOND left
    at zero instead of passed to np.exp."""
    arg = np.asarray(arg, dtype=float)
    return np.exp(arg, out=np.zeros(arg.shape), where=arg >= -EXP_ZERO_BEYOND)


def panel_rule(edges):
    """Nodes and weights of 20-point Gauss-Legendre on every panel between
    consecutive edges, flattened panel by panel."""
    x, w = _gauss_nodes()
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _panel_points(t: float, lam_max: float) -> np.ndarray:
    """Breakpoints on [0, t] refined near s = 0 (rate scale) and s = t."""
    pts = {0.0, t}
    if lam_max > 0.0:
        w = min(t, 0.25 / lam_max)
        s = 0.0
        while s + w < t:
            s += w
            pts.add(s)
            w *= 2.0
    # resolve the algebraic factor: u = t - s with panels [u, 2u + 1]
    u = 1.0
    while u < t:
        pts.add(t - u)
        u = 2.0 * u + 1.0
    return np.array(sorted(pts))


def _exp_table(lam: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(n_lam, n_nodes) table of exp(-lam s) on the ascending nodes s, built
    in place.  A row's exactly-zero cells are a suffix, from the first node
    past EXP_ZERO_BEYOND / lam; each band of rows exponentiates up to its
    longest nonzero prefix.  lam * (-s) is -(lam * s) bit for bit."""
    with np.errstate(divide="ignore", over="ignore"):
        ends = np.where(lam > 0.0, np.searchsorted(nodes, EXP_ZERO_BEYOND / lam), nodes.size)
    expo, neg_nodes = np.zeros((lam.size, nodes.size)), -nodes
    for lo in range(0, lam.size, _BAND_ROWS):
        rows = slice(lo, lo + _BAND_ROWS)
        block = expo[rows, :ends[rows].max()]
        np.exp(np.multiply.outer(lam[rows], neg_nodes[:block.shape[1]], out=block), out=block)
    return expo


def _finite_factor(out: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        bad = np.nonzero(~np.isfinite(out))[0]
        raise QuadratureError(f"Duhamel factor non-finite for rates at indices {bad[:5]}")
    return out


def duhamel_time_factor(lam, t: float, eta: float) -> np.ndarray:
    """I(lam, t) for an array of nonnegative rates lam, to ~1e-12 relative."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not 0.0 <= t < np.inf:
        raise ValueError("t must be finite and nonnegative")
    if not np.all(np.isfinite(lam)):
        raise ValueError("Duhamel rates must be finite")
    if t == 0.0 or lam.size == 0:
        return np.zeros_like(lam)
    nodes, weights = panel_rule(_panel_points(t, float(np.max(lam))))
    g = (1.0 + t - nodes) ** (-1.0 - eta)
    return _finite_factor(_exp_table(lam, nodes) @ (weights * g))


def duhamel_carry(lam: np.ndarray, times, eta: float):
    """I(lam, t) at each of the evenly spaced ascending times, in order:
    duhamel_time_factor at the first, then carried along the list.

    Over one step of width w from t to t + w,

        I(lam, t + w) = exp(-lam w) I(lam, t)
                        + int_0^w exp(-lam u) (1 + t + w - u)^(-1-eta) du ,

    and the segment integral runs on the nodes of the rule that
    duhamel_time_factor uses on [0, D], D = times[1] - times[0].  The
    factors are made _CARRY_ROWS times at a time, each block on one
    exponential table that is freed before the block is yielded.  A width
    that differs from D (by the rounding of the times, or the jitter
    uniform_cadence allows) adds the integral over [D, w] by the midpoint
    rule.  With times[0] = 0 the second factor is duhamel_time_factor(lam, D)
    bit for bit.
    """
    span = times[1] - times[0]
    nodes, weights = panel_rule(_panel_points(span, float(np.max(lam, initial=0.0))))
    acc = duhamel_time_factor(lam, times[0], eta)
    for lo in range(0, len(times), _CARRY_ROWS):
        block = np.empty((min(_CARRY_ROWS, len(times) - lo), lam.size))
        expo = _exp_table(lam, nodes)
        for k in range(lo, lo + len(block)):
            if k > 0:
                t, width = times[k], times[k] - times[k - 1]
                g = weights * (1.0 + t - nodes) ** (-1.0 - eta)
                acc = masked_exp(lam * -width) * acc + expo @ g
                if width != span:
                    mid = 0.5 * (span + width)
                    acc += (width - span) * masked_exp(lam * -mid) * (1.0 + t - mid) ** (-1.0 - eta)
            block[k - lo] = _finite_factor(acc)
        del expo
        yield from block


def linear_segment_factor(lam, width: float):
    """Exact decaying-exponential integrals over one forcing segment.

    Returns (J0, J1) with J0 = int_0^w e^{-lam s} ds and
    J1 = int_0^w s e^{-lam s} ds, stable for every lam >= 0 (no growing
    exponentials are formed).  Used for the closed-form Duhamel integral of
    piecewise-linear forcing.
    """
    lam = np.asarray(lam, dtype=float)
    z = lam * width
    small = np.abs(z) < 1e-5
    safe_lam = np.where(lam == 0.0, 1.0, lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = np.where(small, width * (1.0 - z / 2.0 + z * z / 6.0),
                      -np.expm1(-z) / safe_lam)
        psi = np.where(
            small,
            0.5 - z / 3.0 + z * z / 8.0,
            (1.0 - masked_exp(-z) * (1.0 + z)) / np.where(z == 0.0, 1.0, z * z),
        )
    j0 = np.where(lam == 0.0, width, j0)
    j1 = width * width * psi
    return j0, j1


def ols_loglog(x, y):
    """Least-squares slope of log(y) vs log(x) with its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log fit needs positive samples")
    lx, ly = np.log(x), np.log(y)
    mx = lx - lx.mean()
    sxx = float(np.sum(mx * mx))
    slope = float(np.sum(mx * (ly - ly.mean())) / sxx)
    resid = ly - ly.mean() - slope * mx
    m = len(x)
    if m > 2:
        stderr = float(np.sqrt(np.sum(resid**2) / (m - 2) / sxx))
    else:
        stderr = 0.0
    return slope, stderr
