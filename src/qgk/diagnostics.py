"""Energy functionals, balance residuals and long-time comparison checks.

All energies are spectral-exact quadratic forms.  With q = |xi|^2 the
mode weights are

    E_first   : (1 + 2q + 2q^2 + q^3) / 2        [ = (1+q) a(xi) / 2 ]
    E_second  : (1 + 2q + 3q^2 + 2q^3 + q^4) / 2 [ = a(xi)^2 / 2 ]
    E_sigma   : (1+q)^sigma (q^2 + q^3 + q^4)
    E_tilde_s : (1+q)^s (1 + q + q^2 + q^3)
    X         : 1 + q + q^2 + q^3
    Y         : q^2 + q^3 + q^4

and the dissipation weights of the two balance laws are

    D_first   : q^2 + 2q^3 + q^4            [ |Delta r|^2 + 2|grad Delta r|^2 + |Delta^2 r|^2 ]
    D_second  : q^2 + 2q^3 + 2q^4 + q^5 .

For the semi-discrete system these balances are exact identities, so their
residuals over a run measure only the time stepper and the Simpson rule of
the time quadrature; both shrink at fourth order under dt-halving.

Every form is contracted over a field's band block coeffs[:, :n/2], the
state a run advances.  Each weight row carries the grid's mirror weight,
1 on the k2 = 0 column and 2 on the others, each of which stands for its
mirrored column -k2 by Hermitian symmetry.  Nyquist cells (index -n/2) carry
no energy: their column lies outside the block and their row is weighted 0.
compare_h3 contracts the difference of two snapshots' blocks with the
|u|_H3^2 row, and the pointwise Fourier bounds take their sup over blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, SpectralField, multiplier_table


# rows of the quadratic-form weight table, in the order quadratic_forms returns them
X, Y, E_FIRST, E_SECOND, H3_SQ, H4_SQ, D_FIRST, D_SECOND = range(8)


@lru_cache(maxsize=8)
def _weights(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-form rows (X .. D_second) and the two forcing-pairing rows
    on the band block, mirror weight included."""
    mt = multiplier_table(grid)
    q, mirror = mt.q, mt.mirror * mt.keep
    forms = mirror * np.stack([
        1.0 + q + q**2 + q**3,
        q**2 + q**3 + q**4,
        0.5 * (1.0 + 2.0 * q + 2.0 * q**2 + q**3),
        0.5 * (1.0 + q + q**2) ** 2,
        (1.0 + q) ** 3.0,
        (1.0 + q) ** 4.0,
        q**2 + 2.0 * q**3 + q**4,
        q**2 + 2.0 * q**3 + 2.0 * q**4 + q**5,
    ])
    pairings = mirror * np.stack([1.0 + q, 1.0 + q + q**2])
    forms.setflags(write=False)
    pairings.setflags(write=False)
    return forms, pairings


def _contract(y: np.ndarray, grid: GridSpec, weights) -> np.ndarray:
    """L^2 sum_k w(k) |c(k)|^2 over the band block y for each weight row."""
    absq = y.real ** 2 + y.imag ** 2
    return grid.box_length ** 2 * np.array([float(np.sum(w * absq)) for w in weights])


def _power_row(grid: GridSpec, s: float, row: int) -> np.ndarray:
    """(1 + q)^s times a quadratic-form row."""
    return (1.0 + multiplier_table(grid).q) ** s * _weights(grid)[0][row]


def sigma_weight(grid: GridSpec, sigma: float) -> np.ndarray:
    """E_sigma's weight row (1 + q)^sigma Y on the band block."""
    return _power_row(grid, sigma, Y)


def quadratic_forms(y: np.ndarray, grid: GridSpec, sigma_weights=(),
                    rows=slice(None)) -> np.ndarray:
    """[X, Y, E_first, E_second, |u|_H3^2, |u|_H4^2, D_first, D_second][rows],
    then E_sigma for each of sigma_weights (see sigma_weight), of the field
    with band block y, contracted against one |c|^2."""
    forms, _ = _weights(grid)
    return _contract(y, grid, itertools.chain(forms[rows], sigma_weights))


def forcing_work(f: np.ndarray, y: np.ndarray, grid: GridSpec) -> tuple[float, float]:
    """< f, (Id - Delta) u > and < f, (Id - Delta + Delta^2) u > from the
    band blocks f of the forcing and y of u; f conj(u) is formed once."""
    _, pairings = _weights(grid)
    fu = f * np.conj(y)
    L2 = grid.box_length ** 2
    return tuple(L2 * float(np.real(np.sum(fu * w))) for w in pairings)


def energy_tilde_s(u: SpectralField, s: float) -> float:
    """E_tilde_s(u), the weight (1 + q)^s X contracted over u's band block."""
    return float(_contract(u.band, u.grid, [_power_row(u.grid, s, X)])[0])


# ---------------------------------------------------------------------------
# time quadrature and balance residuals


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order cumulative integral on a uniform grid.

    Even prefixes use composite Simpson; odd prefixes patch the last three
    intervals with the 3/8 rule (the very first interval, which has no such
    patch, uses a quadratic through the first three samples).
    """
    y = np.asarray(y, dtype=float)
    m = len(y)
    out = np.zeros(m)
    if m == 0:
        return out
    simpson = 0.0
    for i in range(1, m):
        if i == 1:
            out[1] = dx * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0 if m > 2 else dx * (y[0] + y[1]) / 2.0
            continue
        if i % 2 == 0:
            simpson += dx * (y[i - 2] + 4.0 * y[i - 1] + y[i]) / 3.0
            out[i] = simpson
        else:
            out[i] = out[i - 3] + 3.0 * dx * (y[i - 3] + 3.0 * y[i - 2] + 3.0 * y[i - 1] + y[i]) / 8.0
    return out


def uniform_cadence(times) -> float:
    """The spacing of evenly spaced times (0.0 for fewer than two)."""
    steps = np.diff(np.asarray(times, dtype=float))
    dx = float(steps[0]) if len(steps) else 0.0
    if not np.allclose(steps, dx, rtol=1e-8, atol=1e-12):
        raise ValueError("balance residuals need a uniform diagnostics cadence")
    return dx


def balance_residuals(times, energy, diss, work, mu: float) -> np.ndarray:
    """Normalized defect of an energy equality over [0, t_k]: either balance
    law, given its energy, dissipation and forcing-work series."""
    if len(times) < 3:
        raise ValueError("balance residuals need at least three diagnostics rows")
    dx = uniform_cadence(times)
    diss_int = cumulative_simpson(np.asarray(diss, float), dx)
    work_int = cumulative_simpson(np.asarray(work, float), dx)
    energy = np.asarray(energy, dtype=float)
    res = energy - energy[0] + mu * diss_int - work_int
    scale = energy[0] + np.abs(work_int) + 1e-300
    return np.abs(res) / scale


# ---------------------------------------------------------------------------
# long-time comparison


@dataclass
class ComparisonSeries:
    """H^3 distance between a nonlinear and a linear run, with envelopes."""

    times: np.ndarray
    z_h3: np.ndarray
    envelope_ratio: np.ndarray   # z_h3 / (1+t)^(1/2 - eta)
    eta: float

    def sup_ratio(self, t_min: float = 0.0) -> float:
        mask = self.times >= t_min
        if not np.any(mask):
            return float("nan")
        return float(np.max(self.envelope_ratio[mask]))


def compare_h3(nonlinear_snaps, linear_snaps, eta: float) -> ComparisonSeries:
    """Pair up snapshots (t, field) from the two runs and compare their band
    blocks in H^3.  Any iterables will do, read one pair at a time; unequal
    counts raise ValueError."""
    times, z_sq = [], []
    for (t_r, r), (t_w, w) in zip(nonlinear_snaps, linear_snaps, strict=True):
        if abs(t_r - t_w) > 1e-9 * max(1.0, abs(t_r)):
            raise ValueError(f"snapshot times differ: {t_r} vs {t_w}")
        if r.grid != w.grid:
            raise ValueError("runs live on different grids")
        times.append(t_r)
        z_sq.append(quadratic_forms(r.band - w.band, r.grid, rows=[H3_SQ])[0])
    times = np.asarray(times)
    z_h3 = np.sqrt(z_sq)
    ratio = z_h3 / (1.0 + times) ** (0.5 - eta)
    return ComparisonSeries(times=times, z_h3=z_h3, envelope_ratio=ratio, eta=eta)


def _pointwise_sup(snaps, r0: SpectralField, base) -> float:
    mt = multiplier_table(r0.grid)
    absxi = np.sqrt(mt.q)
    h3sq = quadratic_forms(r0.band, r0.grid, rows=[H3_SQ])[0]
    sup = 0.0
    for t, r in snaps:
        if t <= 0.0:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (np.abs(r.band) - base) * mt.a / (absxi * np.sqrt(t) * h3sq)
        ratio[absxi == 0.0] = 0.0
        sup = max(sup, float(np.max(ratio)))
    return sup


def pointwise_bound_sup(snaps, r0: SpectralField) -> float:
    """Fitted constant of the pointwise Fourier bound for unforced runs.

    For each snapshot at t > 0 and each mode xi != 0 the quantity
    (|r_hat(t)| - |r0_hat|) a(xi) / (|xi| sqrt(t) |r0|_{H3}^2) is formed
    on the band block; the supremum over modes and times is returned.
    """
    return _pointwise_sup(snaps, r0, np.abs(r0.band))


def pointwise_z_bound_sup(z_snaps, r0: SpectralField) -> float:
    """Same fitted constant for the nonlinear-minus-linear difference."""
    return _pointwise_sup(z_snaps, r0, 0.0)


def envelope_series(times, values, rate: float) -> np.ndarray:
    """(1+t)^rate * value, the one-sided decay envelope."""
    return (1.0 + np.asarray(times, float)) ** rate * np.asarray(values, float)


def bounded_non_increasing(times, ratios, t_min: float, slack: float = 0.02) -> bool:
    """One-sided envelope check: after t_min the ratio never rises by more
    than the slack fraction sample-to-sample and ends no higher than it
    started."""
    times = np.asarray(times, float)
    ratios = np.asarray(ratios, float)
    mask = times >= t_min
    r = ratios[mask]
    if len(r) < 2 or not np.all(np.isfinite(r)):
        return False
    steps_ok = bool(np.all(r[1:] <= r[:-1] * (1.0 + slack)))
    return steps_ok and r[-1] <= r[0]
