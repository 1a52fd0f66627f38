"""Time integration of the reformulated equation and the exact linear flow.

Applying the inverse elliptic operator turns the model into

    dr/dt = -d(xi) transport(r, r)_hat - mu h(xi) r_hat + d(xi) f_hat ,

whose diagonal linear part exp(-mu h(xi) t) is treated exactly by an
integrating-factor Runge-Kutta scheme; for a vanishing nonlinearity the
step is exact to round-off regardless of dt.  The remaining term behaves
like first-order transport at high frequency (d |xi|^5 ~ |xi|), so the
explicit stage satisfies an advective CFL bound dt <= 0.5 (L/n) / max|u|.

The optional sharp Galerkin cutoff reproduces the projected system: the
cutoff is applied to the nonlinear term and the forcing, the initial datum
is projected, and all cancellations survive because the cutoff is
self-adjoint and idempotent.

Every state a run or the linear flow prepares, evolves or returns is a band
block coeffs[..., :n/2] (see qgk.grid), bare in the step loop and from
LinearFlow.at, a SpectralField in results; no full array is built here.
One step loop (_advance) serves simulate and compare_runs, and leading axes
of the blocks stack runs stepped together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import diagnostics as diag
from .grid import GridSpec, SpectralField, multiplier_table
from .bilinear import transport
from .quadrature import EXP_ZERO_BEYOND, duhamel_time_factor, linear_segment_factor
from .spectral import band_samples, sanitize_band

IF_RK4 = "if_rk4"
IF_RK2 = "if_rk2"
STEPPERS = (IF_RK4, IF_RK2)

FORCING_KINDS = ("zero", "separable_decaying", "tabulated")


class SimulationAbort(RuntimeError):
    """Non-finite state encountered at time t; carries the last good state
    and its time, and the warnings that simulate had found by then."""

    def __init__(self, message: str, t: float, last_good: SpectralField, last_good_t: float):
        super().__init__(message)
        self.t = t
        self.last_good = last_good
        self.last_good_t = last_good_t
        self.warnings = []


@dataclass(eq=False)
class ForcingSpec:
    """External force description.

    kinds:
      zero                 -- no forcing
      separable_decaying   -- f(t, x) = K (1+t)^(-1-eta) g(x) for a
                              band-limited profile g, so every Sobolev norm
                              of f carries the (1+t)^(-1-eta) law exactly
      tabulated            -- piecewise-linear interpolation of (time, field)
                              knots; zero outside the tabulated range
    """

    kind: str = "zero"
    profile: SpectralField | None = None
    amplitude: float = 1.0
    eta: float = 0.75
    table: list[tuple[float, SpectralField]] = field(default_factory=list)
    knot_times: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind not in FORCING_KINDS:
            raise ValueError(f"forcing kind must be one of {FORCING_KINDS}")
        if self.kind == "separable_decaying":
            if self.profile is None:
                raise ValueError("separable_decaying forcing needs a spatial profile")
            if not 0.0 < self.eta < 1.0:
                raise ValueError("forcing eta must lie in (0, 1)")
            if not self.amplitude > 0.0:
                raise ValueError("forcing amplitude must be positive")
            self.profile = sanitize_band(self.profile)
        if self.kind == "tabulated":
            if len(self.table) < 2:
                raise ValueError("tabulated forcing needs at least two knots")
            times = [t for t, _ in self.table]
            if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
                raise ValueError("tabulated knots must have increasing times")
            self.table = [(t, sanitize_band(f)) for t, f in self.table]
            self.knot_times = np.array(times, dtype=float)
            self.knot_times.setflags(write=False)

    def coefficients(self, t: float) -> np.ndarray | None:
        """The band block of f_hat(t); None for the zero fast path."""
        if self.kind == "zero":
            return None
        if self.kind == "separable_decaying":
            return self.amplitude * (1.0 + t) ** (-1.0 - self.eta) * self.profile.band
        times = self.knot_times
        if t <= times[0] or t >= times[-1]:
            if t == times[0]:
                return self.table[0][1].band.copy()
            if t == times[-1]:
                return self.table[-1][1].band.copy()
            return None
        i = int(np.searchsorted(times, t) - 1)
        t0, f0 = self.table[i]
        t1, f1 = self.table[i + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * f0.band + w * f1.band


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Full description of one evolution experiment.

    Frozen, so the per-run constants below, each built on first use and
    read-only, cannot go stale: the prepared initial state and its CFL
    bound, the stepper's symbols on the band block, the E_sigma weights
    of the records and the exact linear flow.
    """

    grid: GridSpec
    mu: float
    t_end: float
    dt: float
    initial_condition: SpectralField
    stepper: str = IF_RK4
    galerkin_cut: float | None = None
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    seed: int = 0
    diagnostics_every: int = 10
    snapshot_every: int = 0          # in units of diagnostics records; 0 = none
    sigma_list: tuple[float, ...] = (1.0,)
    disable_transport: bool = False  # diagnostic switch: run the linear flow

    def __post_init__(self):
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if not self.dt > 0.0 or not self.t_end > 0.0:
            raise ValueError("dt and t_end must be positive")
        if self.stepper not in STEPPERS:
            raise ValueError(f"stepper must be one of {STEPPERS}")
        if self.galerkin_cut is not None and not self.galerkin_cut > 0.0:
            raise ValueError("galerkin_cut must be positive when set")
        if self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be at least 1")
        if self.initial_condition.grid != self.grid:
            raise ValueError("initial condition grid does not match run grid")
        labels = record_columns(self.sigma_list)
        twice = [c for c in labels if labels.count(c) > 1]
        if twice:
            raise ValueError(f"diag.sigma = {', '.join(map(repr, self.sigma_list))} names "
                             f"the column {twice[0]} more than once")

    @property
    def n_steps(self) -> int:
        steps = whole_steps(self.t_end, self.dt)
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer number of steps")
        return steps

    @cached_property
    def initial_state(self) -> SpectralField:
        """The datum, restricted like the run's states."""
        r = SpectralField(self.grid, _restrict(self, self.initial_condition.band))
        r.band.setflags(write=False)
        return r

    @cached_property
    def initial_cfl(self) -> float:
        """Advective CFL bound of the initial state."""
        return cfl_limit(self.initial_state.band, self.grid)

    @cached_property
    def exp_factors(self) -> tuple[np.ndarray, ...]:
        """e_half = exp(-mu h dt/2), exp(-mu h dt), dt * e_half and
        2 * e_half on the band block: the step's dt * e_half * c is
        (dt * e_half) * c, so holding the products keeps its bits."""
        h = multiplier_table(self.grid).h
        e_half = np.exp(-self.mu * h * (0.5 * self.dt))
        return tuple(_read_only(f) for f in (e_half, e_half * e_half, self.dt * e_half,
                                             2.0 * e_half))

    @cached_property
    def sigma_weights(self) -> tuple[np.ndarray, ...]:
        """E_sigma's mode weight for each sigma of sigma_list."""
        return tuple(_read_only(diag.sigma_weight(self.grid, s)) for s in self.sigma_list)

    @cached_property
    def galerkin_block(self) -> np.ndarray | None:
        """The Galerkin cut's mask on the band block, or None without a cut."""
        if self.galerkin_cut is None:
            return None
        q = multiplier_table(self.grid).q
        return _read_only((q <= float(self.galerkin_cut)).astype(float))

    @cached_property
    def linear_flow(self) -> LinearFlow:
        """The exact linear flow from the prepared datum, cut like the run."""
        return LinearFlow(self.initial_state, self.forcing, self.mu, self.galerkin_block)


def whole_steps(t_end: float, dt: float) -> int:
    """t_end / dt rounded to an integer; a ratio that overflows is an error."""
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} overflows: no finite step count")
    return int(round(ratio))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _restrict(cfg: RunConfig, y: np.ndarray) -> np.ndarray:
    """Band blocks y without the Nyquist row, cut like the run's states."""
    y = y * multiplier_table(cfg.grid).keep
    return y if cfg.galerkin_block is None else y * cfg.galerkin_block


def record_columns(sigma_list) -> list[str]:
    """The series layout: one float column per name, in CSV order."""
    return ["t", "X", "Y", "E_first", "E_second", *(f"E_sigma_{s:g}" for s in sigma_list),
            "H3", "H4", "diss_first", "diss_second", "work_first", "work_second",
            "first_balance_residual", "second_balance_residual"]


@dataclass
class SimulationResult:
    final: SpectralField
    records: np.ndarray           # one float field per record_columns name
    snapshots: list               # (t, SpectralField) pairs
    warnings: list


def _nonlinear_rhs(y: np.ndarray, t: float, cfg: RunConfig) -> np.ndarray:
    """Everything but the diagonal dissipation, d (f_hat - transport_hat),
    on the band blocks y (..., n, n/2).

    ForcingSpec keeps its profiles on the symmetric band, and the Galerkin
    cut multiplies the whole sum, so the forcing needs no mask of its own.
    """
    nl = None if cfg.disable_transport else transport(y, y, cfg.grid)
    f = cfg.forcing.coefficients(t)
    if f is None and nl is None:
        return np.zeros(y.shape, dtype=complex)
    inner = (f - nl) if (f is not None and nl is not None) else (f if nl is None else -nl)
    rhs = multiplier_table(cfg.grid).d * inner
    if cfg.galerkin_block is not None:
        rhs = rhs * cfg.galerkin_block
    return rhs


def tendency(r: SpectralField, t: float, cfg: RunConfig) -> SpectralField:
    """Right-hand side of the reformulated system at state r and time t."""
    if r.grid != cfg.grid:
        raise ValueError("state grid does not match config grid")
    y = r.band
    rhs = _nonlinear_rhs(y, t, cfg) - cfg.mu * multiplier_table(cfg.grid).h * y
    if not np.all(np.isfinite(rhs)):
        raise SimulationAbort("non-finite tendency", t, r, t)
    return SpectralField(cfg.grid, rhs)


def step(y: np.ndarray, t: float, cfg: RunConfig) -> np.ndarray:
    """One integrating-factor Runge-Kutta step from t to t + dt of the band
    blocks y (..., n, n/2): one state, or states stacked along any leading
    axes.  Every mode of every member sees the same operation sequence, so a
    stacked member steps bitwise like the member alone.  The dissipative
    factor exp(-mu h dt) multiplies the state exactly, so a vanishing
    nonlinearity propagates exactly for any dt.

    A non-finite result raises SimulationAbort carrying t and the pre-step
    state of the first member whose step is not finite.
    """
    dt = cfg.dt
    e_half, e_full, dt_e_half, two_e_half = cfg.exp_factors
    nl = _nonlinear_rhs
    if cfg.stepper == IF_RK2:
        k1 = nl(y, t, cfg)
        k2 = nl(e_half * (y + 0.5 * dt * k1), t + 0.5 * dt, cfg)
        out = e_full * y + dt_e_half * k2
    else:
        e_full_y = e_full * y
        a = nl(y, t, cfg)
        b = nl(e_half * (y + 0.5 * dt * a), t + 0.5 * dt, cfg)
        c = nl(e_half * y + 0.5 * dt * b, t + 0.5 * dt, cfg)
        d = nl(e_full_y + dt_e_half * c, t + dt, cfg)
        out = e_full_y + (dt / 6.0) * (e_full * a + two_e_half * (b + c) + d)
    if not np.all(np.isfinite(out)):
        raise SimulationAbort("non-finite state after step", t + dt,
                              _first_nonfinite(y, out, cfg.grid), t)
    return out


def _first_nonfinite(y: np.ndarray, out: np.ndarray, grid: GridSpec) -> SpectralField:
    """Pre-step state of the first member whose step is not finite."""
    members = y.reshape(-1, *y.shape[-2:])
    finite = np.isfinite(out).reshape(len(members), -1).all(axis=1)
    return SpectralField(grid, members[np.argmin(finite)])


def _velocity_samples(y: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid samples (2, n, n) of the velocity perp_gradient((Id - Delta) r)
    from the band block y of r."""
    mt = multiplier_table(grid)
    a = y * mt.one_minus_lap
    return band_samples(np.stack([-a * mt.ixi2, a * mt.ixi1]), grid.n)


def max_velocity(y: np.ndarray, grid: GridSpec) -> float:
    p1, p2 = _velocity_samples(y, grid)
    return float(np.max(np.hypot(p1, p2)))


def cfl_limit(y: np.ndarray, grid: GridSpec) -> float:
    """Advective bound dt <= 0.5 (L/n) / max|u| (inf when the flow is still)."""
    umax = max_velocity(y, grid)
    if umax == 0.0:
        return float("inf")
    return 0.5 * grid.dx / umax


def prepare_state(cfg: RunConfig) -> SpectralField:
    """cfg.initial_state, which qgk reads directly.  Kept only because the
    benchmark's set-up (perfbench/worker.py) calls it."""
    return cfg.initial_state


def _record(state: np.ndarray, t: float, cfg: RunConfig) -> tuple:
    """One series row in record_columns order, its balance residuals 0."""
    x, y, e_first, e_second, h3_sq, h4_sq, diss_first, diss_second, *e_sigma = (
        diag.quadratic_forms(state, cfg.grid, cfg.sigma_weights).tolist())
    f = cfg.forcing.coefficients(t)
    # no Galerkin mask on f: stepped states and the exact linear flow of
    # linear_series both vanish outside the cut
    work = (0.0, 0.0) if f is None else diag.forcing_work(f, state, cfg.grid)
    return (t, x, y, e_first, e_second, *e_sigma, math.sqrt(h3_sq), math.sqrt(h4_sq),
            diss_first, diss_second, *work, 0.0, 0.0)


def _table(count: int, cfg: RunConfig) -> np.ndarray:
    """A series of count zero rows, one structured array that takes each
    row as it is recorded."""
    return np.zeros(count, dtype=[(c, float) for c in record_columns(cfg.sigma_list)])


def _with_residuals(table: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """The recorded table, both balance residuals filled in once there are
    three rows."""
    if len(table) >= 3:
        for law in ("first", "second"):
            table[f"{law}_balance_residual"] = diag.balance_residuals(
                table["t"], table[f"E_{law}"], table[f"diss_{law}"], table[f"work_{law}"],
                cfg.mu)
    return table


def start_warnings(cfg: RunConfig) -> list[str]:
    """Warnings about a run as configured, from its prepared initial state."""
    warnings = []
    limit = cfg.initial_cfl
    if cfg.dt > limit:
        warnings.append(f"dt = {cfg.dt:g} exceeds the advective CFL estimate {limit:g} "
                        "for the configured initial condition")
    if cfg.mu == 0.0:
        warnings.append("mu = 0: inviscid run, stepper accuracy is tracked but not certified")
    return warnings


def _advance(cfg: RunConfig, y: np.ndarray, record) -> np.ndarray:
    """Step the band blocks y from t = 0 to the last step, calling
    record(t, y) at t = 0 and every diagnostics_every steps; returns y.
    numpy's warnings are off: the non-finite check of each step reports a blow-up."""
    with np.errstate(all="ignore"):
        record(0.0, y)
        for i in range(cfg.n_steps):
            y = step(y, i * cfg.dt, cfg)
            if (i + 1) % cfg.diagnostics_every == 0:
                record((i + 1) * cfg.dt, y)
    return y


def simulate(cfg: RunConfig, sink=None) -> SimulationResult:
    """Advance the configured run to t_end, collecting diagnostics.

    Each snapshot is handed to sink((t, SpectralField)) as soon as it is
    recorded; the default sink is the result's snapshots list, which any
    other sink leaves empty.

    Deterministic given (cfg, seed): all randomness is consumed when the
    initial condition and forcing profile are built.
    """
    warnings = start_warnings(cfg)
    if cfg.n_steps % cfg.diagnostics_every != 0:
        warnings.append("step count is not a multiple of diagnostics_every; "
                        "the final partial window is not recorded")
    records = _table(cfg.n_steps // cfg.diagnostics_every + 1, cfg)
    recorded, snapshots = itertools.count(), []
    sink = snapshots.append if sink is None else sink

    def record(t, y):
        k = next(recorded)
        records[k] = _record(y, t, cfg)
        if cfg.snapshot_every > 0 and k % cfg.snapshot_every == 0:
            sink((t, SpectralField(cfg.grid, y)))
        if k > 0 and len(warnings) < 8:
            limit = cfl_limit(y, cfg.grid)
            if cfg.dt > limit:
                warnings.append(
                    f"dt = {cfg.dt:g} exceeds the advective CFL bound {limit:g} at t = {t:g}")

    try:
        y = _advance(cfg, cfg.initial_state.band, record)
    except SimulationAbort as exc:
        exc.warnings = warnings
        raise
    return SimulationResult(final=SpectralField(cfg.grid, y),
                            records=_with_residuals(records, cfg), snapshots=snapshots,
                            warnings=warnings)


# ---------------------------------------------------------------------------
# exact linear flow


class LinearFlow:
    """Exact mode-wise solution of the linear equation from the datum w0,
    built once and evaluated by at(t) at any t >= 0, in any order.

    The free part is the diagonal propagator exp(-mu h t).  The Duhamel
    integral of separable-decaying forcing is a panel quadrature over the
    distinct rates of the forcing's support only, so modes the profile
    leaves at zero keep the free flow exactly.  Tabulated forcing is
    integrated in closed form: the integral is carried from knot to knot
    once, here, and at(t) carries it from the last knot at or below t.  A
    segment is integrated from its upper end so that only decaying
    exponentials appear, keeping the evaluation stable for stiff modes.
    With a cut, the Galerkin mask on the band block, every state is cut like
    the projected system's.
    """

    def __init__(self, w0: SpectralField, forcing: ForcingSpec, mu: float,
                 cut: np.ndarray | None = None):
        mt = multiplier_table(w0.grid)
        self.forcing, self.mu, self.cut = forcing, mu, cut
        self._y0 = w0.band * mt.keep
        # the rates mu h ascending, for _decay's prefix of nonzero exponentials
        self._order = np.argsort(mt.h, axis=None)
        self._rates = mu * mt.h.ravel()[self._order]
        if forcing.kind == "separable_decaying":
            f0 = forcing.amplitude * mt.d * forcing.profile.band
            self._support = f0 != 0.0
            self._f0 = f0[self._support]
            q, self._inverse = np.unique(mt.q[self._support], return_inverse=True)
            self._lam = mu * (1.0 + q) * q * q / (1.0 + q + q * q)
        elif forcing.kind == "tabulated":
            self._lam = mu * mt.h
            widths = np.diff(forcing.knot_times)
            a = [mt.d * f.band for _, f in forcing.table]
            self._segments = [(a[k], (a[k + 1] - a[k]) / w) for k, w in enumerate(widths)]
            self._knot_integrals = [np.zeros(self._lam.shape, dtype=complex)]
            for k, width in enumerate(widths):
                self._knot_integrals.append(self._carry(k, width))

    def _carry(self, k: int, width: float) -> np.ndarray:
        # e^{-lam width} acc_k + int_{t_k}^{t_k + width} e^{-lam (t_k + width - tau)} f(tau) dtau
        acc = self._decay(width) * self._knot_integrals[k]
        if k == len(self._segments):
            return acc
        a, slope = self._segments[k]
        j0, j1 = linear_segment_factor(self._lam, width)
        return acc + ((a + slope * width) * j0 - slope * j1)

    def _decay(self, t: float) -> np.ndarray:
        """exp(-mu h t) on the band block, bit for bit.  Only the modes with
        mu h t below EXP_ZERO_BEYOND, a prefix of the ascending rates, are
        exponentiated; the rest are exactly zero.  (mu h) (-t) is (-mu h) t."""
        c = self._rates.size
        if self.mu * t > 0.0:
            with np.errstate(over="ignore"):
                c = int(np.searchsorted(self._rates, EXP_ZERO_BEYOND / t))
        out = np.zeros(self._y0.shape)
        out.flat[self._order[:c]] = np.exp(self._rates[:c] * -t)
        return out

    def at(self, t: float) -> np.ndarray:
        """The band block of the flow at time t."""
        if not 0.0 <= t < np.inf:
            raise ValueError("linear flow times must be finite and nonnegative")
        y = self._decay(t) * self._y0
        if self.forcing.kind == "separable_decaying":
            y[self._support] += self._f0 * duhamel_time_factor(
                self._lam, t, self.forcing.eta)[self._inverse]
        elif self.forcing.kind == "tabulated":
            knots = self.forcing.knot_times
            k = int(np.searchsorted(knots, t, side="right")) - 1
            # at or before the first knot the integral is zero; adding it turns -0.0 into +0.0
            y = y + (self._carry(k, t - knots[k]) if t > knots[0] else self._knot_integrals[0])
        return y if self.cut is None else y * self.cut


def linear_series(cfg: RunConfig, times, sink=None) -> tuple[list, np.ndarray]:
    """cfg.linear_flow at the given times: the (t, state) pairs and their
    records, as simulate's.  Each pair goes to sink as soon as it is made,
    the default sink being the returned list, so only one state is held at
    a time otherwise.  Uneven times are rejected before the first state."""
    times = list(times)
    diag.uniform_cadence(times)
    states, records = [], _table(len(times), cfg)
    sink = states.append if sink is None else sink
    for k, t in enumerate(times):
        w = SpectralField(cfg.grid, cfg.linear_flow.at(t))
        records[k] = _record(w.band, float(t), cfg)
        sink((float(t), w))
    return states, _with_residuals(records, cfg)


# ---------------------------------------------------------------------------
# twin-run stability


@dataclass
class StabilityReport:
    """Twin-run energy growth against the Gronwall-shaped envelope."""

    times: np.ndarray
    e_delta: np.ndarray          # first energy of the difference
    delta_h3: np.ndarray
    growth_integral: np.ndarray  # int_0^t |grad (Id - Delta) r_base|_{L4}^4
    fitted_c: float
    fitted_k: float
    envelope: np.ndarray
    envelope_margin: float       # sup of measured / envelope


def _grad_l4_fourth(y: np.ndarray, grid: GridSpec) -> float:
    """|grad (Id - Delta) r|_{L4}^4 from the band block y of r."""
    p1, p2 = _velocity_samples(y, grid)
    return grid.dx ** 2 * float(np.sum((p1 * p1 + p2 * p2) ** 2))


def compare_runs(cfg: RunConfig, perturbation: SpectralField) -> StabilityReport:
    """Run the configured experiment twice, from r0 and r0 + perturbation.
    Both runs step together as one (2, n, n/2) stack of band blocks; an
    abort carries the pre-step state of the first run to turn non-finite.

    Reports the first-energy of the difference and fits the smallest
    constants (C, K >= 0) of the Gronwall-shaped envelope
    C E[delta r0] exp(K G(t)), G(t) = int_0^t |grad (Id - Delta) r_base|_{L4}^4,
    that dominates the measurement.  A healthy run keeps C of order one; the
    perturbation response itself is checked by the halving test.
    """
    if perturbation.grid != cfg.grid:
        raise ValueError("perturbation grid does not match run grid")
    base = cfg.initial_state.band
    samples = []

    def push(t, pair):
        e, h3_sq = diag.quadratic_forms(pair[1] - pair[0], cfg.grid,
                                        rows=[diag.E_FIRST, diag.H3_SQ])
        samples.append((t, e, math.sqrt(h3_sq), _grad_l4_fourth(pair[0], cfg.grid)))

    _advance(cfg, np.stack([base, _restrict(cfg, base + perturbation.band)]), push)
    times, e_delta, delta_h3, g_rate = (np.array(col) for col in zip(*samples))
    g_int = diag.cumulative_simpson(g_rate, times[1] if len(times) > 1 else 1.0)
    if e_delta[0] > 0.0:
        # smallest constants of the one-sided Gronwall shape: the growth rate
        # K must be nonnegative, C is then the minimal dominating prefactor
        log_ratio = np.log(np.maximum(e_delta / e_delta[0], 1e-300))
        gm = g_int - g_int.mean()
        denom = float(np.sum(gm * gm))
        slope = float(np.sum(gm * (log_ratio - log_ratio.mean())) / denom) if denom > 0 else 0.0
        k_fit = max(slope, 0.0)
        c_fit = float(np.exp(np.max(log_ratio - k_fit * g_int)))
        envelope = c_fit * e_delta[0] * np.exp(k_fit * g_int)
        margin = float(np.max(e_delta / np.maximum(envelope, 1e-300)))
    else:
        k_fit, c_fit = 0.0, 1.0
        envelope = np.zeros_like(e_delta)
        margin = 0.0
    return StabilityReport(
        times=times, e_delta=e_delta, delta_h3=delta_h3,
        growth_integral=g_int, fitted_c=c_fit, fitted_k=k_fit,
        envelope=envelope, envelope_margin=margin,
    )
