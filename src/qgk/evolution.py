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
block coeffs[..., :n/2] (see qgk.grid), bare in the step loop and wrapped as
a SpectralField where it leaves this module; no full array is built here.
One step loop (_advance) serves simulate and compare_runs, and leading axes
of the blocks stack runs stepped together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import diagnostics as diag
from .grid import GridSpec, SpectralField, multiplier_table
from .bilinear import transport
from .quadrature import duhamel_time_factor, linear_segment_factor
from .spectral import band_samples, sanitize_band

IF_RK4 = "if_rk4"
IF_RK2 = "if_rk2"
STEPPERS = (IF_RK4, IF_RK2)

FORCING_KINDS = ("zero", "separable_decaying", "tabulated")


class SimulationAbort(RuntimeError):
    """Non-finite state encountered at time t; carries the last good state
    and its time."""

    def __init__(self, message: str, t: float, last_good: SpectralField, last_good_t: float):
        super().__init__(message)
        self.t = t
        self.last_good = last_good
        self.last_good_t = last_good_t


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
    bound, the stepper's symbols on the band block and the E_sigma weights
    of the records.
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

    @property
    def n_steps(self) -> int:
        steps = int(round(self.t_end / self.dt))
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
    def exp_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """exp(-mu h dt/2) and exp(-mu h dt) on the band block."""
        h = multiplier_table(self.grid).h
        e_half = np.exp(-self.mu * h * (0.5 * self.dt))
        return _read_only(e_half), _read_only(e_half * e_half)

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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _restrict(cfg: RunConfig, y: np.ndarray) -> np.ndarray:
    """Band blocks y without the Nyquist row, cut like the run's states."""
    y = y * multiplier_table(cfg.grid).keep
    return y if cfg.galerkin_block is None else y * cfg.galerkin_block


@dataclass
class TimeSeriesRecord:
    """One diagnostics row; columns in fixed CSV order."""

    t: float
    x: float
    y: float
    e_first: float
    e_second: float
    e_sigma: tuple
    h3: float
    h4: float
    diss_first: float
    diss_second: float
    work_first: float
    work_second: float
    res_first: float = 0.0
    res_second: float = 0.0

    @staticmethod
    def columns(sigma_list) -> list[str]:
        cols = ["t", "X", "Y", "E_first", "E_second"]
        cols += [f"E_sigma_{s:g}" for s in sigma_list]
        cols += ["H3", "H4", "diss_first", "diss_second", "work_first",
                 "work_second", "first_balance_residual", "second_balance_residual"]
        return cols

    def row(self) -> list[float]:
        return [self.t, self.x, self.y, self.e_first, self.e_second,
                *self.e_sigma, self.h3, self.h4, self.diss_first,
                self.diss_second, self.work_first, self.work_second,
                self.res_first, self.res_second]


@dataclass
class SimulationResult:
    final: SpectralField
    records: list
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


def step(r: SpectralField | np.ndarray, t: float, cfg: RunConfig):
    """One integrating-factor Runge-Kutta step from t to t + dt.

    r is a SpectralField, or the band blocks (..., n, n/2) of states stacked
    along any leading axes; the result has the same form.  Every mode
    of every member sees the same operation sequence, so a stacked member
    steps bitwise like the member alone.  The dissipative factor
    exp(-mu h dt) multiplies the state exactly, so a vanishing nonlinearity
    propagates exactly for any dt.

    A non-finite result raises SimulationAbort carrying the pre-step state
    and t: r itself, or the first stacked member whose step is not finite.
    """
    solo = isinstance(r, SpectralField)
    y = r.band if solo else r
    dt = cfg.dt
    e_half, e_full = cfg.exp_factors
    nl = _nonlinear_rhs
    if cfg.stepper == IF_RK2:
        k1 = nl(y, t, cfg)
        k2 = nl(e_half * (y + 0.5 * dt * k1), t + 0.5 * dt, cfg)
        out = e_full * y + dt * e_half * k2
    else:
        a = nl(y, t, cfg)
        b = nl(e_half * (y + 0.5 * dt * a), t + 0.5 * dt, cfg)
        c = nl(e_half * y + 0.5 * dt * b, t + 0.5 * dt, cfg)
        d = nl(e_full * y + dt * e_half * c, t + dt, cfg)
        out = e_full * y + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
    if not np.all(np.isfinite(out)):
        raise SimulationAbort("non-finite state after step", t + dt,
                              r if solo else _first_nonfinite(y, out, cfg.grid), t)
    return SpectralField(cfg.grid, out) if solo else out


def _first_nonfinite(y: np.ndarray, out: np.ndarray, grid: GridSpec) -> SpectralField:
    """Pre-step state of the first stacked member whose step is not finite."""
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


def _record(state: np.ndarray, t: float, cfg: RunConfig) -> TimeSeriesRecord:
    x, y, e_first, e_second, h3_sq, h4_sq, diss_first, diss_second, *e_sigma = (
        diag.quadratic_forms(state, cfg.grid, cfg.sigma_weights).tolist())
    f = cfg.forcing.coefficients(t)
    # no Galerkin mask on f: stepped states and the exact linear flow of
    # linear_series both vanish outside the cut
    work_first, work_second = (0.0, 0.0) if f is None else diag.forcing_work(f, state, cfg.grid)
    return TimeSeriesRecord(
        t=t, x=x, y=y, e_first=e_first, e_second=e_second, e_sigma=tuple(e_sigma),
        h3=math.sqrt(h3_sq), h4=math.sqrt(h4_sq),
        diss_first=diss_first, diss_second=diss_second,
        work_first=work_first, work_second=work_second,
    )


def _attach_residuals(records: list, mu: float) -> None:
    times = [rec.t for rec in records]
    if len(times) < 3:
        return
    r1 = diag.balance_residuals(
        times, [r.e_first for r in records], [r.diss_first for r in records],
        [r.work_first for r in records], mu)
    r2 = diag.balance_residuals(
        times, [r.e_second for r in records], [r.diss_second for r in records],
        [r.work_second for r in records], mu)
    for rec, a, b in zip(records, r1, r2):
        rec.res_first = float(a)
        rec.res_second = float(b)


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
    record(t, y) at t = 0 and every diagnostics_every steps; returns y."""
    record(0.0, y)
    for i in range(cfg.n_steps):
        y = step(y, i * cfg.dt, cfg)
        if (i + 1) % cfg.diagnostics_every == 0:
            record((i + 1) * cfg.dt, y)
    return y


def simulate(cfg: RunConfig) -> SimulationResult:
    """Advance the configured run to t_end, collecting diagnostics.

    Deterministic given (cfg, seed): all randomness is consumed when the
    initial condition and forcing profile are built.
    """
    warnings = start_warnings(cfg)
    if cfg.n_steps % cfg.diagnostics_every != 0:
        warnings.append("step count is not a multiple of diagnostics_every; "
                        "the final partial window is not recorded")
    records, snapshots = [], []

    def record(t, y):
        k = len(records)
        records.append(_record(y, t, cfg))
        if cfg.snapshot_every > 0 and k % cfg.snapshot_every == 0:
            snapshots.append((t, SpectralField(cfg.grid, y)))
        if k > 0 and len(warnings) < 8:
            limit = cfl_limit(y, cfg.grid)
            if cfg.dt > limit:
                warnings.append(
                    f"dt = {cfg.dt:g} exceeds the advective CFL bound {limit:g} at t = {t:g}")

    y = _advance(cfg, cfg.initial_state.band, record)
    _attach_residuals(records, cfg.mu)
    return SimulationResult(final=SpectralField(cfg.grid, y), records=records,
                            snapshots=snapshots, warnings=warnings)


# ---------------------------------------------------------------------------
# exact linear flow


def linear_evolve(w0: SpectralField, forcing: ForcingSpec, mu: float,
                  times) -> list[tuple[float, SpectralField]]:
    """Exact mode-wise solution of the linear equation from w0 at the given
    times.

    The free part is the diagonal propagator exp(-mu h t); the Duhamel
    integral is evaluated per mode, with the separable-decaying amplitude
    integrated by panel quadrature (grouped over the distinct rates of the
    forcing's support, so modes the profile leaves at zero keep the free
    flow exactly) and tabulated forcing integrated in closed form, carried
    from knot to knot.
    """
    grid = w0.grid
    mt = multiplier_table(grid)
    y0, h = w0.band * mt.keep, mt.h
    times = list(times)
    if any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    if forcing.kind == "separable_decaying":
        f0 = forcing.amplitude * mt.d * forcing.profile.band
        support = f0 != 0.0
        f0 = f0[support]
        q, inverse = np.unique(mt.q[support], return_inverse=True)
        lam = mu * (1.0 + q) * q * q / (1.0 + q + q * q)
    elif forcing.kind == "tabulated":
        tabulated = _tabulated_duhamel(forcing, mu, times, grid)
    out = []
    for i, t in enumerate(times):
        y = np.exp(-mu * h * t) * y0
        if forcing.kind == "separable_decaying":
            y[support] += f0 * duhamel_time_factor(lam, t, forcing.eta)[inverse]
        elif forcing.kind == "tabulated":
            y = y + tabulated[i]
        out.append((float(t), SpectralField(grid, y)))
    return out


def _tabulated_duhamel(forcing: ForcingSpec, mu: float, times: list,
                       grid: GridSpec) -> list[np.ndarray]:
    """Band blocks of the closed-form Duhamel integrals of the piecewise-linear
    interpolant at each of the times, which may come in any order.

    Taking the times in increasing order, the integral is carried from knot
    to knot and from the last knot at or below t, so each segment is
    integrated once.  A segment is integrated from its upper end so that
    only decaying exponentials appear, keeping the evaluation stable for
    stiff modes.
    """
    mt = multiplier_table(grid)
    lam = mu * mt.h
    knots = forcing.knot_times
    a = [mt.d * f.band for _, f in forcing.table]

    def carry(acc, k, width):
        # e^{-lam width} acc + int_{t_k}^{t_k + width} e^{-lam (t_k + width - tau)} f(tau) dtau
        acc = np.exp(-lam * width) * acc
        if k + 1 == len(knots):
            return acc
        slope = (a[k + 1] - a[k]) / (knots[k + 1] - knots[k])
        j0, j1 = linear_segment_factor(lam, width)
        return acc + ((a[k] + slope * width) * j0 - slope * j1)

    zero = np.zeros(lam.shape, dtype=complex)
    out, acc, k = [zero] * len(times), zero, 0      # acc: the integral up to knots[k]
    for i in np.argsort(times, kind="stable"):
        while k + 1 < len(knots) and knots[k + 1] <= times[i]:
            acc, k = carry(acc, k, knots[k + 1] - knots[k]), k + 1
        if times[i] > knots[0]:
            out[i] = carry(acc, k, times[i] - knots[k])
    return out


def linear_series(cfg: RunConfig, times) -> tuple[list, list]:
    """Exact linear flow from the configured datum at the given times,
    cut like the run when it has a Galerkin cut.

    Returns the (t, state) pairs and one diagnostics record per state, with
    the balance residuals attached.  Uneven times are rejected up front.
    """
    times = list(times)
    diag.uniform_cadence(times)
    states = linear_evolve(cfg.initial_state, cfg.forcing, cfg.mu, times)
    if cfg.galerkin_block is not None:
        # the projected system: the Duhamel term is cut like the stepped forcing
        states = [(t, SpectralField(cfg.grid, w.band * cfg.galerkin_block)) for t, w in states]
    records = [_record(w.band, t, cfg) for t, w in states]
    _attach_residuals(records, cfg.mu)
    return states, records


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
