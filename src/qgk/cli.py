"""Command-line entry point.

Subcommands: run, linear, decay, compare, stability, invariants,
convergence, lp-spectrum.  Exit codes: 0 success, 1 validation failure
(an unusable --out path included), 2 numerical abort.  All randomness
flows through seeds recorded in the manifest, and identical manifests
produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from . import bilinear, diagnostics as diag, decay_lab, littlewood_paley as lp
from .config import (
    ConfigError,
    manifest_from_values,
    parse_config,
    parse_value,
    resolve_run_config,
    write_csv,
    write_manifest_sidecar,
)
from .evolution import (
    RunConfig,
    SimulationAbort,
    compare_runs,
    linear_series,
    simulate,
    whole_steps,
)
from .grid import SpectralField, hermitian_defect, multiplier_table
from .quadrature import QuadratureError
from .snapshots import (
    SnapshotError,
    atomic_output,
    read_on_grid,
    read_snapshot,
    require_directory,
    write_snapshot,
)
from .spectral import (
    apply_multiplier,
    cosine_field,
    dealiased_product,
    divergence,
    forward_transform,
    inverse_transform,
    l2_norm,
    project_jn,
    random_band_field,
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qgk", description=__doc__)
    p.add_argument("--version", action="version", version=f"qgk {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        parser = sub.add_parser(name, help=help)
        parser.set_defaults(handler=handler)
        return parser

    run = command("run", _cmd_run, "integrate the nonlinear equation")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True, help="output directory")

    lin = command("linear", _cmd_linear, "exact linear flow with the config's datum and forcing")
    lin.add_argument("--config", required=True)
    lin.add_argument("--out", required=True)
    lin.add_argument("--times", default="", help="comma list of evenly spaced finite times >= 0 "
                     "(other lists are rejected); default: diagnostics cadence")

    dec = command("decay", _cmd_decay, "radial-quadrature decay moments")
    dec.add_argument("--profile", default="gaussian:1.0")
    dec.add_argument("--mu", type=float, default=1.0)
    dec.add_argument("--moments", default="0,1,3")
    dec.add_argument("--window", default="1e2,1e6")
    dec.add_argument("--samples", type=int, default=32)
    dec.add_argument("--duhamel-eta", type=float, default=None)
    dec.add_argument("--duhamel-k", type=float, default=1.0)
    dec.add_argument("--out", required=True)

    cmp_ = command("compare", _cmd_compare, "H^3 distance between two run directories")
    cmp_.add_argument("--run-a", required=True, help="nonlinear run directory")
    cmp_.add_argument("--run-b", required=True, help="linear run directory")
    cmp_.add_argument("--eta", type=float, required=True)
    cmp_.add_argument("--out", required=True)

    stab = command("stability", _cmd_stability, "twin runs from a perturbed datum")
    stab.add_argument("--config", required=True)
    stab.add_argument("--perturb", required=True, help="perturbation snapshot")
    stab.add_argument("--out", required=True)

    inv = command("invariants", _cmd_invariants, "full property battery, pass/fail table")
    inv.add_argument("--config", required=True)
    inv.add_argument("--out", default="")

    conv = command("convergence", _cmd_convergence, "dt-refinement study of the balance residuals")
    conv.add_argument("--config", required=True)
    conv.add_argument("--dts", required=True, help="comma list of time steps")
    conv.add_argument("--out", required=True)

    lps = command("lp-spectrum", _cmd_lp_spectrum, "per-dyadic-block energy CSV")
    lps.add_argument("--snapshot", default="")
    lps.add_argument("--config", default="")
    lps.add_argument("--weight", type=float, default=0.0, help="2^(js) weight exponent")
    lps.add_argument("--out", required=True)
    return p


def dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # every float flag (--mu, --eta, --weight, ...) must be finite
        for name, value in vars(args).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, not {value}")
        # --out of every command but run and linear names a file: a missing
        # directory fails here, not after the compute
        if args.command not in ("run", "linear") and args.out:
            require_directory(args.out)
        return args.handler(args)
    except (ConfigError, SnapshotError, OSError, ValueError) as exc:
        print(f"qgk: error: {exc}", file=sys.stderr)
        return 1
    except (SimulationAbort, QuadratureError, FloatingPointError) as exc:
        print(f"qgk: numerical abort: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


# ---------------------------------------------------------------------------
# subcommand bodies


def _manifest(args, values=(), warnings=()):
    """The manifest of a command: the values of the config it read (not its
    path, so the hash does not depend on where the file lives) and every
    other flag but --out, under its argparse name."""
    flags = {name: value for name, value in vars(args).items()
             if name not in ("command", "handler", "config", "out")}
    return manifest_from_values(args.command, {**dict(values), **flags}, warnings)


def _load(args):
    values = parse_config(args.config)
    cfg, warnings = resolve_run_config(values)
    return cfg, _manifest(args, values, warnings)


def _list_flag(args, name: str, parse=float, count=None) -> list:
    """The values of the comma list flag --name, each read by parse; a list
    that holds no value, repeats one or does not hold count of them exits 1."""
    flag = f"--{name}"
    values = [parse(s.strip()) for s in getattr(args, name).split(",") if s.strip()]
    if not values:
        raise ValueError(f"{flag} holds no value")
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{flag} repeats {value!r}")
        seen.add(value)
    if count is not None and len(values) != count:
        raise ValueError(f"{flag} needs {count} values, not {len(values)}")
    return values


class _SnapshotWriter:
    """Writer of a run directory.  As the sink of simulate and linear_series
    it writes each (t, field) it is handed to snap_<k>.qgk and its manifest
    sidecar at once, so no state waits in memory and an aborted run keeps
    the snapshots it made."""

    def __init__(self, out_dir: str, manifest):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir, self.manifest, self.paths = out_dir, manifest, []

    def __call__(self, pair) -> None:
        t, field = pair
        self.state(f"snap_{len(self.paths):06d}", field, t)

    def state(self, name: str, field, t) -> None:
        """<name>.qgk and its manifest sidecar."""
        path = os.path.join(self.out_dir, f"{name}.qgk")
        write_snapshot(path, field, t)
        write_manifest_sidecar(path, self.manifest)
        self.paths.append(path)

    def series(self, records: np.ndarray) -> None:
        write_csv(os.path.join(self.out_dir, "series.csv"), records.dtype.names,
                  records.tolist(), self.manifest)

    def warn(self, found) -> None:
        """Merge the warnings a run found into the manifest and print them
        all.  simulate repeats the t = 0 warnings that resolve_run_config
        already gave; when the run warned after its first snapshots were
        written, their sidecars are rewritten, so each carries the run's
        whole manifest."""
        warnings = tuple(dict.fromkeys((*self.manifest.warnings, *found)))
        if warnings != self.manifest.warnings:
            self.manifest.warnings = warnings
            for path in self.paths:
                write_manifest_sidecar(path, self.manifest)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)


def _cmd_run(args) -> int:
    cfg, manifest = _load(args)
    cfg.n_steps  # a step count that overflows or leaves a remainder exits 1 before any output
    run_dir = _SnapshotWriter(args.out, manifest)
    try:
        result = simulate(cfg, run_dir)
    except SimulationAbort as exc:
        # abort.qgk holds the last good state of an aborted run, abort.txt why
        run_dir.warn(exc.warnings)
        run_dir.state("abort", exc.last_good, exc.last_good_t)
        with atomic_output(os.path.join(args.out, "abort.txt"), encoding="utf-8") as fh:
            fh.write(f"{exc} at t = {exc.t!r}; last good state at t = {exc.last_good_t!r} "
                     "in abort.qgk\n")
        raise
    run_dir.warn(result.warnings)
    run_dir.series(result.records)
    run_dir.state("final", result.final, cfg.t_end)
    print(f"run complete: t_end={cfg.t_end:g}, {len(result.records)} records -> {args.out}")
    return 0


def _cmd_linear(args) -> int:
    cfg, manifest = _load(args)
    if args.times:
        times = _list_flag(args, "times")
        # a negative, non-finite or uneven list exits 1 before anything is written
        if not all(0.0 <= t < np.inf for t in times):
            raise ValueError("--times must be finite and nonnegative")
        diag.uniform_cadence(times)
    else:
        # the times at which qgk run records, (k * diagnostics_every) * dt, bit for bit
        times = [k * cfg.diagnostics_every * cfg.dt
                 for k in range(cfg.n_steps // cfg.diagnostics_every + 1)]
    run_dir = _SnapshotWriter(args.out, manifest)
    # each state is written before the next is made; series.csv needs every row
    _, records = linear_series(cfg, times, run_dir)
    run_dir.series(records)
    print(f"linear flow evaluated at {len(times)} times -> {args.out}")
    return 0


def _cmd_decay(args) -> int:
    profile = decay_lab.parse_profile(args.profile)
    moments = tuple(_list_flag(args, "moments", int))
    lo, hi = _list_flag(args, "window", count=2)
    # checked before any quadrature: an infinite mu t leaves the radial panels no scale
    for value in (lo, hi):
        if not np.isfinite(value):
            raise ValueError(f"--window must be finite, not {value}")
    series = decay_lab.decay_series(
        profile, moments=moments, mu=args.mu, window=(lo, hi), num=args.samples,
        duhamel_eta=args.duhamel_eta, duhamel_amplitude=args.duhamel_k)
    columns = [("t", series.times)]
    columns += [(f"M{k}", series.moments[k]) for k in moments]
    columns += [(f"env{k}", series.envelopes[k]) for k in moments]
    if args.duhamel_eta is not None:
        columns += [(f"D{k}", series.duhamel[k]) for k in moments]
    names, data = zip(*columns)
    write_csv(args.out, names, zip(*data), _manifest(args))
    summary = {
        f"M{k}": {"slope": series.fitted[k][0], "stderr": series.fitted[k][1],
                  "envelope_rate": series.envelope_rates[k]}
        for k in moments
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    with atomic_output(args.out + ".summary.json", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def _snapshot_paths(run_dir: str) -> list:
    """The snap_*.qgk files of a run directory, in order."""
    names = sorted(name for name in os.listdir(run_dir)
                   if name.startswith("snap_") and name.endswith(".qgk"))
    if not names:
        raise ConfigError(f"no snap_*.qgk snapshots in {run_dir}")
    return [os.path.join(run_dir, name) for name in names]


def _cmd_compare(args) -> int:
    # both runs are listed before either is read: unequal counts exit 1 at once
    run_a, run_b = _snapshot_paths(args.run_a), _snapshot_paths(args.run_b)
    if len(run_a) != len(run_b):
        raise ConfigError(f"--run-a holds {len(run_a)} snapshots and --run-b {len(run_b)}")
    # (t, field) of each snapshot, read as compare_h3 takes it
    states = [((t, field) for field, t in map(read_snapshot, run)) for run in (run_a, run_b)]
    series = diag.compare_h3(*states, args.eta)
    rows = list(zip(series.times, series.z_h3, series.envelope_ratio))
    write_csv(args.out, ["t", "z_h3", "envelope_ratio"], rows, _manifest(args))
    last = series.times[-1]
    sup = f"{series.sup_ratio(1.0):.6e}" if last >= 1.0 else f"no samples (last t = {last:g})"
    print(f"sup envelope ratio (t >= 1): {sup}")
    return 0


def _cmd_stability(args) -> int:
    cfg, manifest = _load(args)
    perturbation, _ = read_on_grid(args.perturb, cfg.grid)
    report = compare_runs(cfg, perturbation)
    rows = list(zip(report.times, report.e_delta, report.delta_h3,
                    report.growth_integral, report.envelope))
    manifest.warnings += (f"fitted_C={report.fitted_c!r}", f"fitted_K={report.fitted_k!r}",
                          f"envelope_margin={report.envelope_margin!r}")
    write_csv(args.out, ["t", "E_delta", "delta_H3", "growth_integral", "envelope"],
              rows, manifest)
    print(f"fitted C={report.fitted_c:.4g} K={report.fitted_k:.4g} "
          f"margin={report.envelope_margin:.4g}")
    return 0


def _cmd_convergence(args) -> int:
    values = parse_config(args.config)
    dts = _list_flag(args, "dts", lambda s: parse_value("dt", s, "--dts"))
    if len(dts) < 2:
        raise ConfigError("convergence needs at least two dt values")
    # every dt is checked before the first run: t_end is rounded to whole steps
    # of it, and the balance residual needs three records
    t_end, every = values["t_end"], values["diagnostics_every"]
    steps = []
    for dt in dts:
        n = whole_steps(t_end, dt)
        if n == 0:
            raise ConfigError(f"out-of-range value for 'dt' (--dts): {dt!r} leaves no whole "
                              f"step in t_end = {t_end!r}")
        if n // every < 2:
            raise ConfigError(f"out-of-range value for 'dt' (--dts): {dt!r} gives only "
                              f"{n // every + 1} of the 3 records the balance residual "
                              f"needs in t_end = {t_end!r} at diagnostics_every = {every}")
        steps.append(n)
    # the datum and forcing are built once; no trial keeps a snapshot
    base, _ = resolve_run_config(values)
    rows = []
    for dt, n in zip(dts, steps):
        cfg = dataclasses.replace(base, dt=dt, t_end=n * dt, snapshot_every=0)
        try:
            last = simulate(cfg).records[-1]
        except SimulationAbort as exc:
            raise SimulationAbort(f"{exc} at t = {exc.t!r} in the dt = {dt!r} trial", exc.t,
                                  exc.last_good, exc.last_good_t) from exc
        rows.append([cfg.dt, last["first_balance_residual"], last["second_balance_residual"]])
    res = np.array([r[1] for r in rows])
    dts_arr = np.array(dts)
    order = np.polyfit(np.log(dts_arr), np.log(np.maximum(res, 1e-300)), 1)[0]
    write_csv(args.out, ["dt", "residual_first", "residual_second"], rows,
              _manifest(args, values))
    print(f"fitted order: {order:.3f}")
    return 0


def _cmd_lp_spectrum(args) -> int:
    if bool(args.snapshot) == bool(args.config):
        raise ConfigError("lp-spectrum needs exactly one of --snapshot or --config")
    if args.snapshot:
        field, _ = read_snapshot(args.snapshot)
        manifest = _manifest(args)
    else:
        cfg, manifest = _load(args)
        field = cfg.initial_state
    partition = lp.dyadic_partition(field.grid)
    rows = lp.block_spectrum(partition, field, args.weight)
    write_csv(args.out, ["j", "l2_of_block", "weighted"], rows, manifest)
    print(f"{len(rows)} dyadic blocks -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# invariants battery


def _invariant_checks(cfg: RunConfig, seed: int):
    """Fast property battery; yields (name, value, tolerance, passed)."""
    grid = cfg.grid
    mt = multiplier_table(grid)
    u = random_band_field(grid, seed + 1, 1.0, 3.0, 1, grid.n // 4)
    v = random_band_field(grid, seed + 2, 1.0, 3.0, 1, grid.n // 4)

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    # Parseval and round trip
    phys = inverse_transform(u)
    cell = grid.dx ** 2
    physical_sq = cell * float(np.sum(phys.samples ** 2))
    yield ("parseval", rel(physical_sq, l2_norm(u) ** 2), 1e-12)
    back = forward_transform(phys)
    yield ("round_trip", l2_norm(SpectralField(grid, back.band - u.band)) / l2_norm(u), 1e-13)
    # multiplier algebra
    ad = apply_multiplier(apply_multiplier(u, mt.a), mt.d)
    yield ("a_then_d_identity", l2_norm(SpectralField(grid, ad.band - u.band)) / l2_norm(u), 1e-14)
    p1 = project_jn(apply_multiplier(u, mt.h), 9.0)
    p2 = apply_multiplier(project_jn(u, 9.0), mt.h)
    yield ("multiplier_projection_commute",
           float(np.max(np.abs(p1.band - p2.band))), 1e-14)
    # divergence-free velocity and transport cancellations
    u1, u2 = bilinear.velocity(u)
    div = divergence(u1, u2)
    yield ("velocity_divergence_free", l2_norm(div) / max(l2_norm(u1), 1e-300), 1e-13)
    scale = bilinear.pairing_scale(u, v)
    yield ("pairing_first", abs(bilinear.pairing_first(u, v)) / scale, 1e-12)
    yield ("pairing_second", abs(bilinear.pairing_second(u, v)) / scale, 1e-12)
    yield ("antisymmetry_residual", bilinear.antisymmetry_residual(u, v), 1e-12)
    # dealiased product versus the constant function
    one = SpectralField(grid, np.zeros(grid.band_shape, complex))
    one.band[0, 0] = 1.0
    prod = dealiased_product(u, one)
    yield ("product_with_one", l2_norm(SpectralField(grid, prod.band - u.band)) / l2_norm(u), 1e-13)
    # Littlewood-Paley
    partition = lp.dyadic_partition(grid)
    unity = partition.lows[-1][mt.keep.astype(bool)]
    yield ("lp_partition_of_unity", float(np.max(np.abs(unity - 1.0))), 1e-12)
    recon = np.zeros(grid.band_shape, complex)
    for j in partition.block_range():
        recon += lp.dyadic_block(partition, u, j).band
    yield ("lp_reconstruction", l2_norm(SpectralField(grid, recon - u.band)) / l2_norm(u), 1e-12)
    bony = lp.paraproduct(partition, u, v).band + lp.paraproduct(partition, v, u).band \
        + lp.remainder(partition, u, v).band
    ref = dealiased_product(u, v)
    yield ("bony_reconstruction",
           l2_norm(SpectralField(grid, bony - ref.band)) / max(l2_norm(ref), 1e-300), 1e-12)
    # single-mode exactness of the stepper
    single = cosine_field(grid, 1, 0, 1.0)
    cfg1 = RunConfig(grid=grid, mu=1.0, t_end=10 * 0.05, dt=0.05,
                     initial_condition=single, diagnostics_every=10)
    result = simulate(cfg1)
    q = (grid.frequency_unit) ** 2
    h = (1.0 + q) * q * q / (1.0 + q + q * q)
    exact = np.exp(-h * cfg1.t_end)
    err = l2_norm(SpectralField(grid, result.final.band - exact * single.band)) / l2_norm(single)
    yield ("single_mode_exactness", err, 1e-12)
    # complete_band copies the k2 = 0 column and the mean of the band block as
    # they are, so this measures c(-k1, 0) = conj c(k1, 0) on that column and
    # a real mean: the only symmetry the block does not hold by construction
    yield ("hermitian_after_run", hermitian_defect(result.final.coeffs), 1e-13)


def _cmd_invariants(args) -> int:
    cfg, manifest = _load(args)
    rows = []
    all_pass = True
    print(f"{'check':36s} {'value':>12s} {'tolerance':>12s}  status")
    for name, value, tol in _invariant_checks(cfg, cfg.seed):
        ok = value <= tol
        all_pass &= ok
        rows.append([name, value, tol, int(ok)])
        print(f"{name:36s} {value:12.3e} {tol:12.1e}  {'PASS' if ok else 'FAIL'}")
    if args.out:
        write_csv(args.out, ["check", "value", "tolerance", "passed"],
                  rows, manifest)
    return 0 if all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
