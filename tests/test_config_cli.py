"""Config parsing, manifests, and the command-line surface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qgk import cli, decay_lab
from qgk import diagnostics as diag
from qgk import littlewood_paley as lp
from qgk.cli import dispatch
from qgk.config import ConfigError, manifest_from_values, parse_config, resolve_run_config
from qgk.snapshots import read_snapshot, write_snapshot
from qgk.grid import GridSpec, multiplier_table
from qgk import evolution
from qgk import spectral as sp
from qgk.evolution import cfl_limit


MINIMAL = """\
grid.n = 64
grid.box_length = 6.2831853
mu = 1.0
dt = 1e-3
t_end = 1.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        values = parse_config(write_cfg(tmp_path, MINIMAL))
        assert values["grid.n"] == 64
        assert values["stepper"] == "if_rk4"
        assert values["forcing.kind"] == "zero"
        assert values["diagnostics_every"] == 10
        assert values["ic.kind"] == "random_band"

    def test_negative_mu_names_key(self, tmp_path):
        bad = MINIMAL.replace("mu = 1.0", "mu = -1")
        with pytest.raises(ConfigError, match="'mu'"):
            parse_config(write_cfg(tmp_path, bad))

    def test_unknown_key_reports_line(self, tmp_path):
        bad = MINIMAL + "turbo = yes\n"
        with pytest.raises(ConfigError, match=r"unknown key 'turbo' \(line 6\)"):
            parse_config(write_cfg(tmp_path, bad))

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(write_cfg(tmp_path, "grid.n = 16\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_cfg(tmp_path, MINIMAL + "mu = 2.0\n"))

    def test_comments_and_blanks(self, tmp_path):
        text = "# header\n\n" + MINIMAL + "seed = 7   # trailing\n"
        values = parse_config(write_cfg(tmp_path, text))
        assert values["seed"] == 7
        assert values["ic.seed"] == 7  # follows the master seed by default

    def test_cfl_warning_recorded(self, tmp_path):
        text = MINIMAL.replace("dt = 1e-3", "dt = 5.0").replace("t_end = 1.0", "t_end = 10.0")
        text += "ic.amplitude = 50.0\nic.band_hi = 8\n"
        values = parse_config(write_cfg(tmp_path, text))
        cfg, warnings = resolve_run_config(values)
        assert any("CFL" in w for w in warnings)


class TestManifest:
    def test_hash_stable_and_sensitive(self, tmp_path):
        values = parse_config(write_cfg(tmp_path, MINIMAL))
        m1 = manifest_from_values("run", values)
        m2 = manifest_from_values("run", dict(values))
        assert m1.config_hash == m2.config_hash
        values2 = dict(values)
        values2["seed"] = 1
        assert manifest_from_values("run", values2).config_hash != m1.config_hash

    def test_lines_carry_config(self, tmp_path):
        values = parse_config(write_cfg(tmp_path, MINIMAL))
        lines = manifest_from_values("run", values, ("careful",)).lines()
        assert any("config_hash=" in ln for ln in lines)
        assert any("qgk-warning careful" in ln for ln in lines)


SMALL_RUN = """\
grid.n = 32
grid.box_length = 6.283185307179586
mu = 1.0
dt = 1e-2
t_end = 0.2
diagnostics_every = 5
snapshot_every = 1
seed = 3
ic.amplitude = 1.0
ic.band_hi = 5
forcing.kind = separable_decaying
forcing.k = 0.5
forcing.eta = 0.75
forcing.band_hi = 5
"""


class TestDispatch:
    def test_no_arguments_usage(self, capsys):
        assert dispatch([]) == 1

    def test_unknown_subcommand(self):
        assert dispatch(["frobnicate"]) == 1

    def test_run_outputs_and_determinism(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert dispatch(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert dispatch(["run", "--config", cfg, "--out", str(out_b)]) == 0
        series_a = (out_a / "series.csv").read_bytes()
        series_b = (out_b / "series.csv").read_bytes()
        assert series_a == series_b
        header = series_a.decode().splitlines()
        assert any(ln.startswith("# qgk-manifest") for ln in header)
        cols = [ln for ln in header if not ln.startswith("#")][0]
        assert cols.startswith("t,X,Y,E_first,E_second,E_sigma_1,H3,H4,")
        assert (out_a / "final.qgk").exists()
        assert (out_a / "final.qgk.manifest.txt").exists()
        assert (out_a / "snap_000000.qgk").exists()

    def test_inviscid_warning_written_once(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("mu = 1.0", "mu = 0.0"))
        out = tmp_path / "inviscid"
        assert dispatch(["run", "--config", cfg, "--out", str(out)]) == 0
        header = [ln for ln in (out / "series.csv").read_text().splitlines()
                  if ln.startswith("# qgk-warning")]
        assert sum("inviscid" in ln for ln in header) == 1

    def test_initial_cfl_evaluated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(y, grid):
            calls.append(y)
            return cfl_limit(y, grid)

        monkeypatch.setattr(evolution, "cfl_limit", counting)
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("t_end = 0.2", "t_end = 0.23"))
        assert dispatch(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        # 23 steps recorded every 5: the t = 0 state and 4 records
        assert len(calls) == 5

    def test_linear_and_compare_pipeline(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        run_dir = tmp_path / "nl"
        lin_dir = tmp_path / "lin"
        assert dispatch(["run", "--config", cfg, "--out", str(run_dir)]) == 0
        assert dispatch(["linear", "--config", cfg, "--out", str(lin_dir)]) == 0
        out_csv = tmp_path / "compare.csv"
        code = dispatch(["compare", "--run-a", str(run_dir), "--run-b", str(lin_dir),
                         "--eta", "0.75", "--out", str(out_csv)])
        assert code == 0
        lines = [ln for ln in out_csv.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "t,z_h3,envelope_ratio"
        assert len(lines) > 3

    def test_linear_rejects_uneven_times_before_any_work(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "lin"

        def no_work(*args):
            raise AssertionError("linear_evolve called")

        with monkeypatch.context() as m:
            m.setattr(evolution, "linear_evolve", no_work)
            code = dispatch(["linear", "--config", cfg, "--out", str(out),
                             "--times", "0,0.1,0.5"])
        assert code == 1
        assert "uniform diagnostics cadence" in capsys.readouterr().err
        assert not out.exists()
        # the default cadence, spelled out as a list, writes the same series
        assert dispatch(["linear", "--config", cfg, "--out", str(tmp_path / "default")]) == 0
        times = ",".join(repr(i * 0.05) for i in range(5))
        assert dispatch(["linear", "--config", cfg, "--out", str(out), "--times", times]) == 0
        assert ((out / "series.csv").read_bytes()
                == (tmp_path / "default" / "series.csv").read_bytes())

    def test_linear_galerkin_states_vanish_outside_cut(self, tmp_path):
        # the forcing band (|k| <= 5) reaches past the cut |xi|^2 <= 12
        cfg = write_cfg(tmp_path, SMALL_RUN + "galerkin_cut = 12.0\n")
        out = tmp_path / "lin"
        assert dispatch(["linear", "--config", cfg, "--out", str(out)]) == 0
        snaps = sorted(out.glob("snap_*.qgk"))
        assert len(snaps) == 5
        for path in snaps:
            field, _ = read_snapshot(str(path))
            outside = multiplier_table(field.grid).q > 12.0
            assert np.all(field.band[outside] == 0.0)
            assert np.any(field.band[~outside] != 0.0)

    def test_compare_reads_one_pair_at_a_time(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        run_dir, lin_dir = tmp_path / "nl", tmp_path / "lin"
        assert dispatch(["run", "--config", cfg, "--out", str(run_dir)]) == 0
        assert dispatch(["linear", "--config", cfg, "--out", str(lin_dir)]) == 0
        reads, compared = [], []

        def reading(path):
            reads.append(os.path.basename(os.path.dirname(path)))
            return read_snapshot(path)

        def contracting(y, grid, *args, **kwargs):
            compared.append(len(reads))
            return quadratic_forms(y, grid, *args, **kwargs)

        quadratic_forms = diag.quadratic_forms
        monkeypatch.setattr(cli, "read_snapshot", reading)
        monkeypatch.setattr(diag, "quadratic_forms", contracting)
        out = tmp_path / "compare.csv"
        assert dispatch(["compare", "--run-a", str(run_dir), "--run-b", str(lin_dir),
                         "--eta", "0.75", "--out", str(out)]) == 0
        # each pair is compared as soon as it is read: no run is read ahead
        assert reads == ["nl", "lin"] * 5
        assert compared == [2, 4, 6, 8, 10]

    def test_decay_csv_and_summary(self, tmp_path):
        out = tmp_path / "decay.csv"
        code = dispatch(["decay", "--profile", "gaussian:1.0", "--mu", "1.0",
                         "--moments", "0,1,3", "--window", "1e2,1e5",
                         "--samples", "12", "--out", str(out)])
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "t,M0,M1,M3,env0,env1,env3"
        assert len(lines) == 1 + 12 and all(len(ln.split(",")) == 7 for ln in lines)
        summary = json.loads((tmp_path / "decay.csv.summary.json").read_text())
        assert summary["M0"]["slope"] == pytest.approx(-0.5, abs=0.05)

    def test_missing_output_directory_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        missing = tmp_path / "nodir"
        run = str(tmp_path / "run")

        def no_work(*args, **kwargs):
            raise AssertionError("compute started before the output directory was checked")

        # each command with the function that does its compute
        commands = [
            (["decay", "--window", "1e2,1e3", "--samples", "8"], decay_lab, "decay_series"),
            (["invariants", "--config", cfg], cli, "_invariant_checks"),
            (["stability", "--config", cfg, "--perturb", str(tmp_path / "p.qgk")],
             cli, "compare_runs"),
            (["compare", "--run-a", run, "--run-b", run, "--eta", "0.5"], diag, "compare_h3"),
            (["convergence", "--config", cfg, "--dts", "2e-3,1e-3"], cli, "simulate"),
            (["lp-spectrum", "--config", cfg], lp, "dyadic_partition"),
        ]
        for argv, module, compute in commands:
            target = missing / "x.csv"
            with monkeypatch.context() as m:
                m.setattr(module, compute, no_work)
                assert dispatch(argv + ["--out", str(target)]) == 1
            err = capsys.readouterr().err
            assert f"cannot write {target}: no directory {missing}" in err
            assert ".tmp" not in err
        assert not missing.exists()

    def test_stability_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        g = GridSpec(32, 6.283185307179586)
        pert = sp.random_band_field(g, 99, 1e-6, 3.0, 1, 5)
        pert_path = tmp_path / "pert.qgk"
        write_snapshot(pert_path, pert, 0.0)
        out = tmp_path / "stability.csv"
        code = dispatch(["stability", "--config", cfg, "--perturb", str(pert_path),
                         "--out", str(out)])
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "t,E_delta,delta_H3,growth_integral,envelope"

    def test_invariants_subcommand_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "inv.csv"
        code = dispatch(["invariants", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in captured
        assert "pairing_first" in captured

    def test_hermitian_after_run_fails_on_an_asymmetric_k2_zero_column(self, tmp_path,
                                                                        monkeypatch, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        simulate = cli.simulate

        def asymmetric(run_cfg):
            result = simulate(run_cfg)
            # c(-1, 0) no longer the conjugate of c(1, 0)
            result.final.band[1, 0] += 1e-3
            return result

        monkeypatch.setattr(cli, "simulate", asymmetric)
        assert dispatch(["invariants", "--config", cfg]) == 1
        rows = {line.split()[0]: line.split()[-1]
                for line in capsys.readouterr().out.splitlines()[1:]}
        assert rows["hermitian_after_run"] == "FAIL"
        assert rows["pairing_first"] == "PASS"

    def test_convergence_subcommand(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "conv.csv"
        code = dispatch(["convergence", "--config", cfg,
                         "--dts", "4e-3,2e-3,1e-3", "--out", str(out)])
        assert code == 0
        order = float(capsys.readouterr().out.strip().split()[-1])
        assert order >= 3.5

    def test_lp_spectrum_from_snapshot(self, tmp_path):
        g = GridSpec(32, 2 * np.pi)
        u = sp.random_band_field(g, 5, 1.0, 3.0, 1, 9)
        snap = tmp_path / "u.qgk"
        write_snapshot(snap, u, 0.0)
        out = tmp_path / "lp.csv"
        code = dispatch(["lp-spectrum", "--snapshot", str(snap), "--weight", "2.0",
                         "--out", str(out)])
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "j,l2_of_block,weighted"
        assert lines[1].startswith("-1,")

    def test_ic_file_prepares_the_snapshot_bitwise(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert dispatch(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        final = tmp_path / "a" / "final.qgk"
        restart = write_cfg(tmp_path, SMALL_RUN + f"ic.kind = file\nic.file = {final}\n",
                            "restart.cfg")
        run_cfg, _ = resolve_run_config(parse_config(restart))
        saved, _ = read_snapshot(final)
        assert run_cfg.initial_state.coeffs.tobytes() == saved.coeffs.tobytes()

    @pytest.mark.parametrize("t0, warned", [(0.0, False), (2.5, True)])
    def test_forced_run_from_a_later_snapshot_warns(self, tmp_path, capsys, t0, warned):
        g = GridSpec(32, 6.283185307179586)
        snap = tmp_path / "state.qgk"
        write_snapshot(snap, sp.random_band_field(g, 7, 0.5, 3.0, 1, 5), t0)
        cfg = write_cfg(tmp_path, SMALL_RUN + f"ic.kind = file\nic.file = {snap}\n")
        assert dispatch(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        warning = "holds the state at t = 2.5, but the run starts at t = 0 and applies " \
                  "the forcing f(0), not f(2.5)"
        assert (f"warning: ic.file {warning}" in capsys.readouterr().err) == warned
        series = (tmp_path / "r" / "series.csv").read_text()
        assert (f"qgk-warning ic.file {warning}" in series) == warned

    def test_snapshot_grid_mismatch_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        for grid in (GridSpec(16, 6.283185307179586), GridSpec(32, 6.0)):
            path = tmp_path / "other.qgk"
            write_snapshot(path, sp.random_band_field(grid, 5, 1e-3, 3.0, 1, 3), 0.0)
            restart = write_cfg(tmp_path, SMALL_RUN + f"ic.kind = file\nic.file = {path}\n",
                                "restart.cfg")
            assert dispatch(["run", "--config", restart, "--out", str(tmp_path / "r")]) == 1
            assert dispatch(["stability", "--config", cfg, "--perturb", str(path),
                             "--out", str(tmp_path / "s.csv")]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and all("does not match the config grid" in ln for ln in err)
        assert not (tmp_path / "r").exists() and not (tmp_path / "s.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = write_cfg(tmp_path, MINIMAL.replace("mu = 1.0", "mu = -3"))
        assert dispatch(["run", "--config", bad, "--out", str(tmp_path / "x")]) == 1

    def test_numerical_abort_exit_code(self, tmp_path):
        text = """\
grid.n = 32
grid.box_length = 6.283185307179586
mu = 0.0
dt = 0.5
t_end = 50.0
ic.amplitude = 200.0
ic.band_hi = 10
"""
        cfg = write_cfg(tmp_path, text)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert dispatch(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
            run_cfg, _ = resolve_run_config(parse_config(cfg))
            r, t = run_cfg.initial_state, 0.0
            while True:   # the state just before the step that blows up
                try:
                    r, t = evolution.step(r, t, run_cfg), t + run_cfg.dt
                except evolution.SimulationAbort:
                    break
        saved, t_saved = read_snapshot(tmp_path / "x" / "abort.qgk")
        assert t_saved == t > 0.0
        assert np.array_equal(saved.coeffs, r.coeffs)
        reason = (tmp_path / "x" / "abort.txt").read_text().splitlines()
        assert reason == [f"non-finite state after step at t = {t + run_cfg.dt!r}; "
                          f"last good state at t = {t!r} in abort.qgk"]
        assert sorted(p.name for p in (tmp_path / "x").iterdir()) == [
            "abort.qgk", "abort.qgk.manifest.txt", "abort.txt"]


IMPORT_HYGIENE = """\
import sys
sys.modules["scipy"] = None   # any scipy import now raises ImportError
from qgk.cli import main
from qgk.grid import GridSpec
from qgk.snapshots import write_snapshot
from qgk.spectral import random_band_field

cfg, out = sys.argv[1], sys.argv[2]
write_snapshot(out + "/pert.qgk", random_band_field(GridSpec(32, 6.283185307179586), 3, 1e-3), 0.0)
codes = [
    main(["run", "--config", cfg, "--out", out + "/run"]),
    main(["linear", "--config", cfg, "--out", out + "/lin"]),
    main(["stability", "--config", cfg, "--perturb", out + "/pert.qgk", "--out", out + "/s.csv"]),
    main(["compare", "--run-a", out + "/run", "--run-b", out + "/lin", "--eta", "0.2",
          "--out", out + "/c.csv"]),
    main(["decay", "--window", "1e2,1e3", "--samples", "8", "--duhamel-eta", "0.75",
          "--out", out + "/d.csv"]),
    main(["invariants", "--config", cfg]),
]
print("codes", codes)
"""


def test_run_path_imports_no_scipy(tmp_path):
    """Every qgk command needs numpy only: each runs with scipy blocked."""
    cfg = write_cfg(tmp_path, """\
grid.n = 32
grid.box_length = 6.283185307179586
mu = 1.0
dt = 1e-2
t_end = 0.1
diagnostics_every = 5
snapshot_every = 1
forcing.kind = separable_decaying
""")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, QGK_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE, cfg, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "codes [0, 0, 0, 0, 0, 0]" in lines
