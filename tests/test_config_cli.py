"""Config parsing, manifests, and the command-line surface."""

import gc
import hashlib
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from qgk import cli, decay_lab
from qgk import diagnostics as diag
from qgk import littlewood_paley as lp
from qgk.cli import dispatch
from qgk import config
from qgk.config import (ConfigError, build_initial_condition, manifest_from_values,
                        parse_config, resolve_run_config)
from qgk.snapshots import read_snapshot, write_snapshot
from qgk.grid import GridSpec, SpectralField, multiplier_table
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


def data_rows(lines):
    """The lines of a qgk CSV that are not manifest comments."""
    return [ln for ln in lines if not ln.startswith("#")]


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
        # the CFL bound is the stepper's warning, not the config's
        assert warnings == []
        assert any("CFL" in w for w in evolution.start_warnings(cfg))

    @pytest.mark.parametrize("lines, build", [
        ("ic.kind = cosine\nic.mode_kx = 2\nic.mode_ky = -1\nic.amplitude = 0.7\n",
         lambda g: sp.cosine_field(g, 2, -1, 0.7)),
        ("ic.kind = random_exponential\nic.seed = 7\nic.amplitude = 1.3\nic.decay = 0.4\n"
         "ic.s = 2.0\n", lambda g: sp.random_exponential_field(g, 7, 1.3, 0.4, 2.0)),
    ])
    def test_ic_kind_resolves_to_its_constructor_bitwise(self, tmp_path, lines, build):
        cfg, _ = resolve_run_config(parse_config(write_cfg(tmp_path, MINIMAL + lines)))
        assert cfg.initial_condition.band.tobytes() == build(cfg.grid).band.tobytes()


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
        assert capsys.readouterr().err.endswith(
            "qgk: error: the following arguments are required: command\n")
        for flag in ("--version", "-h"):
            assert dispatch([flag]) == 0

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

    @pytest.mark.parametrize("command, out, csv, steps", [
        ("run", "r", "r/series.csv", True),
        ("stability", "s.csv", "s.csv", True),
        ("linear", "l", "l/series.csv", False),
        ("invariants", "i.csv", "i.csv", False),
        ("lp-spectrum", "lp.csv", "lp.csv", False),
    ])
    def test_inviscid_warning_written_once(self, tmp_path, capsys, command, out, csv, steps):
        # mu = 0 is a warning about stepping: only the commands that step record it
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("mu = 1.0", "mu = 0.0"))
        pert = tmp_path / "pert.qgk"
        write_snapshot(pert, sp.random_band_field(GridSpec(32, 6.283185307179586), 99, 1e-6,
                                                  3.0, 1, 5), 0.0)
        extra = ["--perturb", str(pert)] if command == "stability" else []
        capsys.readouterr()
        assert dispatch([command, "--config", cfg, *extra, "--out", str(tmp_path / out)]) == 0
        header = [ln for ln in (tmp_path / csv).read_text().splitlines()
                  if ln.startswith("# qgk-warning")]
        assert sum("inviscid" in ln for ln in header) == steps
        if not steps:
            assert header == []
        # each recorded warning is printed once; stability's fitted constants are not warnings
        warned = [ln.replace("# qgk-warning ", "warning: ", 1) for ln in header
                  if not ln.startswith(("# qgk-warning fitted_", "# qgk-warning envelope_"))]
        assert capsys.readouterr().err.splitlines() == warned
        assert len(warned) == steps

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

    def test_compare_before_t1_says_no_samples(self, tmp_path, capsys):
        # the runs end at t = 0.2: no envelope ratio is sampled at t >= 1
        cfg = write_cfg(tmp_path, SMALL_RUN)
        run_dir, lin_dir = tmp_path / "nl", tmp_path / "lin"
        assert dispatch(["run", "--config", cfg, "--out", str(run_dir)]) == 0
        assert dispatch(["linear", "--config", cfg, "--out", str(lin_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "compare.csv"
        assert dispatch(["compare", "--run-a", str(run_dir), "--run-b", str(lin_dir),
                         "--eta", "0.75", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "sup envelope ratio (t >= 1): no samples (last t = 0.2)\n")
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 6 and "nan" not in rows[-1]

    def test_compare_sup_ratio_is_the_csv_maximum_from_t1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("t_end = 0.2", "t_end = 1.2"))
        run_dir, lin_dir = tmp_path / "nl", tmp_path / "lin"
        assert dispatch(["run", "--config", cfg, "--out", str(run_dir)]) == 0
        assert dispatch(["linear", "--config", cfg, "--out", str(lin_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "compare.csv"
        assert dispatch(["compare", "--run-a", str(run_dir), "--run-b", str(lin_dir),
                         "--eta", "0.75", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "t,z_h3,envelope_ratio"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        late = [ratio for t, _, ratio in rows if t >= 1.0]
        assert len(late) == 5 and all(np.isfinite(late))
        assert capsys.readouterr().out == f"sup envelope ratio (t >= 1): {max(late):.6e}\n"

    def test_every_flag_but_out_is_in_the_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        grid = GridSpec(32, 6.283185307179586)
        perturbations = []
        for seed in (98, 99):
            path = tmp_path / f"pert{seed}.qgk"
            write_snapshot(path, sp.random_band_field(grid, seed, 1e-6, 3.0, 1, 5), 0.0)
            perturbations.append(str(path))
        # each command with its flag and two values of it that change the output
        cases = [("linear", "--times", "0,0.1", "0,0.05,0.1"),
                 ("stability", "--perturb", *perturbations),
                 ("convergence", "--dts", "2e-2,1e-2", "1e-2,5e-3"),
                 ("lp-spectrum", "--weight", "0", "2")]
        for command, flag, first, second in cases:
            texts = []
            for k, value in enumerate((first, first, second)):
                out = tmp_path / f"{command}{k}"
                assert dispatch([command, "--config", cfg, flag, value, "--out", str(out)]) == 0
                texts.append((out / "series.csv" if out.is_dir() else out).read_bytes())
            # a repeated invocation writes the same bytes, whatever its --out
            assert texts[0] == texts[1]
            # the other value is recorded under the flag's name, and changes the hash
            manifests = [[ln for ln in text.decode().splitlines()
                          if ln.startswith(("# qgk-manifest ", "# qgk-config "))]
                         for text in texts[1:]]
            differ = [a.split("=")[0] for a, b in zip(*manifests, strict=True) if a != b]
            # a file flag's digest changes with it
            digest = [f"# qgk-config {flag[2:]}_sha256"] if flag == "--perturb" else []
            assert differ == ["# qgk-manifest config_hash", f"# qgk-config {flag[2:]}",
                              *digest], command

    @pytest.mark.parametrize("command", ["stability", "lp-spectrum", "run"])
    def test_file_input_is_named_by_its_bytes(self, tmp_path, command):
        # --perturb, --snapshot and ic.file: the same path holding another
        # snapshot gives another digest and another hash, the same bytes the same
        grid = GridSpec(32, 6.283185307179586)
        path = tmp_path / "input.qgk"
        cfg = write_cfg(tmp_path, SMALL_RUN)
        argv, name = {
            "stability": (["--config", cfg, "--perturb", str(path)], "perturb"),
            "lp-spectrum": (["--snapshot", str(path)], "snapshot"),
            "run": (["--config", write_cfg(tmp_path, SMALL_RUN + f"ic.kind = file\n"
                                                      f"ic.file = {path}\n", "file.cfg")],
                    "ic.file"),
        }[command]
        manifests = []
        for k, seed in enumerate((98, 99, 98)):
            write_snapshot(path, sp.random_band_field(grid, seed, 1e-3, 3.0, 1, 5), 0.0)
            out = tmp_path / f"out{k}"
            assert dispatch([command, *argv, "--out", str(out)]) == 0
            text = (out / "series.csv" if out.is_dir() else out).read_text()
            manifests.append([ln for ln in text.splitlines()
                              if ln.startswith(("# qgk-manifest ", "# qgk-config "))])
        digests = [[ln for ln in m if ln.startswith(f"# qgk-config {name}_sha256=")]
                   for m in manifests]
        expected = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        assert digests[2] == [f"# qgk-config {name}_sha256='{expected}'"]
        assert manifests[0] == manifests[2]
        differ = [a.split("=")[0] for a, b in zip(*manifests[:2], strict=True) if a != b]
        assert differ == ["# qgk-manifest config_hash", f"# qgk-config {name}_sha256"]

    def test_linear_rejects_uneven_times_before_any_work(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "lin"

        def no_work(*args):
            raise AssertionError("LinearFlow.at called")

        with monkeypatch.context() as m:
            m.setattr(evolution.LinearFlow, "at", no_work)
            code = dispatch(["linear", "--config", cfg, "--out", str(out),
                             "--times", "0,0.1,0.5"])
        assert code == 1
        assert "uniform diagnostics cadence" in capsys.readouterr().err
        assert not out.exists()
        # the default cadence, spelled out as a list, writes the same rows under
        # a manifest that differs only in its times item and its hash
        assert dispatch(["linear", "--config", cfg, "--out", str(tmp_path / "default")]) == 0
        times = ",".join(repr(i * 5 * 0.01) for i in range(5))
        assert dispatch(["linear", "--config", cfg, "--out", str(out), "--times", times]) == 0
        spelled, default = ((path / "series.csv").read_text().splitlines()
                            for path in (out, tmp_path / "default"))
        assert len(spelled) == len(default) and data_rows(spelled) == data_rows(default)
        differ = [(a, b) for a, b in zip(spelled, default) if a != b]
        assert [a.split("=")[0] for a, _ in differ] == [
            "# qgk-manifest config_hash", "# qgk-config times"]
        assert differ[1] == (f"# qgk-config times={times!r}", "# qgk-config times=''")

    @pytest.mark.parametrize("times, error", [
        *[(t, "must be finite and nonnegative") for t in ("-0.1,0,0.1", "0,inf", "0,nan")],
        (",", "holds no value"),
        # three equal times have no cadence
        ("0.1,0.1", "repeats 0.1"), ("0.1,0.1,0.1", "repeats 0.1"),
    ])
    def test_linear_rejects_empty_negative_or_non_finite_times_before_any_work(
            self, tmp_path, capsys, times, error):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "lin"
        assert dispatch(["linear", "--config", cfg, "--out", str(out), f"--times={times}"]) == 1
        assert f"qgk: error: --times {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, text", [
        ("t_end", "inf"), ("ic.decay", "inf"), ("mu", "inf"), ("ic.amplitude", "inf"),
        ("forcing.k", "inf"), ("ic.s", "nan"), ("diag.sigma", "nan"), ("diag.sigma", "1,inf"),
        ("galerkin_cut", "inf"), ("dt", "1e400"),
    ])
    def test_non_finite_value_exits_1_naming_key_and_line(self, tmp_path, capsys, key, text):
        lines = [ln for ln in (SMALL_RUN + "ic.kind = random_exponential\n").splitlines()
                 if ln.partition("=")[0].strip() != key] + [f"{key} = {text}"]
        cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert dispatch(["run", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"qgk: error: bad value for '{key}' (line {len(lines)}): " in err
        assert "not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "linear"])
    def test_colliding_sigma_labels_exit_1_before_any_work(self, tmp_path, capsys, command):
        # 1 and 1.0000001 both print as E_sigma_1
        cfg = write_cfg(tmp_path, SMALL_RUN + "diag.sigma = 1,1.0000001\n")
        out = tmp_path / command
        assert dispatch([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "qgk: error: diag.sigma = 1.0, 1.0000001 names the column E_sigma_1 " \
               "more than once" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "linear"])
    def test_overflowing_step_count_exits_1_before_any_work(self, tmp_path, capsys, command):
        text = SMALL_RUN.replace("dt = 1e-2", "dt = 1e-10").replace("t_end = 0.2", "t_end = 1e300")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / command
        assert dispatch([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "qgk: error: t_end / dt = 1e+300 / 1e-10 overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "linear"])
    def test_uneven_step_count_exits_1_before_any_work(self, tmp_path, capsys, command):
        text = SMALL_RUN.replace("dt = 1e-2", "dt = 0.3").replace("t_end = 0.2", "t_end = 1.0")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / command
        assert dispatch([command, "--config", cfg, "--out", str(out)]) == 1
        assert "qgk: error: t_end must be an integer number of steps" in capsys.readouterr().err
        assert not out.exists()

    def test_commands_that_never_step_take_an_overflowing_step_count(self, tmp_path):
        text = SMALL_RUN.replace("dt = 1e-2", "dt = 1e-10").replace("t_end = 0.2", "t_end = 1e300")
        cfg = write_cfg(tmp_path, text)
        assert dispatch(["invariants", "--config", cfg]) == 0
        assert dispatch(["lp-spectrum", "--config", cfg, "--out", str(tmp_path / "lp.csv")]) == 0

    @pytest.mark.parametrize("dts, message", [
        ("0,0.1", "out-of-range value for 'dt' (--dts): 0"),
        ("1e-320,0.1", "t_end / dt = 0.2 / 1e-320 overflows"),
        ("0.1,inf", "bad value for 'dt' (--dts): 'inf' is not a finite number"),
        ("1,0.1", "out-of-range value for 'dt' (--dts): 1.0 leaves no whole step in "
                  "t_end = 0.2"),
        # a trial with fewer than three records has no balance residual to fit
        ("0.01,0.05", "out-of-range value for 'dt' (--dts): 0.05 gives only 1 of the 3 "
                      "records the balance residual needs in t_end = 0.2 at "
                      "diagnostics_every = 5"),
        ("0.04,0.01", "out-of-range value for 'dt' (--dts): 0.04 gives only 2 of the 3 "
                      "records"),
        # two equal steps leave the fitted order undetermined
        ("0.01,0.01", "--dts repeats 0.01"),
    ])
    def test_convergence_rejects_each_bad_dt_before_any_run(self, tmp_path, monkeypatch,
                                                            capsys, dts, message):
        def no_run(*args):
            raise AssertionError("simulate called")

        monkeypatch.setattr(cli, "simulate", no_run)
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = tmp_path / "conv.csv"
        assert dispatch(["convergence", "--config", cfg, "--dts", dts, "--out", str(out)]) == 1
        assert f"qgk: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_series_csv_reads_back_bitwise_as_the_records(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_RUN + "diag.sigma = 0.5,1,2.5\n")
        run_cfg, _ = resolve_run_config(parse_config(cfg_path))
        run_records = evolution.simulate(run_cfg).records
        _, linear_records = evolution.linear_series(run_cfg, run_records["t"].tolist())
        for command, records in (("run", run_records), ("linear", linear_records)):
            out = tmp_path / command
            assert dispatch([command, "--config", cfg_path, "--out", str(out)]) == 0
            lines = [ln for ln in (out / "series.csv").read_text().splitlines()
                     if not ln.startswith("#")]
            assert tuple(lines[0].split(",")) == records.dtype.names
            assert "E_sigma_0.5" in records.dtype.names
            rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
            assert np.array(rows).tobytes() == np.array(records.tolist()).tobytes()

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

    def test_compare_reads_one_pair_at_a_time(self, tmp_path, monkeypatch, capsys):
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
        # both runs are listed before either is read: unequal counts exit 1 at once
        (lin_dir / "snap_000004.qgk").unlink()
        reads.clear()
        capsys.readouterr()
        short = tmp_path / "short.csv"
        assert dispatch(["compare", "--run-a", str(run_dir), "--run-b", str(lin_dir),
                         "--eta", "0.75", "--out", str(short)]) == 1
        assert capsys.readouterr().err == (
            "qgk: error: --run-a holds 5 snapshots and --run-b 4\n")
        assert reads == [] and not short.exists()

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

    # the other flags each command needs; no file they name exists
    FLAG_BASES = {"decay": ["--window", "1e2,1e3", "--samples", "8", "--duhamel-eta", "0.75"],
                  "compare": ["--run-a", "nl", "--run-b", "lin", "--eta", "0.75"],
                  "lp-spectrum": ["--snapshot", "u.qgk"]}

    # error is what the message says after the flag
    @pytest.mark.parametrize("command, flag, value, error", [
        *[(command, flag, value, f"must be finite, not {shown}")
          for command, flag, value, shown in [
              ("decay", "--mu", "inf", "inf"), ("decay", "--mu", "nan", "nan"),
              ("decay", "--window", "1,inf", "inf"), ("decay", "--window", "nan,1e3", "nan"),
              ("decay", "--duhamel-eta", "nan", "nan"), ("decay", "--duhamel-eta", "inf", "inf"),
              ("decay", "--duhamel-k", "inf", "inf"), ("decay", "--duhamel-k", "nan", "nan"),
              ("compare", "--eta", "nan", "nan"), ("compare", "--eta", "inf", "inf"),
              ("lp-spectrum", "--weight", "nan", "nan"),
              ("lp-spectrum", "--weight", "-inf", "-inf")]],
        ("decay", "--moments", ",", "holds no value"),
        # a repeated moment would name two columns M0
        ("decay", "--moments", "0,0", "repeats 0"),
        ("decay", "--window", "1e2", "needs 2 values, not 1"),
        ("decay", "--window", "1,2,3", "needs 2 values, not 3"),
    ])
    def test_bad_flag_value_exits_1_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                    command, flag, value, error):
        for module, name in ((decay_lab, "decay_series"), (diag, "compare_h3"),
                             (lp, "block_spectrum")):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("ran"))
        out = tmp_path / "out.csv"
        argv = [command, *self.FLAG_BASES[command], f"{flag}={value}", "--out", str(out)]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"qgk: error: {flag} {error}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("profile", ["gaussian:inf", "compact_indicator:inf",
                                         "gaussian:-inf", "compact_indicator:nan"])
    def test_decay_rejects_a_non_finite_profile_parameter(self, tmp_path, capsys, profile):
        out = tmp_path / "decay.csv"
        assert dispatch(["decay", f"--profile={profile}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"qgk: error: radial profile '{profile}' needs a finite parameter\n"
        assert list(tmp_path.iterdir()) == []

    # every numpy warning fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("profile, extra, reason", [
        ("gaussian:1e300", [], "moment_integral returned a non-finite value"),
        ("gaussian:1e150", [], "moment_integral returned a non-finite value"),
        ("compact_indicator:1e300", [], "moment_integral returned a non-finite value"),
        # the free moments are finite; the Duhamel rates mu h(rho) are not
        ("gaussian:1.0", ["--mu", "1e307", "--moments", "0", "--window", "1e-3,1e-2",
                          "--duhamel-eta", "0.75"],
         "duhamel_moment rates mu h(rho) overflow on the profile's support"),
    ])
    def test_decay_on_an_overflowing_profile_is_a_numerical_abort(self, tmp_path, capsys,
                                                                  profile, extra, reason):
        out = tmp_path / "decay.csv"
        argv = ["decay", f"--profile={profile}", "--window", "1e2,1e3", "--samples", "8",
                *extra, "--out", str(out)]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"qgk: numerical abort: {reason}\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_run_out_naming_a_file_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert dispatch(["run", "--config", cfg, "--out", str(taken)]) == 1
        assert f"qgk: error: [Errno 17] File exists: '{taken}'" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    def test_linear_out_below_a_file_exits_before_any_work(self, tmp_path, monkeypatch,
                                                           capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")

        def no_work(*args):
            raise AssertionError("linear_series called before the output directory was made")

        monkeypatch.setattr(cli, "linear_series", no_work)
        assert dispatch(["linear", "--config", cfg, "--out", str(taken / "sub")]) == 1
        assert "qgk: error: [Errno 20] Not a directory" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    def test_linear_times_are_the_run_record_times(self, tmp_path):
        # dt = 1e-2 recorded every 5 steps: 3 * (5 * dt) is 0.15000000000000002,
        # the run records at (3 * 5) * dt = 0.15
        cfg = write_cfg(tmp_path, SMALL_RUN)
        columns = []
        for command in ("run", "linear"):
            out = tmp_path / command
            assert dispatch([command, "--config", cfg, "--out", str(out)]) == 0
            rows = [ln for ln in (out / "series.csv").read_text().splitlines()
                    if not ln.startswith("#")][1:]
            columns.append([row.split(",")[0] for row in rows])
        assert columns[0] == columns[1] == ["0.0", "0.05", "0.1", "0.15", "0.2"]

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

    @pytest.mark.parametrize("command", ["run", "linear"])
    @pytest.mark.parametrize("t0, warned", [(0.0, False), (2.5, True)])
    def test_forced_run_from_a_later_snapshot_warns(self, tmp_path, capsys, command, t0,
                                                    warned):
        g = GridSpec(32, 6.283185307179586)
        snap = tmp_path / "state.qgk"
        write_snapshot(snap, sp.random_band_field(g, 7, 0.5, 3.0, 1, 5), t0)
        cfg = write_cfg(tmp_path, SMALL_RUN + f"ic.kind = file\nic.file = {snap}\n")
        assert dispatch([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 0
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert dispatch(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
            run_cfg, _ = resolve_run_config(parse_config(cfg))
            r, t = run_cfg.initial_state.band, 0.0
            while True:   # the state just before the step that blows up
                try:
                    r, t = evolution.step(r, t, run_cfg), t + run_cfg.dt
                except evolution.SimulationAbort:
                    break
        saved, t_saved = read_snapshot(tmp_path / "x" / "abort.qgk")
        assert t_saved == t > 0.0
        assert np.array_equal(saved.coeffs, SpectralField(run_cfg.grid, r).coeffs)
        reason = (tmp_path / "x" / "abort.txt").read_text().splitlines()
        assert reason == [f"non-finite state after step at t = {t + run_cfg.dt!r}; "
                          f"last good state at t = {t!r} in abort.qgk"]
        assert sorted(p.name for p in (tmp_path / "x").iterdir()) == [
            "abort.qgk", "abort.qgk.manifest.txt", "abort.txt"]


class TestStreamedOutputs:
    """qgk run and qgk linear write each state as soon as it is made and
    hold none of them."""

    @staticmethod
    def traced_peak(argv) -> int:
        """Peak traced memory of dispatch(argv), with the cyclic collector
        off: a full collection empties the interpreter's free lists, whose
        refilling would otherwise show as growth whenever one runs."""
        gc.disable()
        tracemalloc.start()
        try:
            assert dispatch(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    @pytest.mark.parametrize("command", ["run", "linear"])
    def test_peak_memory_does_not_grow_with_the_state_count(self, tmp_path, command):
        # every step recorded and snapshotted: 9 states against 81
        text = SMALL_RUN.replace("grid.n = 32", "grid.n = 64").replace(
            "diagnostics_every = 5", "diagnostics_every = 1")
        configs = {count: write_cfg(tmp_path, text.replace(
            "t_end = 0.2", f"t_end = {(count - 1) * 1e-2!r}"), f"states{count}.cfg")
            for count in (9, 81)}
        # an untraced first run builds the grid's tables and caches and fills the
        # interpreter's free lists as far as the longer run does
        assert dispatch([command, "--config", configs[81], "--out", str(tmp_path / "warm")]) == 0
        peaks = {}
        for count, cfg in configs.items():
            out = tmp_path / f"out{count}"
            peaks[count] = self.traced_peak([command, "--config", cfg, "--out", str(out)])
            assert len(list(out.glob("snap_*.qgk"))) == count
        band_block = 64 * 32 * 16
        assert peaks[81] - peaks[9] < 4 * band_block

    def test_abort_keeps_the_snapshots_already_written(self, tmp_path):
        text = """\
grid.n = 32
grid.box_length = 6.283185307179586
mu = 0.0
dt = 0.5
t_end = 50.0
ic.amplitude = 200.0
ic.band_hi = 10
diagnostics_every = 1
snapshot_every = 1
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert dispatch(["run", "--config", cfg, "--out", str(out)]) == 2
            run_cfg, _ = resolve_run_config(parse_config(cfg))
            states = [run_cfg.initial_state.band]
            while True:   # every state before the step that blows up
                try:
                    states.append(evolution.step(states[-1], (len(states) - 1) * run_cfg.dt,
                                                 run_cfg))
                except evolution.SimulationAbort:
                    break
        assert len(states) > 1
        snaps = [f"snap_{k:06d}.qgk" for k in range(len(states))]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["abort.qgk", "abort.qgk.manifest.txt", "abort.txt",
             *snaps, *(f"{name}.manifest.txt" for name in snaps)])
        for k, (name, state) in enumerate(zip(snaps, states)):
            saved, t = read_snapshot(out / name)
            assert t == k * run_cfg.dt
            assert saved.coeffs.tobytes() == SpectralField(run_cfg.grid, state).coeffs.tobytes()

    def test_abort_keeps_the_warnings_the_run_found(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
grid.n = 16
grid.box_length = 6.283185307179586
mu = 0.0
dt = 0.5
t_end = 50.0
ic.amplitude = 200.0
diagnostics_every = 1
snapshot_every = 1
""")
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert dispatch(["run", "--config", cfg, "--out", str(out)]) == 2
            run_cfg, _ = resolve_run_config(parse_config(cfg))
            expected = evolution.start_warnings(run_cfg)
            y, t = run_cfg.initial_state.band, 0.0
            while True:   # each recorded state after t = 0 warns of its CFL bound
                try:
                    y, t = evolution.step(y, t, run_cfg), t + run_cfg.dt
                except evolution.SimulationAbort:
                    break
                expected.append(f"dt = 0.5 exceeds the advective CFL bound "
                                f"{cfl_limit(y, run_cfg.grid):g} at t = {t:g}")
        assert t == 1.0 and "CFL bound" in expected[-2] and "at t = 0.5" in expected[-2]
        sidecars = sorted(out.glob("*.manifest.txt"))
        assert [p.name for p in sidecars] == ["abort.qgk.manifest.txt", *(
            f"snap_{k:06d}.qgk.manifest.txt" for k in range(3))]
        for path in sidecars:
            assert [ln[len("qgk-warning "):] for ln in path.read_text().splitlines()
                    if ln.startswith("qgk-warning ")] == expected
        err = capsys.readouterr().err
        assert err == "".join(f"warning: {w}\n" for w in expected) + (
            "qgk: numerical abort: non-finite state after step\n")

    def test_convergence_builds_the_datum_once_and_keeps_no_snapshot(self, tmp_path,
                                                                    monkeypatch):
        builds = []

        def counting(values, grid):
            builds.append(values["ic.kind"])
            return build_initial_condition(values, grid)

        monkeypatch.setattr(config, "build_initial_condition", counting)
        text = SMALL_RUN.replace("grid.n = 32", "grid.n = 64").replace(
            "diagnostics_every = 5", "diagnostics_every = 1")
        argv = {every: ["convergence", "--config", write_cfg(
            tmp_path, text.replace("snapshot_every = 1", f"snapshot_every = {every}"),
            f"snap{every}.cfg"), "--dts", "1e-2,5e-3", "--out", str(tmp_path / f"c{every}.csv")]
            for every in (0, 1)}
        assert dispatch(argv[1]) == 0   # untraced warm-up, as in the state-count test
        assert len(builds) == 1
        peaks = {every: self.traced_peak(args) for every, args in argv.items()}
        assert len(builds) == 3
        # at t_end = 0.2 the dt = 5e-3 trial records 41 states of one band block each
        band_block = 64 * 32 * 16
        assert abs(peaks[1] - peaks[0]) < 4 * band_block
        rows = [(tmp_path / f"c{every}.csv").read_text().splitlines()[-2:] for every in (0, 1)]
        assert rows[0] == rows[1]

    def test_snapshot_files_read_back_bitwise_as_the_states(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_RUN + "galerkin_cut = 12.0\n")
        run_cfg, _ = resolve_run_config(parse_config(cfg_path))
        run_states = evolution.simulate(run_cfg).snapshots
        linear_states, _ = evolution.linear_series(run_cfg, [t for t, _ in run_states])
        for command, states in (("run", run_states), ("linear", linear_states)):
            out = tmp_path / command
            assert dispatch([command, "--config", cfg_path, "--out", str(out)]) == 0
            paths = sorted(out.glob("snap_*.qgk"))
            assert len(paths) == len(states) == 5
            for path, (t, state) in zip(paths, states):
                assert os.path.exists(f"{path}.manifest.txt")
                saved, t_saved = read_snapshot(path)
                assert t_saved == t
                assert saved.coeffs.tobytes() == state.coeffs.tobytes()
