"""The command line as a process: ``python -m qgk.cli`` with its real
stderr, exit code and numpy warning state."""

import os
import re
import subprocess
import sys

import pytest

import qgk

# blows up in its third step: mu = 0, a huge datum and dt far over the CFL bound
ABORTING = """\
grid.n = {n}
grid.box_length = 6.283185307179586
mu = 0.0
dt = 0.5
t_end = 50.0
ic.amplitude = 200.0
diagnostics_every = 1
snapshot_every = 1
"""


GRID16 = """\
grid.n = 16
grid.box_length = 6.283185307179586
mu = 1.0
dt = 0.01
t_end = 0.1
diagnostics_every = 5
snapshot_every = 1
"""


def qgk_process(*argv, timeout=300):
    """Run ``python -m qgk.cli argv`` on the qgk these tests import."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(qgk.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qgk.cli", *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=timeout)


def aborting_config(tmp_path, n=16):
    path = tmp_path / f"abort{n}.cfg"
    path.write_text(ABORTING.format(n=n))
    return path


@pytest.mark.parametrize("n", [16, 128])
def test_aborting_run_prints_only_its_own_lines(tmp_path, n):
    # 128^2 runs its products on the pair thread where two CPUs are usable
    proc = qgk_process("run", "--config", aborting_config(tmp_path, n), "--out",
                       tmp_path / "out")
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert all(ln.startswith(("warning: ", "qgk: ")) for ln in lines), proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert lines[-1] == "qgk: numerical abort: non-finite state after step"
    assert (tmp_path / "out" / "abort.qgk").exists()
    # the sidecars of abort.qgk and of every snapshot carry the CFL warning at t = 0.5
    snaps = sorted((tmp_path / "out").glob("snap_*.qgk.manifest.txt"))
    assert snaps
    for sidecar in [tmp_path / "out" / "abort.qgk.manifest.txt", *snaps]:
        text = sidecar.read_text()
        assert re.search(r"CFL bound .* at t = 0\.5$", text, re.MULTILINE), sidecar.name


def test_convergence_names_the_trial_that_blows_up(tmp_path):
    out = tmp_path / "convergence.csv"
    proc = qgk_process("convergence", "--config", aborting_config(tmp_path), "--dts",
                       "0.5,0.25", "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("qgk: numerical abort: non-finite state after step at t = 1.5 "
                           "in the dt = 0.5 trial\n")
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["abort16.cfg"]


@pytest.mark.parametrize("flag, value", [("--mu", "inf"), ("--window", "1,inf")])
def test_decay_rejects_an_infinite_mu_t_before_any_quadrature(tmp_path, flag, value):
    # each of these used to loop forever building the radial panels
    out = tmp_path / "decay.csv"
    proc = qgk_process("decay", flag, value, "--duhamel-eta", "0.75", "--out", out,
                       timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"qgk: error: {flag} must be finite, not inf\n"
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


# a non-finite config value, and a step count t_end / dt that overflows or is
# not whole, are validation errors
@pytest.mark.parametrize("name, edits", [
    ("inf16", {"t_end": "inf"}),
    ("overflow16", {"dt": "1e-10", "t_end": "1e300"}),
    ("uneven16", {"dt": "0.3", "t_end": "1.0"}),
])
def test_bad_run_config_exits_1_and_writes_nothing(tmp_path, name, edits):
    text = GRID16
    for key, value in edits.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
        assert f"{key} = {value}\n" in text
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    proc = qgk_process("run", "--config", cfg, "--out", tmp_path / name)
    assert proc.returncode == 1, proc.stderr
    assert "qgk: error" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("profile, code, line", [
    ("gaussian:inf", 1, "qgk: error: radial profile 'gaussian:inf' needs a finite parameter"),
    ("compact_indicator:inf", 1,
     "qgk: error: radial profile 'compact_indicator:inf' needs a finite parameter"),
    ("gaussian:1e300", 2, "qgk: numerical abort: moment_integral returned a non-finite value"),
    ("gaussian:1e150", 2, "qgk: numerical abort: moment_integral returned a non-finite value"),
])
def test_decay_profile_out_of_range_prints_only_its_line(tmp_path, profile, code, line):
    out = tmp_path / "decay.csv"
    proc = qgk_process("decay", f"--profile={profile}", "--out", out, timeout=60)
    assert proc.returncode == code
    assert proc.stderr == line + "\n"
    assert list(tmp_path.iterdir()) == []


# runs a command through qgk.cli.main, then reports whether numpy.polynomial was imported
IMPORTS_AFTER = """\
import sys
from qgk.cli import main
code = main(sys.argv[1:])
print(code, "numpy.polynomial" in sys.modules)
"""


def test_stepping_commands_build_no_gauss_nodes(tmp_path):
    # the Gauss-Legendre nodes, and numpy.polynomial with them, are built
    # by the first quadrature, which run and stability never make
    cfg = tmp_path / "grid16.cfg"
    cfg.write_text(GRID16)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(qgk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))

    def imports_after(*argv):
        proc = subprocess.run([sys.executable, "-c", IMPORTS_AFTER, *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()[-2:]

    assert imports_after("run", "--config", cfg, "--out", tmp_path / "run") == ["0", "False"]
    # a snapshot of the run is the stability command's perturbation
    perturbation = sorted((tmp_path / "run").glob("snap_*.qgk"))[-1]
    assert imports_after("stability", "--config", cfg, "--perturb", perturbation,
                         "--out", tmp_path / "stability.csv") == ["0", "False"]
    # the decay command's quadrature imports it
    assert imports_after("decay", "--window", "1e2,1e3", "--samples", "8",
                         "--out", tmp_path / "decay.csv") == ["0", "True"]
