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
