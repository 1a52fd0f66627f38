"""The command line as a process: ``python -m qgk.cli`` with its real
stderr, exit code and numpy warning state."""

import math
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


def python_process(*args, timeout=300, cwd=None):
    """Run ``python args`` on the qgk these tests import."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(qgk.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=timeout)


def qgk_process(*argv, timeout=300):
    """Run ``python -m qgk.cli argv`` on the qgk these tests import."""
    return python_process("-m", "qgk.cli", *argv, timeout=timeout)


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


@pytest.mark.parametrize("argv, flag, shown", [
    # each decay call used to loop forever building the radial panels
    (["decay", "--mu", "inf", "--duhamel-eta", "0.75"], "--mu", "inf"),
    (["decay", "--window", "1,inf", "--duhamel-eta", "0.75"], "--window", "inf"),
    (["compare", "--run-a", "nl", "--run-b", "lin", "--eta", "nan"], "--eta", "nan"),
])
def test_non_finite_flag_prints_only_its_error_line(tmp_path, argv, flag, shown):
    out = tmp_path / "out.csv"
    proc = qgk_process(*argv, "--out", out, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"qgk: error: {flag} must be finite, not {shown}\n"
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


# a non-finite config value, and a step count t_end / dt that overflows or is
# not whole, are validation errors
@pytest.mark.parametrize("name, edits", [
    ("inf16", {"t_end": "inf"}),
    ("overflow16", {"dt": "1e-10", "t_end": "1e300"}),
    ("uneven16", {"dt": "0.3", "t_end": "1.0"}),
    # exp(-800 |k|) is zero at every |k| >= 1: a datum with no norm to scale to
    ("underflow16", {"ic.kind": "random_exponential", "ic.decay": "800"}),
    # (1 + |k|^2)^400 overflows: a datum whose H^s norm is not finite
    ("huge_s16", {"ic.s": "400"}),
])
def test_bad_run_config_exits_1_and_writes_nothing(tmp_path, name, edits):
    text = GRID16
    for key, value in edits.items():
        text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
        text += "" if found else f"{key} = {value}\n"
        assert f"{key} = {value}\n" in text
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    proc = qgk_process("run", "--config", cfg, "--out", tmp_path / name)
    assert proc.returncode == 1, proc.stderr
    assert "qgk: error" in proc.stderr and "Traceback" not in proc.stderr
    assert all(line.startswith("qgk: ") for line in proc.stderr.splitlines())
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


def test_lp_spectrum_weight_overflow_is_a_numerical_abort(tmp_path):
    # 2^(j s) overflows a Python float at --weight 1000
    cfg = tmp_path / "grid16.cfg"
    cfg.write_text(GRID16)
    out = tmp_path / "lp.csv"
    proc = qgk_process("lp-spectrum", "--config", cfg, "--weight", "1000", "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == ("qgk: numerical abort: --weight 1000: 2^(j s) overflows at "
                           "block j = 2\n")
    assert list(tmp_path.iterdir()) == [cfg]


# runs each command through qgk.cli.main in one process from the working
# directory, with scipy blocked; a "==" line on stdout and stderr opens each
# command's output, and the last stdout line holds the exit codes and whether
# numpy.polynomial (which the Gauss nodes of the first quadrature import) was
# imported after each command
COMMANDS = """\
import sys
sys.modules["scipy"] = None   # any scipy import now raises ImportError
from qgk.cli import main
codes, polynomial = [], []
for command in sys.argv[1:]:
    print("==", file=sys.stderr, flush=True)
    print("==", flush=True)
    codes.append(main(command.split()))
    polynomial.append("numpy.polynomial" in sys.modules)
print(codes, polynomial)
"""


def test_commands_need_numpy_only_and_quadrature_only_where_they_integrate(tmp_path):
    (tmp_path / "forced32.cfg").write_text(GRID16.replace("grid.n = 16", "grid.n = 32")
                                           + "forcing.kind = separable_decaying\n")
    proc = python_process(
        "-c", COMMANDS, "run --config forced32.cfg --out run",
        # a snapshot of the run is the stability command's perturbation
        "stability --config forced32.cfg --perturb run/snap_000002.qgk --out s.csv",
        "invariants --config forced32.cfg", "linear --config forced32.cfg --out lin",
        "compare --run-a run --run-b lin --eta 0.2 --out c.csv",
        "decay --window 1e2,1e3 --samples 8 --duhamel-eta 0.75 --out d.csv", cwd=tmp_path)
    assert proc.stdout.splitlines()[-1] == (
        "[0, 0, 0, 0, 0, 0] [False, False, False, True, True, True]"), proc.stderr


# the commands of the former CI console-script step
CONSOLE_COMMANDS = [
    "invariants --config grid16.cfg",
    "run --config grid16.cfg --out run16",
    "linear --config grid16.cfg --out linear16",
    "compare --run-a run16 --run-b linear16 --eta 0.75 --out compare16.csv",
    "run --config every16.cfg --out every16",
    "linear --config grid16.cfg --times 0,0.05,0.1 --out times16",
    "convergence --config every16.cfg --dts 0.02,0.01 --out conv16.csv",
    # its dt = 0.02 trial records 2 of the 3 rows a balance residual needs
    "convergence --config grid16.cfg --dts 0.02,0.01 --out short16.csv",
]


def data_rows(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]


def test_console_commands_on_the_16_grid(tmp_path):
    (tmp_path / "grid16.cfg").write_text(GRID16)
    (tmp_path / "every16.cfg").write_text(GRID16.replace("every = 5", "every = 1"))
    proc = python_process("-c", COMMANDS, *CONSOLE_COMMANDS, cwd=tmp_path)
    assert proc.stdout.splitlines()[-1].startswith("[0, 0, 0, 0, 0, 0, 0, 1] "), proc.stderr
    out, err = proc.stdout.split("==\n")[1:], proc.stderr.split("==\n")[1:]
    assert all(ln.startswith(("warning: ", "qgk: ")) for ln in "".join(err).splitlines())
    assert not re.search("Traceback|RuntimeWarning|RankWarning", proc.stderr)
    assert "pairing_first" in out[0] and "FAIL" not in out[0]
    assert out[3].startswith("sup envelope ratio") and not re.search(r"(?i)\bnan\b", out[3])
    # run and linear write one snapshot and its manifest sidecar per series.csv row
    for name in ("every16", "times16"):
        snaps = list((tmp_path / name).glob("snap_*.qgk"))
        assert len(snaps) == len(data_rows(tmp_path / name / "series.csv")) > 0
        assert all(os.path.isfile(f"{snap}.manifest.txt") for snap in snaps)
    assert len(data_rows(tmp_path / "conv16.csv")) == 2
    assert math.isfinite(float(re.search(r"fitted order: (\S+)", out[6])[1]))
    assert "qgk: error: " in err[7] and not (tmp_path / "short16.csv").exists()
