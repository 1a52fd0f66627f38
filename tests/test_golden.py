"""Golden values of series.csv for three small pinned configs.

The stored files under ``tests/golden/`` hold the column line and data rows
of ``series.csv`` (the manifest comments are left out).  Every column must
match to 1e-13 relative; the two balance residuals are already normalized by
the energy scale, so they are compared to 1e-13 absolute.

To re-pin after a deliberate change of the numerics, run

    PYTHONPATH=src python tests/test_golden.py tests/golden

and report the size of the change and its reason.
"""

import os
import sys

import numpy as np
import pytest

from qgk.cli import dispatch

FORCED_RK4_32 = """\
grid.n = 32
grid.box_length = 6.283185307179586
mu = 0.5
dt = 1e-2
t_end = 0.4
diagnostics_every = 5
seed = 11
ic.amplitude = 2.0
ic.band_hi = 6
forcing.kind = separable_decaying
forcing.k = 0.5
forcing.band_hi = 6
"""

GALERKIN_RK2_48 = """\
grid.n = 48
grid.box_length = 10.0
mu = 0.8
dt = 5e-3
t_end = 0.2
stepper = if_rk2
galerkin_cut = 12.0
diagnostics_every = 4
diag.sigma = 1,2.5
seed = 5
ic.amplitude = 1.5
ic.band_hi = 8
forcing.kind = separable_decaying
forcing.k = 0.3
forcing.eta = 0.6
forcing.band_hi = 7
"""

CASES = {
    "run_forced_rk4_32": ("run", FORCED_RK4_32),
    "run_galerkin_rk2_48": ("run", GALERKIN_RK2_48),
    "linear_galerkin_48": ("linear", GALERKIN_RK2_48),
}

RESIDUALS = ("first_balance_residual", "second_balance_residual")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def series_body(command: str, config_text: str, workdir: str) -> str:
    """Column line and data rows of series.csv for one pinned config."""
    cfg = os.path.join(workdir, "case.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    out = os.path.join(workdir, "out")
    assert dispatch([command, "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "series.csv"), encoding="utf-8") as fh:
        return "".join(ln for ln in fh if not ln.startswith("#"))


def parse(body: str):
    lines = body.strip().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")]
                                          for ln in lines[1:]])


@pytest.mark.parametrize("name", sorted(CASES))
def test_series_matches_golden(name, tmp_path):
    command, config_text = CASES[name]
    cols, got = parse(series_body(command, config_text, str(tmp_path)))
    with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), encoding="utf-8") as fh:
        ref_cols, ref = parse(fh.read())
    assert cols == ref_cols
    assert got.shape == ref.shape
    for j, col in enumerate(cols):
        if col in RESIDUALS:
            np.testing.assert_allclose(got[:, j], ref[:, j], rtol=0.0, atol=1e-13, err_msg=col)
        else:
            np.testing.assert_allclose(got[:, j], ref[:, j], rtol=1e-13, atol=0.0, err_msg=col)


if __name__ == "__main__":
    import tempfile

    target = sys.argv[1] if len(sys.argv) > 1 else GOLDEN_DIR
    os.makedirs(target, exist_ok=True)
    for name, (command, config_text) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            body = series_body(command, config_text, tmp)
        with open(os.path.join(target, f"{name}.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
