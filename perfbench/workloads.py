"""Workloads of the qgk benchmark: seeded inputs, the CLI commands one
iteration runs, and the correctness checks on what those commands write.

The harness imports this module to generate inputs (it never imports qgk);
the worker imports it for the command lists and the checks, which read the
outputs back with qgk.  The program sees only the generated config files and
the perturbation snapshot.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import struct

import numpy as np

WORKLOADS = ("evolve256", "twin64", "linear256")
SCALES = ("full", "tiny")

# Every --seed folds onto one of VARIANTS input variants, so that each input
# the benchmark can generate has a stored reference in references.json.
VARIANTS = 16
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

REF_RTOL = 1e-9          # spec tolerance against the stored reference
PAIRING_TOL = 1e-12      # discrete cancellations of the transport operator
MARGIN_MAX = 1.0 + 1e-9  # stability: measured energy within the fitted envelope
C_MAX = 10.0             # stability: Gronwall prefactor of order one
DECAY_SLOPES = {"M0": -0.50, "M1": -0.75, "M3": -1.25}
SLOPE_TOL = 0.05
NEGATIVE_SHIFT = 1e-6    # relative perturbation of the negative control

TWO_PI = 2.0 * math.pi

# Criterion 8/9 run (256^2, L = 100, shells 16-40), shortened to 50 steps
# with its record and snapshot cadence kept; "tiny" keeps the physical band
# on a 32^2 grid for the self-test.
_NONLINEAR = {
    "full": {"grid.n": 256, "grid.box_length": 100.0, "band": (16, 40)},
    "tiny": {"grid.n": 32, "grid.box_length": 12.5, "band": (2, 5)},
}
_EVOLVE_WINDOW = {"full": (10.0, 25, 2), "tiny": (0.8, 2, 2)}   # t_end, record every, snapshot every
_LINEAR_CADENCE = {"full": 125, "tiny": 1250}                    # steps between linear states
_TWIN = {
    "full": {"grid.n": 64, "t_end": 2.0, "diagnostics_every": 20},
    "tiny": {"grid.n": 16, "t_end": 0.1, "diagnostics_every": 5},
}
_DECAY_CRITERION_6 = ["--profile", "gaussian:1.0", "--mu", "1.0", "--moments", "0,1,3",
                      "--window", "1e2,1e6", "--samples", "32"]
_DECAY_CRITERION_7 = ["--profile", "gaussian:1.0", "--mu", "1.0", "--moments", "1,3",
                      "--window", "1,1e5", "--samples", "16", "--duhamel-eta", "0.75"]
# qgk invariants runs a 10-step single-mode IF-RK4 check of its own
_INVARIANTS_STEPS = 10


def derived_seeds(seed: int) -> tuple[int, dict]:
    """(variant, {ic, forcing, pert}) seeds for a benchmark --seed."""
    variant = seed % VARIANTS
    rng = random.Random(f"qgk-perfbench-{variant}")
    return variant, {name: rng.randrange(1, 2**31) for name in ("ic", "forcing", "pert")}


def _write_config(path: str, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n")


def _nonlinear_values(scale: str, variant: int, seeds: dict) -> dict:
    grid = _NONLINEAR[scale]
    lo, hi = grid["band"]
    return {
        "grid.n": grid["grid.n"], "grid.box_length": grid["grid.box_length"],
        "mu": 1.0, "dt": 0.2, "t_end": 0.0, "stepper": "if_rk4", "seed": variant,
        "ic.kind": "random_band", "ic.seed": seeds["ic"], "ic.amplitude": 0.25, "ic.s": 3.0,
        "ic.band_lo": lo, "ic.band_hi": hi,
        "forcing.kind": "separable_decaying", "forcing.seed": seeds["forcing"],
        "forcing.k": 0.05, "forcing.eta": 0.8, "forcing.band_lo": lo, "forcing.band_hi": hi,
    }


def write_perturbation(path: str, n: int, box_length: float, seed: int,
                       amplitude: float = 1e-6, s: float = 3.0, band=(1, 6)) -> None:
    """QGK1 snapshot of a seeded Hermitian random field in the index shells
    band, scaled to the given H^s norm.  Written without qgk, so the input
    does not depend on the code under test."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    kk = np.hypot(k1, k2)
    q = (TWO_PI / box_length * kk) ** 2
    inside = (kk >= band[0]) & (kk <= band[1]) & (k1 != -n // 2) & (k2 != -n // 2)
    amp = np.where(inside, (1.0 + q) ** (-(s + 1.0)), 0.0)
    phases = np.random.default_rng(seed).uniform(0.0, TWO_PI, size=(n, n))
    c = amp * np.exp(1j * phases)
    flip = (-np.arange(n)) % n
    c = 0.5 * (c + np.conj(c[np.ix_(flip, flip)]))   # exactly Hermitian
    norm = math.sqrt(box_length**2 * float(np.sum((1.0 + q) ** s * np.abs(c) ** 2)))
    c *= amplitude / norm
    shifted = np.fft.fftshift(c)
    payload = np.empty((n, n, 2), dtype="<f8")
    payload[:, :, 0] = shifted.real
    payload[:, :, 1] = shifted.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIdd", b"QGK1", 1, n, box_length, 0.0))
        fh.write(payload.tobytes())


def generate(workload: str, seed: int, workdir: str, scale: str = "full") -> dict:
    """Write the workload's inputs into workdir and return its spec.

    The spec (also saved as workdir/spec.json) lists the configs, which of
    them the IF-RK4 stepper runs, the perturbation snapshot, and the units
    of work one iteration completes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    variant, seeds = derived_seeds(seed)
    inp = os.path.join(workdir, "inputs")
    os.makedirs(inp, exist_ok=True)
    spec = {"workload": workload, "scale": scale, "seed": seed, "variant": variant,
            "seeds": seeds, "perturb": None,
            "grid_n": (_TWIN if workload == "twin64" else _NONLINEAR)[scale]["grid.n"]}
    if workload == "evolve256":
        t_end, every, snap = _EVOLVE_WINDOW[scale]
        values = dict(_nonlinear_values(scale, variant, seeds), t_end=t_end,
                      diagnostics_every=every, snapshot_every=snap)
        path = os.path.join(inp, "run.cfg")
        _write_config(path, values)
        spec["configs"] = {"run": path}
        spec["stepped"] = ["run"]
        spec["work_units"] = round(t_end / values["dt"])
        spec["work_unit"] = "IF-RK4 steps"
    elif workload == "twin64":
        twin = _TWIN[scale]
        values = {
            "grid.n": twin["grid.n"], "grid.box_length": TWO_PI, "mu": 1.0, "dt": 5e-3,
            "t_end": twin["t_end"], "seed": variant, "ic.kind": "random_band",
            "ic.seed": seeds["ic"], "ic.amplitude": 2.0, "ic.s": 3.0,
            "ic.band_lo": 1, "ic.band_hi": 6, "diagnostics_every": twin["diagnostics_every"],
        }
        path = os.path.join(inp, "stability.cfg")
        _write_config(path, values)
        pert = os.path.join(inp, "pert.qgk")
        write_perturbation(pert, twin["grid.n"], TWO_PI, seeds["pert"])
        spec["configs"] = {"stability": path}
        spec["stepped"] = ["stability"]
        spec["perturb"] = pert
        spec["work_units"] = 2 * round(twin["t_end"] / values["dt"]) + _INVARIANTS_STEPS
        spec["work_unit"] = "IF-RK4 steps"
    else:
        every = _LINEAR_CADENCE[scale]
        forced = dict(_nonlinear_values(scale, variant, seeds), t_end=1000.0,
                      diagnostics_every=every)
        unforced = dict(forced)
        unforced["forcing.kind"] = "zero"
        paths = {name: os.path.join(inp, f"{name}.cfg") for name in ("forced", "unforced")}
        _write_config(paths["forced"], forced)
        _write_config(paths["unforced"], unforced)
        spec["configs"] = paths
        spec["stepped"] = []
        spec["work_units"] = 2 * (round(1000.0 / forced["dt"]) // every + 1)
        spec["work_unit"] = "exact linear states"
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    return spec


def commands(spec: dict, out: str) -> list[list[str]]:
    """The qgk CLI argument lists of one workload iteration."""
    cfg = spec["configs"]
    if spec["workload"] == "evolve256":
        return [["run", "--config", cfg["run"], "--out", os.path.join(out, "run")]]
    if spec["workload"] == "twin64":
        return [["stability", "--config", cfg["stability"], "--perturb", spec["perturb"],
                 "--out", os.path.join(out, "stability.csv")],
                ["invariants", "--config", cfg["stability"]]]
    forced, unforced = os.path.join(out, "forced"), os.path.join(out, "unforced")
    return [["linear", "--config", cfg["forced"], "--out", forced],
            ["linear", "--config", cfg["unforced"], "--out", unforced],
            ["compare", "--run-a", forced, "--run-b", unforced, "--eta", "0.8",
             "--out", os.path.join(out, "compare.csv")],
            ["decay", *_DECAY_CRITERION_6, "--out", os.path.join(out, "decay6.csv")],
            ["decay", *_DECAY_CRITERION_7, "--out", os.path.join(out, "decay7.csv")]]


def _read_csv(path: str) -> tuple[list, list]:
    """(manifest comment lines, rows as dicts of floats) of a qgk CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(body)]
    return comments, rows


def observe(spec: dict, out: str) -> dict:
    """Values the checks need, read back from one iteration's outputs."""
    workload = spec["workload"]
    if workload == "evolve256":
        from qgk import bilinear
        from qgk.snapshots import read_snapshot

        _, rows = _read_csv(os.path.join(out, "run", "series.csv"))
        last = rows[-1]
        final, _ = read_snapshot(os.path.join(out, "run", "final.qgk"))
        scale = bilinear.pairing_scale(final, final)
        return {
            "finite": all(math.isfinite(v) for row in rows for v in row.values()),
            **{key: last[key] for key in ("E_first", "E_second", "H3", "H4")},
            "pairing_first": abs(bilinear.pairing_first(final, final)) / scale,
            "pairing_second": abs(bilinear.pairing_second(final, final)) / scale,
        }
    if workload == "twin64":
        comments, _ = _read_csv(os.path.join(out, "stability.csv"))
        fitted = dict(ln.split(" ", 1)[1].split("=", 1) for ln in comments
                      if ln.startswith("qgk-warning "))
        return {"C": float(fitted["fitted_C"]), "K": float(fitted["fitted_K"]),
                "margin": float(fitted["envelope_margin"])}
    _, rows = _read_csv(os.path.join(out, "compare.csv"))
    with open(os.path.join(out, "decay6.csv.summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return {"sup_ratio": max(r["envelope_ratio"] for r in rows if r["t"] >= 1.0),
            **{f"slope_{m}": summary[m]["slope"] for m in DECAY_SLOPES}}


def reference(spec: dict) -> dict:
    """Expected values for the spec's variant: stored values for evolve256
    and linear256, the spec bounds for twin64."""
    if spec["workload"] == "twin64":
        return {"margin": MARGIN_MAX, "C": C_MAX}
    with open(REFERENCES, encoding="utf-8") as fh:
        table = json.load(fh)
    return table[spec["scale"]][spec["workload"]][str(spec["variant"])]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def checks(workload: str, obs: dict, ref: dict) -> list[tuple[str, bool]]:
    """(name, passed) for one iteration's observed values."""
    if workload == "evolve256":
        out = [("series_finite", bool(obs["finite"]))]
        out += [(f"reference_{k}", _rel(obs[k], ref[k]) <= REF_RTOL)
                for k in ("E_first", "E_second", "H3", "H4")]
        out += [(k, obs[k] <= PAIRING_TOL) for k in ("pairing_first", "pairing_second")]
        return out
    if workload == "twin64":
        return [("envelope_margin", obs["margin"] <= ref["margin"]),
                ("fitted_C", obs["C"] <= ref["C"]),
                ("fitted_K", obs["K"] >= 0.0)]
    out = [("reference_sup_ratio", _rel(obs["sup_ratio"], ref["sup_ratio"]) <= REF_RTOL)]
    out += [(f"decay_slope_{m}", abs(obs[f"slope_{m}"] - s) <= SLOPE_TOL)
            for m, s in DECAY_SLOPES.items()]
    return out


def negative_control(workload: str, obs: dict, ref: dict) -> bool:
    """True when the checks reject a reference moved by NEGATIVE_SHIFT."""
    shifted = {k: v * (1.0 - NEGATIVE_SHIFT) for k, v in ref.items()}
    return not all(ok for _, ok in checks(workload, obs, shifted))
