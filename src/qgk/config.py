"""Flat key-value experiment configs, validation and reproducibility manifests.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Unknown keys are hard errors; every value is range-checked; errors carry the
key name and line number.  Defaults below are part of the documented
interface.

Every output file embeds an ExperimentManifest: CSV files as ``#`` header
comments, binary files as a ``<name>.manifest.txt`` sidecar, so any result
is reproducible from its own artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import __version__
from .grid import DEALIAS_POLICIES, GridSpec, SpectralField
from .evolution import (
    FORCING_KINDS,
    STEPPERS,
    ForcingSpec,
    RunConfig,
    start_warnings,
)
from .snapshots import atomic_output, read_on_grid
from .spectral import (
    cosine_field,
    random_band_field,
    random_exponential_field,
)

IC_KINDS = ("random_band", "random_exponential", "cosine", "file")


class ConfigError(ValueError):
    """Config parse or validation failure, naming the key and line."""


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _finite_list(text: str) -> str:
    """A comma list of finite floats, kept as written for the manifest."""
    _sigma_list(text)
    return text


def _sigma_list(text: str) -> tuple[float, ...]:
    return tuple(_finite(part) for part in text.split(",") if part.strip())


def _positive(x):
    return x > 0


def _nonneg(x):
    return x >= 0


# key -> (parser, validator or None, default or REQUIRED, description); floats must be finite
_REQUIRED = object()

_KEYS = {
    "grid.n": (int, lambda v: v >= 8 and v % 2 == 0, _REQUIRED, "points per dimension (even, >= 8)"),
    "grid.box_length": (_finite, _positive, _REQUIRED, "torus side length L"),
    "grid.dealias": (str, lambda v: v in DEALIAS_POLICIES, "three_halves_padding", "dealias policy"),
    "mu": (_finite, _nonneg, _REQUIRED, "viscosity coefficient (>= 0; 0 = inviscid)"),
    "dt": (_finite, _positive, _REQUIRED, "time step"),
    "t_end": (_finite, _positive, _REQUIRED, "final time"),
    "stepper": (str, lambda v: v in STEPPERS, "if_rk4", "time integrator"),
    "galerkin_cut": (_finite, _nonneg, 0.0, "sharp cutoff |xi|^2 <= n_cut; 0 disables"),
    "diagnostics_every": (int, lambda v: v >= 1, 10, "steps between diagnostics rows"),
    "snapshot_every": (int, _nonneg, 0, "records between snapshots; 0 = none"),
    "seed": (int, _nonneg, 0, "master seed recorded in the manifest"),
    "disable_transport": (int, lambda v: v in (0, 1), 0, "1 = drop the nonlinear term (diagnostic)"),
    "diag.sigma": (_finite_list, None, "1", "comma list of sigma values for E_sigma columns"),
    "forcing.kind": (str, lambda v: v in FORCING_KINDS, "zero", "forcing law"),
    "forcing.k": (_finite, _positive, 1.0, "forcing amplitude K"),
    "forcing.eta": (_finite, lambda v: 0 < v < 1, 0.75, "forcing decay exponent"),
    "forcing.seed": (int, _nonneg, 1, "seed of the forcing profile"),
    "forcing.band_lo": (int, lambda v: v >= 1, 1, "lowest index shell of the profile"),
    "forcing.band_hi": (int, _nonneg, 0, "highest index shell; 0 = n//6"),
    "ic.kind": (str, lambda v: v in IC_KINDS, "random_band", "initial condition family"),
    "ic.seed": (int, _nonneg, 0, "seed of the initial condition (default: seed)"),
    "ic.amplitude": (_finite, _positive, 1.0, "H^s amplitude of the initial condition"),
    "ic.s": (_finite, None, 3.0, "Sobolev index used for the amplitude"),
    "ic.band_lo": (int, lambda v: v >= 1, 1, "lowest index shell"),
    "ic.band_hi": (int, _nonneg, 0, "highest index shell; 0 = n//6"),
    "ic.decay": (_finite, _positive, 0.5, "spectral decay rate of random_exponential"),
    "ic.mode_kx": (int, None, 1, "cosine mode index (x)"),
    "ic.mode_ky": (int, None, 0, "cosine mode index (y)"),
    "ic.file": (str, None, "", "snapshot path for ic.kind = file"),
}


def parse_value(key: str, text: str, where: str):
    """The value of one config key from its text; errors name the key and
    where the text came from."""
    parser, validator, _, _ = _KEYS[key]
    try:
        value = parser(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}' ({where}): {exc}") from exc
    if validator is not None and not validator(value):
        raise ConfigError(f"out-of-range value for '{key}' ({where}): {text}")
    return value


def parse_config(path) -> dict:
    """Read and validate a flat key-value config file."""
    values: dict = {}
    lines_seen: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        if key in values:
            raise ConfigError(f"duplicate key '{key}' (line {lineno}, first at line {lines_seen[key]})")
        values[key] = parse_value(key, text, f"line {lineno}")
        lines_seen[key] = lineno
    missing = [k for k, (_, _, default, _) in _KEYS.items()
               if default is _REQUIRED and k not in values]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")
    for key, (_, _, default, _) in _KEYS.items():
        values.setdefault(key, default)
    if values["ic.seed"] == 0 and "ic.seed" not in lines_seen:
        values["ic.seed"] = values["seed"]
    return values


def build_initial_condition(values: dict, grid: GridSpec) -> tuple[SpectralField, float]:
    """The configured datum and the time it holds (0 unless read from a file)."""
    kind = values["ic.kind"]
    if kind == "cosine":
        return cosine_field(grid, values["ic.mode_kx"], values["ic.mode_ky"],
                            values["ic.amplitude"]), 0.0
    if kind == "file":
        if not values["ic.file"]:
            raise ConfigError("ic.kind = file needs ic.file")
        return read_on_grid(values["ic.file"], grid)
    band_hi = values["ic.band_hi"] or grid.n // 6
    if kind == "random_band":
        return random_band_field(grid, values["ic.seed"], values["ic.amplitude"],
                                 values["ic.s"], values["ic.band_lo"], band_hi), 0.0
    return random_exponential_field(grid, values["ic.seed"], values["ic.amplitude"],
                                    values["ic.decay"], values["ic.s"]), 0.0


def build_forcing(values: dict, grid: GridSpec) -> ForcingSpec:
    kind = values["forcing.kind"]
    if kind == "zero":
        return ForcingSpec(kind="zero")
    if kind == "tabulated":
        raise ConfigError("tabulated forcing is available through the library API only")
    band_hi = values["forcing.band_hi"] or grid.n // 6
    profile = random_band_field(grid, values["forcing.seed"], 1.0, values["ic.s"],
                                values["forcing.band_lo"], band_hi)
    return ForcingSpec(kind="separable_decaying", profile=profile,
                       amplitude=values["forcing.k"], eta=values["forcing.eta"])


def resolve_run_config(values: dict) -> tuple[RunConfig, list]:
    """Turn validated key-values into a RunConfig; returns (cfg, warnings)."""
    grid = GridSpec(n=values["grid.n"], box_length=values["grid.box_length"],
                    dealias=values["grid.dealias"])
    ic, ic_time = build_initial_condition(values, grid)
    forcing = build_forcing(values, grid)
    cfg = RunConfig(
        grid=grid,
        mu=values["mu"],
        t_end=values["t_end"],
        dt=values["dt"],
        initial_condition=ic,
        stepper=values["stepper"],
        galerkin_cut=values["galerkin_cut"] or None,
        forcing=forcing,
        seed=values["seed"],
        diagnostics_every=values["diagnostics_every"],
        snapshot_every=values["snapshot_every"],
        sigma_list=_sigma_list(values["diag.sigma"]),
        disable_transport=bool(values["disable_transport"]),
    )
    warnings = start_warnings(cfg)
    if ic_time != 0.0 and forcing.kind != "zero":
        # a run always starts at t = 0: nothing resumes from a snapshot's time yet
        warnings.append(f"ic.file holds the state at t = {ic_time!r}, but the run starts "
                        f"at t = 0 and applies the forcing f(0), not f({ic_time!r})")
    return cfg, warnings


@dataclass
class ExperimentManifest:
    """Provenance block embedded in every output file."""

    command: str
    config_items: tuple
    seed: int
    warnings: tuple = ()
    version: str = __version__

    @property
    def config_hash(self) -> str:
        payload = "\n".join(f"{k}={v}" for k, v in self.config_items)
        payload = f"{self.command}\n{self.version}\n{payload}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def lines(self) -> list[str]:
        out = [
            f"qgk-manifest command={self.command}",
            f"qgk-manifest version={self.version}",
            f"qgk-manifest seed={self.seed}",
            f"qgk-manifest config_hash={self.config_hash}",
        ]
        out += [f"qgk-config {k}={v}" for k, v in self.config_items]
        out += [f"qgk-warning {w}" for w in self.warnings]
        return out


def manifest_from_values(command: str, values: dict, warnings=()) -> ExperimentManifest:
    items = tuple(sorted((k, repr(v)) for k, v in values.items()))
    return ExperimentManifest(command=command, config_items=items,
                              seed=values.get("seed", 0), warnings=tuple(warnings))


def format_float(x) -> str:
    """Shortest round-trip decimal; locale-independent."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, columns, rows, manifest: ExperimentManifest | None = None) -> None:
    """CSV with fixed column order, '.' decimals and manifest header comments."""
    with atomic_output(path, encoding="utf-8", newline="\n") as fh:
        if manifest is not None:
            for line in manifest.lines():
                fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def write_manifest_sidecar(binary_path, manifest: ExperimentManifest) -> None:
    with atomic_output(str(binary_path) + ".manifest.txt", encoding="utf-8", newline="\n") as fh:
        for line in manifest.lines():
            fh.write(line + "\n")
