"""Span tracer for the benchmark's traced run, and the per-layer metrics
computed from its spans.

Wrappers are installed only by replacing attributes on qgk's modules: every
public function a module defines or imports from another qgk module (so
``qgk.evolution.transport`` and ``qgk.cli.write_snapshot`` are wrapped where
they are looked up), and the ``sfft`` module attribute that ``qgk.spectral``
and ``qgk.bilinear`` hold.  lru_cache tables are not wrapped; their counters
are read with ``cache_info()``.  A span records its name, the layer that
defines the function, the site (the module whose attribute was called),
start, end and parent.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
import types

LAYERS = ("config", "grid", "spectral", "bilinear", "evolution", "diagnostics",
          "quadrature", "decay_lab", "littlewood_paley", "snapshots", "cli")
FFT_FUNCTIONS = ("fft2", "ifft2", "rfft2", "irfft2")
MB = 1e6

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("bilinear.transport_calls", "count", "lower"),
    ("bilinear.transport_s", "s", "lower"),
    ("bilinear.transport_ms_p50", "ms", "lower"),
    ("bilinear.transport_ms_p90", "ms", "lower"),
    ("bilinear.transport_fft_share", "ratio", "higher"),
    ("spectral.fft_calls", "count", "lower"),
    ("spectral.fft_s", "s", "lower"),
    ("spectral.fft_points", "count", "lower"),
    ("spectral.product_sum_s", "s", "lower"),
    ("spectral.fft_floor_ms", "ms", "lower"),
    ("evolution.step_calls", "count", "lower"),
    ("evolution.step_ms_p50", "ms", "lower"),
    ("evolution.step_ms_p90", "ms", "lower"),
    ("evolution.step_self_s", "s", "lower"),
    ("evolution.cfl_calls", "count", "lower"),
    ("evolution.cfl_s", "s", "lower"),
    ("evolution.linear_evolve_s", "s", "lower"),
    ("quadrature.duhamel_calls", "count", "lower"),
    ("quadrature.duhamel_s", "s", "lower"),
    ("quadrature.radial_quad_calls", "count", "lower"),
    ("quadrature.radial_quad_s", "s", "lower"),
    ("diagnostics.calls", "count", "lower"),
    ("diagnostics.s", "s", "lower"),
    ("snapshots.write_calls", "count", "lower"),
    ("snapshots.write_s", "s", "lower"),
    ("snapshots.written_mb", "MB", "lower"),
    ("snapshots.read_calls", "count", "lower"),
    ("snapshots.read_s", "s", "lower"),
    ("snapshots.read_mb", "MB", "lower"),
    ("decay_lab.s", "s", "lower"),
    ("littlewood_paley.s", "s", "lower"),
    ("config.resolve_s", "s", "lower"),
    ("grid.table_builds", "count", "lower"),
    ("grid.cached_tables", "count", "lower"),
    ("grid.table_hit_ratio", "ratio", "higher"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"{layer}.errors", "count", "lower") for layer in LAYERS],
    ("fail_ratio", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
]
# metrics that repeat exactly from one iteration to the next
COUNTS = {name for name, unit, _ in PER_LAYER if unit in ("count", "MB")}


class Span:
    __slots__ = ("name", "layer", "site", "parent", "start", "end", "child", "error",
                 "nbytes", "points")

    def __init__(self, name, layer, site, parent):
        self.name, self.layer, self.site, self.parent = name, layer, site, parent
        self.start = self.end = self.child = 0.0
        self.error = False
        self.nbytes = self.points = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_size(args, kwargs) -> int:
    try:
        return os.path.getsize(args[0] if args else kwargs["path"])
    except (OSError, KeyError):
        return 0


def _fft_points(args, kwargs) -> int:
    """Real-space points a 2-D transform computes, over its batch."""
    x = args[0]
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    if s is None:
        return int(x.size)
    return int(x.size // math.prod(x.shape[-len(s):]) * math.prod(s))


class _FFTProxy:
    """Stands in for a module's ``scipy.fft`` attribute; times the 2-D FFTs."""

    def __init__(self, tracer: "Tracer", module, site: str):
        self._module = module
        for fname in FFT_FUNCTIONS:
            setattr(self, fname, tracer.wrap(getattr(module, fname), site,
                                             "spectral.fft", "spectral"))

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list = []

    def wrap(self, fn, site: str, name: str | None = None, layer: str | None = None):
        layer = layer or fn.__module__.rsplit(".", 1)[1]
        name = name or f"{layer}.{fn.__name__}"
        meter = _file_size if layer == "snapshots" else None
        points = _fft_points if name == "spectral.fft" else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, site, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                if meter is not None:
                    span.nbytes = meter(args, kwargs)
                if points is not None:
                    span.points = points(args, kwargs)

        return traced

    def install(self) -> None:
        wrapped: dict = {}
        for site in LAYERS:
            module = importlib.import_module(f"qgk.{site}")
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("qgk.")):
                    key = (site, obj)
                    if key not in wrapped:
                        wrapped[key] = self.wrap(obj, site)
                    self._patch(module, attr, wrapped[key])
            if isinstance(getattr(module, "sfft", None), types.ModuleType):
                self._patch(module, "sfft", _FFTProxy(self, module.sfft, site))

    def _patch(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans[:] = list(self.spans), []
        return spans


def span_table(spans: list[Span]) -> dict:
    """Spans as rows of (name, site, start, end, parent row or -1, error)."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    return {"columns": ["name", "site", "start", "end", "parent", "error"],
            "rows": [[sp.name, sp.site, sp.start, sp.end, index.get(id(sp.parent), -1),
                      int(sp.error)] for sp in spans]}


def cache_totals() -> tuple[int, int, int]:
    """(hits, misses, current size) summed over qgk's lru_cache tables."""
    seen, hits, misses, size = set(), 0, 0, 0
    for layer in LAYERS:
        for obj in vars(importlib.import_module(f"qgk.{layer}")).values():
            if hasattr(obj, "cache_info") and id(obj) not in seen:
                seen.add(id(obj))
                info = obj.cache_info()
                hits, misses, size = hits + info.hits, misses + info.misses, size + info.currsize
    return hits, misses, size


def _has_ancestor(span: Span, pred) -> bool:
    parent = span.parent
    while parent is not None:
        if pred(parent):
            return True
        parent = parent.parent
    return False


def _outer(spans, pred) -> list[Span]:
    """Spans matching pred with no matching ancestor (no double counting)."""
    return [sp for sp in spans if pred(sp) and not _has_ancestor(sp, pred)]


def _total(spans) -> float:
    return sum(sp.duration for sp in spans)


def summarize(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, plus the raw durations
    (ms) the percentiles are taken over."""
    transports = [sp for sp in spans if sp.name == "bilinear.transport" and sp.site == "evolution"]
    transport_ids = {id(sp) for sp in transports}
    ffts = [sp for sp in spans if sp.name == "spectral.fft"]
    steps = [sp for sp in spans if sp.name == "evolution.step"]
    transport_s = _total(transports)

    def named(name):
        return lambda sp: sp.name == name

    def is_diagnostic(sp):
        return sp.layer == "diagnostics" or (sp.name == "spectral.sobolev_norm"
                                             and sp.site == "evolution")

    fft_in_transport = _total(sp for sp in ffts
                              if _has_ancestor(sp, lambda a: id(a) in transport_ids))
    stepped_transport = _total(sp for sp in spans if sp.name == "bilinear.transport"
                               and _has_ancestor(sp, named("evolution.step")))
    writes = _outer(spans, named("snapshots.write_snapshot"))
    reads = _outer(spans, named("snapshots.read_snapshot"))
    duhamel = _outer(spans, named("quadrature.duhamel_time_factor"))
    radial = _outer(spans, named("quadrature.radial_quad"))
    cfl = _outer(spans, named("evolution.cfl_limit"))
    diagnostics = [sp for sp in spans if is_diagnostic(sp)]
    m = {
        "bilinear.transport_calls": len(transports),
        "bilinear.transport_s": transport_s,
        "bilinear.transport_fft_share": fft_in_transport / transport_s if transport_s else 0.0,
        "spectral.fft_calls": len(ffts),
        "spectral.fft_s": _total(ffts),
        "spectral.fft_points": sum(sp.points for sp in ffts),
        "spectral.product_sum_s": _total(_outer(spans, named("spectral.product_sum"))),
        "evolution.step_calls": len(steps),
        "evolution.step_self_s": _total(steps) - stepped_transport,
        "evolution.cfl_calls": len(cfl),
        "evolution.cfl_s": _total(cfl),
        "evolution.linear_evolve_s": _total(_outer(spans, named("evolution.linear_evolve"))),
        "quadrature.duhamel_calls": len(duhamel),
        "quadrature.duhamel_s": _total(duhamel),
        "quadrature.radial_quad_calls": len(radial),
        "quadrature.radial_quad_s": _total(radial),
        "diagnostics.calls": len(diagnostics),
        "diagnostics.s": _total(_outer(diagnostics, is_diagnostic)),
        "snapshots.write_calls": len(writes),
        "snapshots.write_s": _total(writes),
        "snapshots.written_mb": sum(sp.nbytes for sp in writes) / MB,
        "snapshots.read_calls": len(reads),
        "snapshots.read_s": _total(reads),
        "snapshots.read_mb": sum(sp.nbytes for sp in reads) / MB,
        "decay_lab.s": _total(_outer(spans, lambda sp: sp.layer == "decay_lab")),
        "littlewood_paley.s": _total(_outer(spans, lambda sp: sp.layer == "littlewood_paley")),
        "config.resolve_s": _total(_outer(spans, named("config.resolve_run_config"))),
    }
    for layer in LAYERS:
        own = [sp for sp in spans if sp.layer == layer]
        m[f"{layer}.self_s"] = sum(sp.duration - sp.child for sp in own)
        m[f"{layer}.errors"] = sum(sp.error for sp in own)
    raw = {"transport_ms": [1e3 * sp.duration for sp in transports],
           "step_ms": [1e3 * sp.duration for sp in steps]}
    return m, raw


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def combine(per_iteration: list[dict], raws: list[dict]) -> dict:
    """Counts from the last traced iteration (they repeat exactly), errors
    from the worst one, times as medians over iterations, percentiles over
    every span recorded."""
    out = {}
    for name in per_iteration[-1]:
        values = [m[name] for m in per_iteration]
        if name.endswith(".errors"):
            out[name] = max(values)
        else:
            out[name] = values[-1] if name in COUNTS else statistics.median(values)
    transport_ms = [v for raw in raws for v in raw["transport_ms"]]
    step_ms = [v for raw in raws for v in raw["step_ms"]]
    out["bilinear.transport_ms_p50"] = _quantile(transport_ms, 0.5)
    out["bilinear.transport_ms_p90"] = _quantile(transport_ms, 0.9)
    out["evolution.step_ms_p50"] = _quantile(step_ms, 0.5)
    out["evolution.step_ms_p90"] = _quantile(step_ms, 0.9)
    return out
