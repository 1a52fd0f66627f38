"""Benchmark worker, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py setup   --dir WORKDIR
    python3 perfbench/worker.py measure --dir WORKDIR --seconds S --trace 0|1

``setup`` times importing qgk and resolving the workload's configs, with the
tables and FFT plans the first call builds.  ``measure`` runs the workload's
qgk CLI commands in process, one iteration after another, for S seconds
after an untimed warm-up iteration, and checks every iteration's outputs.
With --trace 0 each timing is paced by the host probe (see HostProbe).
With --trace 1 it alternates untraced and traced iterations and reports
per-layer metrics from the traced ones.  Each mode prints one JSON object.

Only the standard library is imported at module level, so that the setup
timing includes importing numpy and scipy through qgk.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

MIN_ITERATIONS = 3
FLOOR_REPEATS = 9

# The host is a small share of a shared machine whose speed drifts by a
# third within a minute; CPU time drifts with wall time and there is no
# steal time, so the same code's raw timings spread past any useful bound.
# Each timing t is therefore paced: divided by the host probe's time p
# measured next to it and multiplied by PROBE_REF_S, which gives the time t
# would take on a host where the probe takes PROBE_REF_S seconds.
PROBE_REF_S = 0.15
PROBE_REPEATS = 3


class HostProbe:
    """Fixed work that never touches qgk and stands in for the host's speed:
    a pure-Python loop, small-array numpy arithmetic, padded 2-D FFTs and a
    memory-bound copy, the four kinds of work the workloads are made of.
    Calling it returns the sum over the four kernels of each one's fastest
    of PROBE_REPEATS runs."""

    def __init__(self):
        import numpy as np
        import scipy.fft as sfft

        self.np, self.sfft = np, sfft
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((2, 64, 64))
        m = 384                                   # M = 3n/2 for n = 256
        self.spec = (rng.standard_normal((4, m, m // 2 + 1))
                     + 1j * rng.standard_normal((4, m, m // 2 + 1)))
        self.phys = rng.standard_normal((m, m))
        self.big = rng.standard_normal(1 << 22)   # 32 MB

    def _python(self) -> None:
        total = 0
        for i in range(200_000):
            total += i * i % 7

    def _numpy(self) -> None:
        x, b = self.small
        for _ in range(2000):
            x = self.np.exp(-0.01 * x) * b + 0.5 * x

    def _fft(self) -> None:
        m = self.phys.shape[0]
        for _ in range(6):
            self.sfft.irfft2(self.spec, s=(m, m), workers=1)
            self.sfft.rfft2(self.phys, workers=1)

    def _memory(self) -> None:
        for _ in range(5):
            self.big.copy().sum()

    def __call__(self) -> float:
        total = 0.0
        for kernel in (self._python, self._numpy, self._fft, self._memory):
            best = math.inf
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            total += best
        return total


def setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    import qgk.cli  # noqa: F401  (what every CLI command imports)
    from qgk import evolution
    from qgk.config import parse_config, resolve_run_config
    from qgk.snapshots import read_snapshot

    for name, path in spec["configs"].items():
        cfg, _ = resolve_run_config(parse_config(path))
        if name in spec["stepped"]:
            evolution.tendency(evolution.prepare_state(cfg), 0.0, cfg)
    if spec["perturb"]:
        read_snapshot(spec["perturb"])
    setup_s = time.perf_counter() - t0
    probe_s = HostProbe()()                   # numpy and scipy are loaded by now
    return {"setup_s": setup_s, "probe_s": probe_s, "paced_s": setup_s * PROBE_REF_S / probe_s}


def _environment() -> dict:
    import numpy
    import scipy
    from qgk.spectral import fft_workers

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "QGK_THREADS": os.environ.get("QGK_THREADS"), "fft_workers": fft_workers(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def _fft_floor_ms(n: int) -> float:
    """Median time of a batched 4x c2r plus 1x r2c at M = 3n/2, the padded
    transforms one transport needs at least."""
    import numpy as np
    import scipy.fft as sfft

    m = 3 * n // 2
    rng = np.random.default_rng(0)
    spec = rng.standard_normal((4, m, m // 2 + 1)) + 1j * rng.standard_normal((4, m, m // 2 + 1))
    phys = rng.standard_normal((m, m))
    times = []
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        sfft.irfft2(spec, s=(m, m), workers=1)
        sfft.rfft2(phys, workers=1)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


class Runner:
    """Runs and checks workload iterations, counting every check."""

    def __init__(self, spec: dict, workdir: str):
        import workloads
        from qgk import cli

        self.workloads = workloads
        self.cli = cli
        self.spec = spec
        self.out = os.path.join(workdir, "out")
        self.argvs = workloads.commands(spec, self.out)
        self.reference = workloads.reference(spec)
        self.attempted = 0
        self.failures: list[str] = []
        self.last_obs = None

    def iteration(self, tracer=None) -> float:
        """Run and check one iteration; returns its wall seconds."""
        wall = self.run(tracer)
        self.check()
        return wall

    def run(self, tracer=None) -> float:
        """One timed pass over the workload's commands; returns wall seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        sink = io.StringIO()
        codes = []
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in self.argvs:
                    try:
                        codes.append(self.cli.main(argv))
                    except Exception:  # a crash is one failed check, the run goes on
                        codes.append(-1)
                        sink.write(traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        for argv, code in zip(self.argvs, codes):
            self._count(f"exit_{argv[0]}", code == 0, sink.getvalue()[-400:])
        return wall

    def _count(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())

    def check(self) -> None:
        try:
            obs = self.workloads.observe(self.spec, self.out)
        except Exception as exc:  # missing or unreadable output
            self._count("observe", False, repr(exc))
            return
        self.last_obs = obs
        for name, ok in self.workloads.checks(self.spec["workload"], obs, self.reference):
            self._count(name, ok, repr(obs))

    def negative_control(self) -> None:
        ok = self.last_obs is not None and self.workloads.negative_control(
            self.spec["workload"], self.last_obs, self.reference)
        self._count("negative_control", ok, "a shifted reference passed its check")


def measure(spec: dict, workdir: str, seconds: float, traced: bool) -> dict:
    import tracing

    runner = Runner(spec, workdir)
    before = tracing.cache_totals()
    runner.run()                              # warm-up: first-call tables and plans
    # the peak of one cold iteration, what a CLI user's process reaches;
    # taken before the probe's arrays exist
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = tracing.cache_totals()
    runner.check()
    result = {"env": _environment()}
    walls, traced_walls, summaries, raws, floors = [], [], [], [], []
    tracer = tracing.Tracer() if traced else None
    probe = None if traced else HostProbe()
    probes = [] if traced else [probe()]
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           or len(walls) < (2 if traced else MIN_ITERATIONS)):
        walls.append(runner.iteration())
        if not traced:
            probes.append(probe())
        else:
            traced_walls.append(runner.iteration(tracer))
            spans = tracer.take()
            metrics, raw = tracing.summarize(spans)
            summaries.append(metrics)
            raws.append(raw)
            floors.append(_fft_floor_ms(spec["grid_n"]))
    runner.negative_control()
    # each iteration against the mean of the probes just before and after it
    paced = [w * PROBE_REF_S / (0.5 * (a + b)) for w, a, b in zip(walls, probes, probes[1:])]
    result.update(walls=walls, probes=probes, paced=paced,
                  work_units=spec["work_units"], work_unit=spec["work_unit"],
                  peak_rss_kb=peak_rss_kb,
                  attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:5])
    if traced:
        layers = tracing.combine(summaries, raws)
        hits, misses = after[0] - before[0], after[1] - before[1]
        layers.update({
            "spectral.fft_floor_ms": statistics.median(floors),
            "grid.table_builds": misses,
            "grid.cached_tables": after[2],
            "grid.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            # each traced iteration against the untraced one just before it
            "trace.overhead": statistics.median(t / w for t, w in zip(traced_walls, walls)) - 1.0,
        })
        result["layers"] = layers
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracing.span_table(spans), fh)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(args.dir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.mode == "setup":
        result = setup(spec)
    else:
        result = measure(spec, args.dir, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
