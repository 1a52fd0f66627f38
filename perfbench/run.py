"""qgk benchmark: one command, three seeded workloads, every metric by name.

    python3 perfbench/run.py --workload evolve256 --seed 1 --seconds 20 --trace 0

Run from the root of a qgk source tree.  The harness writes the workload's
inputs (configs and a perturbation snapshot) derived from --seed into
.perfbench_work/ under the tree, times set-up in fresh interpreters, then
starts one worker interpreter that runs the qgk CLI commands in process for
--seconds and checks every output.  With --trace 0 it reports the end-to-end
metrics, each time paced by a host-speed probe timed next to it (see
worker.HostProbe), and with --trace 1 the per-layer metrics of a traced
run.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  See README.md in this directory for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
WORKER_TIMEOUT_S = 160.0
MB = 1e6

END_TO_END = [
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _worker_env(root: str) -> dict:
    """Pinned environment: one FFT worker, single-threaded BLAS."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("QGK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full",
                   help="input size; 'tiny' is for the self-test")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qgk", "cli.py")):
        print(f"perfbench: no qgk source tree at {root}/src/qgk; run from the repository root",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    workdir = os.path.join(root, ".perfbench_work",
                           f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = workloads.generate(args.workload, args.seed, workdir, args.scale)
    env = _worker_env(root)

    setup = []
    if not args.trace:
        setup = [_worker(["setup", "--dir", workdir], env, 60.0) for _ in range(SETUP_RUNS)]
    remaining = WORKER_TIMEOUT_S - (time.perf_counter() - started)
    try:
        res = _worker(["measure", "--dir", workdir, "--seconds", str(args.seconds),
                       "--trace", str(args.trace)], env, remaining)
    finally:
        shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)

    walls = res["walls"]
    n = len(walls)
    kind = "untraced and as many traced" if args.trace else "timed"
    print(f"perfbench {args.workload} seed={args.seed} (variant {spec['variant']}) "
          f"scale={args.scale} trace={args.trace}: {n} {kind} iterations of "
          f"{res['work_units']} {res['work_unit']}")
    if args.trace:
        layers = dict(res["layers"])
        layers["fail_ratio"] = res["failed"] / res["attempted"]
        metrics = {name: _metric(layers[name], unit) for name, unit, _ in tracing.PER_LAYER}
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    else:
        wall = statistics.median(res["paced"])
        probe = statistics.median(res["probes"])
        setup_raw = statistics.median(s["setup_s"] for s in setup)
        values = {
            "wall_s": (wall, f"paced median of {n} iterations; unpaced median "
                             f"{statistics.median(walls):.4g} s, host probe median {probe:.4g} s"),
            "work_per_s": (res["work_units"] / wall,
                           f"{res['work_units']} {res['work_unit']} per paced median iteration"),
            "setup_s": (statistics.median(s["paced_s"] for s in setup),
                        f"paced median of {len(setup)} fresh interpreters; unpaced "
                        f"{setup_raw:.4g} s"),
            "peak_rss_mb": (res["peak_rss_kb"] * 1024 / MB,
                            "worker process after its cold warm-up iteration, 1 sample"),
        }
        metrics = {name: _metric(values[name][0], unit) for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:12s} {values[name][0]:.6g} {unit}  ({values[name][1]})")
    print(f"  checks: {res['attempted']} attempted, {res['failed']} failed "
          f"(fail_ratio {res['failed'] / res['attempted']:.3g})")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "env": res["env"], "walls": walls, "probes": res.get("probes"),
                   "paced": res.get("paced"), "setup": setup}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
