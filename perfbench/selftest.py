"""Self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py        (from the repository root)

Smoke-runs every workload with tracing off and on and asserts that each
metric BENCHMARK.json names is emitted with its unit, that every check
passes, and that the traced transport count is four per IF-RK4 step (zero on
linear256).  It also shows that the checks reject a shifted reference (the
negative control) and that the harness refuses a tree without qgk.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(cwd: str, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload: str, trace: int, declared: dict) -> dict:
    code, lines = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                       "--trace", str(trace), "--scale", "tiny")
    assert code == 0, f"{workload} trace={trace} exited {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    section = "per_layer" if trace else "end_to_end"
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared[section], f"{workload} {section}: {emitted} != {declared[section]}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    return result["metrics"]


def test_metrics_and_checks() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    declared = {section: {m["name"]: m["unit"] for m in bench[section]}
                for section in ("end_to_end", "per_layer")}
    for workload in workloads.WORKLOADS:
        e2e = smoke(workload, 0, declared)
        assert all(m["value"] > 0 for m in e2e.values()), e2e
        layers = smoke(workload, 1, declared)
        transports = layers["bilinear.transport_calls"]["value"]
        steps = layers["evolution.step_calls"]["value"]
        if workload == "linear256":
            assert transports == 0 and steps == 0, (transports, steps)
        else:
            assert steps > 0 and transports == 4 * steps, (transports, steps)
        print(f"ok {workload}: transport_calls={transports} step_calls={steps}")


def test_negative_control() -> None:
    obs = {"finite": True, "E_first": 1.0, "E_second": 2.0, "H3": 3.0, "H4": 4.0,
           "pairing_first": 0.0, "pairing_second": 0.0}
    ref = {k: obs[k] for k in ("E_first", "E_second", "H3", "H4")}
    assert all(ok for _, ok in workloads.checks("evolve256", obs, ref))
    assert workloads.negative_control("evolve256", obs, ref)
    twin = {"C": 1.0, "K": 0.0, "margin": 1.0}
    assert all(ok for _, ok in workloads.checks("twin64", twin, {"margin": 1.0 + 1e-9, "C": 10.0}))
    assert workloads.negative_control("twin64", twin, {"margin": 1.0 + 1e-9, "C": 10.0})
    print("ok negative control")


def test_refuses_tree_without_qgk() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(bare, "--workload", "twin64", "--seed", "1", "--seconds", "1",
                           "--trace", "0")
        assert code != 0 and not any(ln.startswith("{") for ln in lines), (code, lines)
    finally:
        shutil.rmtree(bare)
    print("ok refuses a tree without qgk")


if __name__ == "__main__":
    test_negative_control()
    test_refuses_tree_without_qgk()
    test_metrics_and_checks()
    print("selftest passed")
