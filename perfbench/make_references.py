"""Regenerate references.json: the stored outputs the benchmark checks
evolve256 and linear256 against, one entry per input variant and scale.

    PYTHONPATH=src python3 perfbench/make_references.py

Run from the repository root, on the code whose results define the
reference.  A change that moves any stored value by more than the checks'
1e-9 relative tolerance fails the benchmark until the references are
regenerated, so the change in results shows in the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

os.environ["QGK_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from qgk import cli  # noqa: E402

KEYS = {"evolve256": ("E_first", "E_second", "H3", "H4"), "linear256": ("sup_ratio",)}


def main() -> int:
    scratch = os.path.join(os.getcwd(), ".perfbench_work", "references")
    table: dict = {}
    for scale in workloads.SCALES:
        for workload, keys in KEYS.items():
            entries = table.setdefault(scale, {}).setdefault(workload, {})
            for variant in range(workloads.VARIANTS):
                shutil.rmtree(scratch, ignore_errors=True)
                spec = workloads.generate(workload, variant, scratch, scale)
                out = os.path.join(scratch, "out")
                for argv in workloads.commands(spec, out):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"{workload} variant {variant}: qgk {argv[0]} exited {code}")
                obs = workloads.observe(spec, out)
                entries[str(variant)] = {k: obs[k] for k in keys}
                print(scale, workload, variant, entries[str(variant)], flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
