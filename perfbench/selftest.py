#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Each workload runs four times in short mode (small inputs, one second),
untraced and traced, twice each with the same seed.  The test fails
(exit code 1) unless

* every run exits 0 and reports ``correct: true``;
* each run prints exactly the metrics BENCHMARK.json lists for its
  mode, with the same units;
* the two same-seed runs repeat ``volume_geomean``,
  ``partitioner.fm.passes`` and ``serve.cache.hit_ratio`` exactly;
* the traced runs agree with what the workloads are for:
  ``partitioner.initial.share`` is larger on ``pway`` than on
  ``bisect``, and on ``kway`` the k-way FM kernel is the busiest kernel;
* README.md names every per-layer metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT = ("volume_geomean", "partitioner.fm.passes", "serve.cache.hit_ratio")


def short_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace}: exit {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (HERE / "README.md").read_text()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = [
        f"README.md does not name per-layer metric {name}"
        for name in expected[1] if f"`{name}`" not in readme
    ]
    traced = {}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first, second = (short_run(wl, trace) for _ in range(2))
            for res in (first, second):
                if not res["correct"] or res["failed"]:
                    problems.append(f"{wl} trace={trace}: checks failed")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != expected[trace]:
                    problems.append(
                        f"{wl} trace={trace}: metrics/units {got} differ "
                        f"from BENCHMARK.json {expected[trace]}"
                    )
            for name in EXACT:
                if name in first["metrics"]:
                    a = first["metrics"][name]["value"]
                    b = second["metrics"][name]["value"]
                    if a != b:
                        problems.append(
                            f"{wl}: {name} not repeated ({a!r} vs {b!r})"
                        )
            if trace:
                traced[wl] = {k: v["value"]
                              for k, v in first["metrics"].items()}
            print(f"selftest: {wl} trace={trace} ok", flush=True)
    if "pway" in traced and "bisect" in traced:
        share = "partitioner.initial.share"
        if not traced["pway"][share] > traced["bisect"][share]:
            problems.append(f"{share}: pway not above bisect")
    if "kway" in traced:
        kway = traced["kway"]
        if not (kway["kernels.kway_fm_pass.busy_s"]
                > kway["kernels.fm_pass.busy_s"]):
            problems.append("kway: kway_fm_pass is not the busiest kernel")
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
