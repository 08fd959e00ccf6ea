#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bisect --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (half of it
untraced, to measure the tracing overhead).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The workloads, their metrics and what each
layer metric should move are described in perfbench/README.md.

The program under test is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("bisect", "pway", "kway", "serve")

#: Every end-to-end metric: name -> unit (all workloads print all).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "deadline_overshoot_p50_ms": "ms",
    "volume_geomean": "words",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}


def run(workload: str, seed: int, seconds: float, trace: bool,
        short: bool = False) -> dict:
    """Run one workload; returns the result object (metrics with units).

    ``short`` shrinks the inputs (one partition seed per matrix, a fifth
    of the serve mix, one set-up) for the self-test.
    """
    if workload == "serve":
        import serveload

        result = serveload.run(seed, seconds, trace, short)
    else:
        import batch

        result = batch.run(workload, seed, seconds, trace, short)
    if trace:
        import layers

        units = layers.PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="small inputs, for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import stop_helpers

    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.short)
    finally:
        stop_helpers()
    for reason in result.pop("reasons", ()):
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
