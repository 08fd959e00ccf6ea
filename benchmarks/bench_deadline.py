"""Anytime deadlines: how late a cut-short answer comes, and how good it is.

Every engine stops at its next boundary once its deadline expires and
keeps the best of its answer and the contiguous floor (the row-major and
column-major contiguous splits, :mod:`repro.core.floor`).  For the
recursive engine (serial, and on a 2-worker pool) and the direct k-way
engine (``kway_vcycles`` 1 and 2) at p in {2, 4, 16, 64} on
``sym_grid2d_l``, under a 10 ms deadline with seeds 1-5, this prints one
row per cell:

``overshoot``
    median wall-clock time past the deadline's expiry over the seeds
    (informational: it depends on the host);
``≤ 20 ms``
    whether that median meets the latency bound of a deadline,
    overshoot ≤ 20 ms (reported, not gated: it depends on the host);
``ratio``
    the worst degraded volume divided by the floor's volume; every
    degraded answer must have ``ratio <= 1``;
``ok``
    every answer is a complete assignment within the eqn-(1) ceiling
    whose reported volume recomputes, and every cut-short answer
    carries a ``Degraded[...]`` brief.

``--smoke`` replaces the wall-clock deadline with
:class:`~repro.utils.deadline.SoftBudget` budgets that expire after a
fixed number of boundary checks, so the run is deterministic and only
its gates count (no timing).  Exits non-zero when a gate fails.

Usage::

    python -m benchmarks.bench_deadline            # wall-clock, 10 ms
    python -m benchmarks.bench_deadline --smoke    # CI: gates only
    make bench-deadline
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys

import numpy as np

from repro import partition
from repro.core.floor import floor_volume
from repro.core.validate import validate_partition
from repro.errors import ResultValidationError
from repro.partitioner.config import get_config
from repro.sparse.collection import load_instance
from repro.utils.balance import max_allowed_part_size
from repro.utils.deadline import Deadline, SoftBudget

INSTANCE = "sym_grid2d_l"
EPS = 0.03
NPARTS = (2, 4, 16, 64)
#: ``(label, algo, kway_vcycles, jobs)``.  The recursive engine runs
#: on a pool only from p = 4 on, so its ``jobs=2`` row at p = 2 repeats
#: the serial one.
ENGINES = (
    ("recursive", "recursive", 0, 1),
    ("recursive, jobs=2", "recursive", 0, 2),
    ("kway+ml", "kway", 1, 1),
    ("kway+ml+vc", "kway", 2, 1),
)
#: The wall-clock deadline, and the partitioning seeds of every cell.
DEADLINE_S = 0.01
#: The overshoot a deadline is meant to stay under (milliseconds).
OVERSHOOT_BOUND_MS = 20.0
SEEDS = range(1, 6)
#: Smoke budgets: boundary checks granted before expiry.  Every engine
#: checks more than 12 times on this instance, so all of them degrade.
SMOKE_BUDGETS = (0, 3, 12)


def check(matrix, res, nparts: int) -> str | None:
    """The first problem with one answer, or ``None``."""
    ceiling = max_allowed_part_size(matrix.nnz, nparts, EPS)
    try:
        validate_partition(
            matrix, res.parts, nparts, volume=res.volume,
            max_part=res.max_part, feasible=res.feasible, ceiling=ceiling,
            context="bench_deadline",
        )
    except ResultValidationError as exc:
        return str(exc)
    if not res.feasible:
        return f"max part {res.max_part} exceeds the ceiling {ceiling}"
    return None


def run_cell(matrix, algo: str, vcycles: int, jobs: int, nparts: int,
             deadlines, must_degrade: bool):
    """Run one engine x p cell under each ``(seed, deadline factory)``."""
    cfg = dataclasses.replace(get_config("mondriaan"), kway_vcycles=vcycles)
    ceilings = np.full(nparts, max_allowed_part_size(matrix.nnz, nparts, EPS))
    floor = floor_volume(matrix, ceilings)
    overshoots, ratios, problems = [], [], []
    for seed, make_deadline in deadlines:
        deadline = make_deadline()
        res = partition(
            matrix, nparts, method="mediumgrain", eps=EPS, config=cfg,
            seed=seed, algo=algo, jobs=jobs, deadline=deadline,
        )
        if isinstance(deadline, Deadline):
            overshoots.append(deadline.overshoot())
        problem = check(matrix, res, nparts)
        degraded = any(b.startswith("Degraded[") for b in res.failures)
        if problem is None and degraded:
            ratios.append(res.volume / floor)
            if res.volume > floor:
                problem = f"degraded volume {res.volume} > floor {floor}"
        elif problem is None and must_degrade:
            problem = "the budget expired but no Degraded brief"
        if problem is not None:
            problems.append(f"seed {seed}: {problem}")
    return {
        "floor": floor,
        "overshoot_ms": 1000 * statistics.median(overshoots)
        if overshoots else None,
        "degraded": len(ratios),
        "runs": len(deadlines),
        "ratio": max(ratios) if ratios else None,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_deadline",
        description="Overshoot and degraded quality of anytime deadlines.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="deterministic SoftBudget budgets; gates only")
    args = parser.parse_args(argv)

    matrix = load_instance(INSTANCE)
    # Warm up lazy imports, caches and the worker pool before the first
    # timed run.
    partition(matrix, 4, seed=0, jobs=2)
    if args.smoke:
        deadlines = [
            (seed, lambda b=budget: SoftBudget(b))
            for seed in SEEDS for budget in SMOKE_BUDGETS
        ]
        mode = "SoftBudget " + "/".join(map(str, SMOKE_BUDGETS))
    else:
        deadlines = [(seed, lambda: Deadline(DEADLINE_S)) for seed in SEEDS]
        mode = f"Deadline({1000 * DEADLINE_S:g} ms)"
    print(f"# {INSTANCE}, mediumgrain, eps={EPS}, {mode}, "
          f"seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print(f"| engine | p | overshoot p50 (ms) | ≤ {OVERSHOOT_BOUND_MS:g} ms "
          "| degraded | floor | degraded / floor (max) | ok |")
    print("|---|---:|---:|---|---:|---:|---:|---|")
    failed = []
    for label, algo, vcycles, jobs in ENGINES:
        for nparts in NPARTS:
            cell = run_cell(matrix, algo, vcycles, jobs, nparts, deadlines,
                            must_degrade=args.smoke)
            if cell["overshoot_ms"] is None:
                overshoot = within = "—"
            else:
                overshoot = f"{cell['overshoot_ms']:.1f}"
                within = (
                    "yes" if cell["overshoot_ms"] <= OVERSHOOT_BOUND_MS
                    else "no"
                )
            ratio = "—" if cell["ratio"] is None else f"{cell['ratio']:.3f}"
            ok = "yes" if not cell["problems"] else "NO"
            print(f"| {label} | {nparts} | {overshoot} | {within} | "
                  f"{cell['degraded']}/{cell['runs']} | {cell['floor']} | "
                  f"{ratio} | {ok} |")
            failed += [f"{label} p={nparts} {p}" for p in cell["problems"]]
    for line in failed:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
