"""Kernel benchmark-regression harness.

Times the partitioner's hot kernels on collection matrices, against the
frozen *seed* implementations in ``_baseline_kernels.py``:

``fm_pass``
    One FM pass on the medium-grain hypergraph — seed closure-based loop
    vs. the ``repro.kernels`` pass with its reusable pass state.
``matching``
    One greedy matching sweep — seed convert-per-call loop vs. the
    kernel sweep on cached mirrors.
``contraction``
    Identical-net merging on a duplicate-heavy net list — seed per-net
    ``tobytes()`` hashing vs. the vectorized group-by-size merge.
``medium_grain_build``
    The derived structures FM needs on a fresh medium-grain hypergraph
    (transpose, gain bound, net ids) — seed per-site ``np.repeat``
    expansions vs. the shared ``Hypergraph.net_ids()`` cache.
``kway_fm_pass``
    One k-way FM pass at k=64 on the medium-grain hypergraph — the
    dense ``np.add.at`` setup with interpreted k-part scans vs. the
    kernel's setup (pair tables where the density rule picks them)
    with C-level list scans.
``kway_fm_pass_k8``
    The same at k=8, on ``sqr_cl_m`` only: its big nets put every
    vertex next to most parts, so the setup stays dense — the row that
    shows the dense regime keeping its cost.
``volume``
    The communication volume of a 64-part column-major contiguous
    split — per-line ``lambda`` arrays summed as ``max(lambda - 1, 0)``
    vs. the kernel's count of distinct ``(line, part)`` pairs minus the
    non-empty lines.

Usage::

    python -m benchmarks.bench_regress              # write BENCH_kernels.json
    python -m benchmarks.bench_regress --check      # compare vs. committed
    make bench-regress                              # the --check mode

The default run writes ``BENCH_kernels.json`` at the repository root —
the perf trajectory artifact tracked in git.  ``--check`` re-times the
"after" side and exits non-zero when any kernel regressed more than
``--tolerance`` (default 25%) against the committed file; it is also
exposed as the opt-in ``bench`` pytest marker (deselected by default so
tier-1 stays fast).

Every timed pair is verified to produce identical results before the
numbers are trusted; a benchmark that drifts behaviourally fails loudly.

Timings are *calibrated seconds* (schema 2): every timed call is
divided by the machine slowdown that ``perfbench.common.slowdown``
measures just before it, and the median over the repeats is kept, so a
check run while the machine is slow compares like with like against
the committed file.  None of the timed FM passes reaches the 512-move
stall cap (the medium-grain hypergraphs here have at most 2,102
vertices), so the uncapped frozen baselines stay answer-identical to
the kernels.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks._baseline_kernels import (
    baseline_communication_volume,
    baseline_derived_structures,
    baseline_fm_pass,
    baseline_hot_lists,
    baseline_kway_fm_pass,
    baseline_match_vertices,
    baseline_merge_identical,
)
from perfbench.common import slowdown
from repro.core.floor import contiguous_splits
from repro.core.medium_grain import build_medium_grain
from repro.core.split import initial_split
from repro.core.volume import communication_volume
from repro.hypergraph.models import row_net_model
from repro.kernels import PYTHON_KERNELS
from repro.kernels.python_backend import merge_identical_nets
from repro.partitioner.coarsen import match_vertices
from repro.partitioner.config import get_config
from repro.sparse.collection import load_instance

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_kernels.json"
DEFAULT_MATRICES = ("sqr_cl_m", "sym_grid2d_m", "rec_bp_med")
KERNELS = (
    "fm_pass", "matching", "contraction", "medium_grain_build",
    "kway_fm_pass", "kway_fm_pass_k8", "volume",
)
#: Kernels timed on some matrices only (every other kernel runs on all).
KERNEL_MATRICES = {"kway_fm_pass_k8": ("sqr_cl_m",)}
SEED = 2014
KWAY_PARTS = 64
#: Schema 2 records calibrated seconds (see :func:`_calibrated_time`);
#: schema 1 files hold raw wall-clock seconds and cannot be compared
#: against.
SCHEMA = 2


def _calibrated_time(repeats: int, fn) -> float:
    """Median over ``repeats`` calls of each call's wall-clock seconds
    divided by the machine slowdown measured just before it
    (:func:`perfbench.common.slowdown`): seconds at the reference
    speed, comparable across runs while the machine's speed drifts.

    One slowdown sample varies by about ±15% within a second, so the
    median of the per-call ratios is kept; the minimum would keep the
    call whose sample happened to read slowest.
    """
    samples = []
    for _ in range(repeats):
        scale = slowdown()
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / scale)
    return statistics.median(samples)


def _balanced_parts(nverts: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    parts = np.zeros(nverts, dtype=np.int64)
    parts[rng.permutation(nverts)[: nverts // 2]] = 1
    return parts


def _medium_grain_hypergraph(matrix):
    split = initial_split(matrix, seed=SEED)
    return build_medium_grain(split).hypergraph


def bench_fm_pass(matrix, repeats: int, after_only: bool = False) -> dict:
    """Seed FM pass vs. the kernel FM pass on the medium-grain hypergraph."""
    h = _medium_grain_hypergraph(matrix)
    cfg = get_config("mondriaan")
    parts0 = _balanced_parts(h.nverts, SEED)
    cap = int(1.03 * h.total_weight() / 2) + 1
    maxw = (cap, cap)
    lists = baseline_hot_lists(h)  # seed cached these per hypergraph too
    state = PYTHON_KERNELS.fm_state(h)

    def run_before():
        return baseline_fm_pass(
            h, lists, parts0.copy(), maxw, cfg, np.random.default_rng(7)
        )

    def run_after():
        return PYTHON_KERNELS.fm_pass(
            state, parts0.copy(), maxw, cfg, np.random.default_rng(7)
        )

    d_before = run_before()
    d_after = run_after()
    if d_before != (int(d_after[0]), bool(d_after[1])):
        raise AssertionError(
            f"fm_pass drift: baseline {d_before} != kernel {d_after}"
        )
    out = {"after_s": _calibrated_time(repeats, run_after)}
    if not after_only:
        out["before_s"] = _calibrated_time(repeats, run_before)
    return out


def bench_matching(matrix, repeats: int, after_only: bool = False) -> dict:
    """Seed matching sweep vs. the kernel sweep (same RNG per run)."""
    h = _medium_grain_hypergraph(matrix)
    cfg = get_config("mondriaan")
    cap = max(1, int(0.35 * h.total_weight() / 2))
    PYTHON_KERNELS.fm_state(h).list_mirrors()  # warm, like repeated coarsening

    def run_before():
        return baseline_match_vertices(
            h, cfg, np.random.default_rng(9), cap
        )

    def run_after():
        return match_vertices(h, cfg, np.random.default_rng(9), cap)

    if run_before().tolist() != run_after().tolist():
        raise AssertionError("matching drift between baseline and kernel")
    out = {"after_s": _calibrated_time(repeats, run_after)}
    if not after_only:
        out["before_s"] = _calibrated_time(repeats, run_before)
    return out


def bench_contraction(matrix, repeats: int, after_only: bool = False) -> dict:
    """Identical-net merge on a duplicate-heavy net list.

    The rows of the row-net model are tiled four times, mimicking the
    coarse levels where contraction maps many fine nets onto the same
    pin set (the case ``merge_identical_nets`` exists for).
    """
    h = row_net_model(matrix).hypergraph
    tile = 4
    sizes = np.diff(h.xpins)
    xpins = np.zeros(tile * h.nnets + 1, dtype=np.int64)
    np.cumsum(np.tile(sizes, tile), out=xpins[1:])
    # Sort pins within each net (merge precondition, as after contract).
    row_sorted = np.concatenate(
        [np.sort(h.pins[h.xpins[n] : h.xpins[n + 1]]) for n in range(h.nnets)]
    ) if h.npins else np.empty(0, dtype=np.int64)
    pins = np.tile(row_sorted, tile)
    ncost = np.ones(tile * h.nnets, dtype=np.int64)

    def run_before():
        return baseline_merge_identical(xpins, pins, ncost)

    def run_after():
        return merge_identical_nets(xpins, pins, ncost)

    rb, ra = run_before(), run_after()
    for got, want in zip(ra, rb):
        if got.tolist() != want.tolist():
            raise AssertionError("contraction merge drift")
    out = {"after_s": _calibrated_time(repeats, run_after)}
    if not after_only:
        out["before_s"] = _calibrated_time(repeats, run_before)
    return out


def bench_medium_grain_build(matrix, repeats: int, after_only: bool = False) -> dict:
    """Derived-structure build on fresh medium-grain hypergraphs.

    Times what the partitioner computes between building the model and
    the first FM pass — transpose, gain bound, net-id expansion — with
    the seed's independent ``np.repeat`` per consumer vs. the shared
    ``Hypergraph.net_ids()`` cache.  The model build itself is identical
    code on both sides and ~30x larger, so it is excluded: it would
    swamp the delta being tracked.  Hypergraphs are prebuilt outside the
    timer (one per run; the caches are per-instance).
    """
    split = initial_split(matrix, seed=SEED)

    def fresh():
        return build_medium_grain(split).hypergraph

    before_pool = [] if after_only else [fresh() for _ in range(repeats + 1)]
    after_pool = [fresh() for _ in range(repeats + 1)]

    def run_before():
        baseline_derived_structures(before_pool.pop())

    def run_after():
        h = after_pool.pop()
        h.xnets  # transpose via cached net_ids
        h.max_vertex_net_cost()
        h.net_ids()

    out = {"after_s": _calibrated_time(repeats, run_after)}
    if not after_only:
        out["before_s"] = _calibrated_time(repeats, run_before)
    return out


def bench_kway_fm_pass(
    matrix, repeats: int, after_only: bool = False, k: int = KWAY_PARTS,
) -> dict:
    """Pre-sparse k-way FM pass vs. the kernel pass at ``k`` parts.

    The start cuts the vertex order into k weight-contiguous blocks (a
    feasible partition with the locality of a row-block split), then
    refines it with a few untimed passes: the timed pass runs on a
    nearly converged partition, like most passes of a multilevel
    uncoarsening.  Every ceiling is 3% over the average part plus the
    heaviest vertex.
    """
    h = _medium_grain_hypergraph(matrix)
    cfg = get_config("mondriaan")
    total = h.total_weight()
    cap = int(1.03 * total / k) + int(h.vwgt.max(initial=0))
    ceilings = np.full(k, cap, dtype=np.int64)
    lists = baseline_hot_lists(h)
    state = PYTHON_KERNELS.fm_state(h)
    parts0 = ((np.cumsum(h.vwgt) - h.vwgt) * k // total).astype(np.int64)
    for i in range(4):
        PYTHON_KERNELS.kway_fm_pass(
            state, parts0, k, ceilings, cfg, np.random.default_rng(100 + i)
        )

    def run_before():
        parts = parts0.copy()
        out = baseline_kway_fm_pass(
            h, lists, parts, k, ceilings, cfg, np.random.default_rng(7)
        )
        return out, parts

    def run_after():
        parts = parts0.copy()
        out = PYTHON_KERNELS.kway_fm_pass(
            state, parts, k, ceilings, cfg, np.random.default_rng(7)
        )
        return out, parts

    d_before, p_before = run_before()
    d_after, p_after = run_after()
    if d_before != (int(d_after[0]), bool(d_after[1])) or (
        p_before.tolist() != p_after.tolist()
    ):
        raise AssertionError(
            f"kway_fm_pass drift: baseline {d_before} != kernel {d_after}"
        )
    out = {"after_s": _calibrated_time(repeats, run_after)}
    if not after_only:
        out["before_s"] = _calibrated_time(repeats, run_before)
    return out


def bench_volume(matrix, repeats: int, after_only: bool = False) -> dict:
    """Per-line-``lambda`` volume vs. the pair-counting kernel on the
    64-part column-major contiguous split (every column in one part,
    rows cut: the shape of a real partitioning's boundary)."""
    ceilings = np.full(KWAY_PARTS, -(-matrix.nnz // KWAY_PARTS))
    parts = contiguous_splits(matrix, ceilings)[1]

    def run_before():
        return baseline_communication_volume(matrix, parts)

    def run_after():
        return communication_volume(matrix, parts)

    if run_before() != run_after():
        raise AssertionError(
            f"volume drift: baseline {run_before()} != kernel {run_after()}"
        )
    out = {"after_s": _calibrated_time(repeats, run_after)}
    if not after_only:
        out["before_s"] = _calibrated_time(repeats, run_before)
    return out


BENCH_FNS = {
    "fm_pass": bench_fm_pass,
    "matching": bench_matching,
    "contraction": bench_contraction,
    "medium_grain_build": bench_medium_grain_build,
    "kway_fm_pass": bench_kway_fm_pass,
    "kway_fm_pass_k8": functools.partial(bench_kway_fm_pass, k=8),
    "volume": bench_volume,
}


def _kernels_for(name: str):
    """The ``(kernel, bench fn)`` pairs timed on matrix ``name``."""
    return [
        (kernel, fn) for kernel, fn in BENCH_FNS.items()
        if name in KERNEL_MATRICES.get(kernel, (name,))
    ]


def run_benchmarks(matrices=DEFAULT_MATRICES, repeats: int = 9) -> dict:
    """Time every kernel on every matrix; returns the report dict."""
    report = {
        "schema": SCHEMA,
        "repeats": repeats,
        "matrices": {},
        "geomean_speedup": {},
    }
    for name in matrices:
        matrix = load_instance(name)
        entry = {}
        for kernel, fn in _kernels_for(name):
            timing = fn(matrix, repeats)
            timing["speedup"] = round(
                timing["before_s"] / timing["after_s"], 3
            ) if timing["after_s"] > 0 else float("inf")
            timing["before_s"] = round(timing["before_s"], 6)
            timing["after_s"] = round(timing["after_s"], 6)
            entry[kernel] = timing
            print(
                f"  {name:14s} {kernel:18s} "
                f"before {timing['before_s'] * 1e3:9.3f} ms   "
                f"after {timing['after_s'] * 1e3:9.3f} ms   "
                f"x{timing['speedup']:.2f}"
            )
        report["matrices"][name] = entry
    for kernel in KERNELS:
        speedups = [
            report["matrices"][m][kernel]["speedup"] for m in matrices
            if kernel in report["matrices"][m]
        ]
        if not speedups:
            continue
        report["geomean_speedup"][kernel] = round(
            float(np.exp(np.mean(np.log(speedups)))), 3
        )
    return report


def check_regression(
    committed: dict, matrices, repeats: int, tolerance: float,
    min_delta: float = 1e-4,
) -> int:
    """Re-time the *after* side and compare against the committed file.

    The seed baselines are not re-timed here (their numbers are never
    read in check mode).  A kernel counts as regressed only when it is
    both ``tolerance`` slower *relatively* and ``min_delta`` seconds
    slower *absolutely* — sub-millisecond kernels jitter by tens of
    microseconds on a loaded machine, which is scheduling noise, not a
    regression.  Returns a process exit code: 0 when every kernel is
    within budget, 1 otherwise.
    """
    failures = []
    for name in matrices:
        ref_entry = committed.get("matrices", {}).get(name)
        if ref_entry is None:
            print(f"  {name}: not in committed file, skipping")
            continue
        matrix = load_instance(name)
        for kernel, fn in _kernels_for(name):
            if kernel not in ref_entry:
                continue
            cur = fn(matrix, repeats, after_only=True)["after_s"]
            ref = ref_entry[kernel]["after_s"]
            ratio = cur / ref if ref > 0 else 1.0
            regressed = ratio > 1.0 + tolerance and cur - ref > min_delta
            flag = "REGRESSION" if regressed else "ok"
            print(
                f"  {name:14s} {kernel:18s} committed {ref * 1e3:9.3f} ms  "
                f"current {cur * 1e3:9.3f} ms  x{ratio:5.2f}  {flag}"
            )
            if regressed:
                failures.append((name, kernel, ratio))
    if failures:
        print(
            f"\n{len(failures)} kernel timing(s) regressed more than "
            f"{tolerance:.0%}:"
        )
        for name, kernel, ratio in failures:
            print(f"  {name}/{kernel}: {ratio:.2f}x the committed time")
        return 1
    print("\nall kernels within tolerance")
    return 0


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(
        prog="bench_regress",
        description="kernel benchmark-regression harness",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed JSON instead of rewriting it",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument(
        "--matrices",
        default=",".join(DEFAULT_MATRICES),
        help="comma-separated collection instance names",
    )
    parser.add_argument("--repeats", type=int, default=9,
                        help="timing repetitions per kernel (the median "
                             "calibrated time is kept)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="--check relative failure threshold (fraction)")
    parser.add_argument("--min-delta", type=float, default=1e-4,
                        help="--check absolute floor in seconds: slower by "
                             "less than this is treated as timing noise")
    args = parser.parse_args(argv)
    matrices = tuple(m for m in args.matrices.split(",") if m)
    out = Path(args.out)

    if args.check:
        if not out.exists():
            print(f"no committed benchmark file at {out}; "
                  f"run `python -m benchmarks.bench_regress` first")
            return 2
        committed = json.loads(out.read_text(encoding="utf-8"))
        if committed.get("schema") != SCHEMA:
            print(
                f"committed file is schema {committed.get('schema')}, not "
                f"{SCHEMA} (calibrated seconds); re-record it with "
                f"`python -m benchmarks.bench_regress`"
            )
            return 2
        print(f"checking against {out} "
              f"(tolerance {args.tolerance:.0%})")
        return check_regression(
            committed, matrices, args.repeats, args.tolerance,
            min_delta=args.min_delta,
        )

    print(f"timing kernels on {', '.join(matrices)} "
          f"(median of {args.repeats} calibrated runs)")
    report = run_benchmarks(matrices, args.repeats)
    out.write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\ngeomean speedups: " + ", ".join(
        f"{k}: x{v}" for k, v in report["geomean_speedup"].items()
    ))
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
