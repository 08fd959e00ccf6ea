"""End-to-end pipeline benchmark: the whole-sweep perf trajectory.

Where ``bench_regress`` times isolated kernels, this times the *full
pipeline* a paper-style experiment runs per (instance, seed):

    split -> medium-grain build -> multilevel partition ->
    iterative refinement -> volume -> vector distribution ->
    verified SpMV simulation

once per seed, three ways:

``baseline_serial_s``
    The pre-PR pipeline (frozen kernels and dict-based SpMV simulation
    from :mod:`benchmarks._baseline_e2e`), executed serially.
``current_serial_s``
    The live pipeline through the sweep engine with ``jobs=1``.
``current_parallel_s``
    The live pipeline through the sweep engine with ``--jobs`` workers
    (default 2).  On a single-core container this is expected to be
    *slower* than serial (process startup, no parallel hardware); it is
    recorded so the trajectory shows real parallel behaviour wherever
    the benchmark runs.

Every run is verified before its timing is trusted: the simulated SpMV
volume must equal the partitioner's volume, and the parallel sweep's
records must equal the serial sweep's (modulo measured seconds).  The
baseline coarsens by pair matching (its frozen sweep) while the live
pipeline grows multi-member clusters, so their volumes differ; both are
recorded (``volumes`` and ``baseline_volumes``), as the p-way stage
does.  The kernel-level identity at the pair limit is pinned by
``bench_regress`` and ``tests/kernels/test_equivalence.py``.

A third stage measures the **execution layer** itself: the frozen
pickled-payload pool
(:class:`benchmarks._baseline_e2e.PickledMatrixExecutor` — every task
ships a full submatrix) versus the shared-memory store
(the live process pool — tasks ship a segment handle plus an index
range).  Per (matrix, p): the real p-way partitioning is verified
bit-identical to serial under both pools and its shipped bytes are
audited (:func:`repro.utils.executor.payload_audit`, untimed); the
``speedup_shm`` gate then times *delivery* — a no-op probe mapped over
the p-way task shapes — because whole-run wall clock on a single-core
host cannot resolve the few-millisecond payload delta that the layer
removes (the full-partition times are recorded as context).

A fourth stage (``kway-ml``) benchmarks the **multilevel** direct
k-way engine (``algo="kway"`` — :mod:`repro.core.kway`, with
``kway_vcycles=KWAY_ML_VCYCLES``) head-to-head against recursive
bisection at the same p values, on the bench set plus the k-diagonal
structured instance.  Per (matrix, p) it verifies the k-way result is
bit-identical across ``jobs`` values (the partitioner has no recursion
tree, so the knob must be an exact no-op)
and that every part respects the eqn-(1) ceiling, and records
interleaved min-of wall clocks and the volume ratio ``kway-ml /
recursive``.  Both sides are *gated at generation time*: geomean volume
ratio <= ``KWAY_ML_RATIO_GATE`` AND geomean speedup >=
``KWAY_ML_SPEEDUP_GATE``.  ``tests/test_bench_e2e.py`` re-asserts the
committed numbers under ``pytest -m bench``.

A second stage times **p-way recursive bisection** (p in {4, 16, 64} —
the paper's Fig. 6b / Table II workload) three ways on every bench
matrix: the frozen pre-PR serial recursion
(:func:`benchmarks._baseline_e2e.baseline_partition` — traversal-order
seed stream over the frozen kernels), the live engine serially
(``jobs=1``), and the live engine on a worker pool (``--jobs``).  The
live serial and parallel partitions are asserted bit-identical (the
position-keyed seed streams guarantee it); the frozen baseline follows
the *old* seed discipline, so its volumes are recorded rather than
asserted.  ``speedup_parallel`` is the intra-matrix speedup of the
parallel engine over the frozen serial baseline — on multi-core hardware
it compounds the kernel gains with real concurrency; on a single-core
container it degenerates to the kernel gains minus pool overhead.

Usage::

    python -m benchmarks.bench_e2e              # write BENCH_e2e.json
    python -m benchmarks.bench_e2e --check      # compare vs. committed
    make bench-e2e                              # the --check mode
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks._baseline_e2e import (
    BASELINE_BACKEND,
    PICKLED_POOL,
    PickledMatrixExecutor,
    baseline_distribute_vectors,
    baseline_lambda_kernels,
    baseline_partition,
    baseline_pickled_pool,
    baseline_simulate_spmv,
)
from repro.core.methods import bipartition
from repro.core.recursive import partition
from repro.core.volume import max_allowed_part_size
from repro.eval.geomean import geometric_mean as _geomean
from repro.eval.sweep import RunSpec, run_sweep
from repro.partitioner.config import get_config
from repro.sparse.collection import build_collection, load_instance
from repro.utils.executor import (
    MatrixExecutor,
    RetryPolicy,
    payload_audit,
)
from repro.utils.rng import spawn_seeds

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_e2e.json"
#: One matrix per paper class plus the matching-heavy Chung-Lu square —
#: the adversarial case where scalar partitioning dominates end to end.
DEFAULT_MATRICES = ("sym_grid2d_l", "sqr_band_l", "rec_td_med_b", "sqr_cl_m")
BASE_SEED = 2014
#: Recursive-bisection depths of the p-way stage (the paper's Fig. 6b /
#: Table II run at p = 64; 4 and 16 chart how speedup grows with depth).
PWAY_PARTS = (4, 16, 64)
PIPELINE = (
    "split -> medium-grain build -> multilevel partition -> "
    "iterative refinement -> volume -> vector distribution -> "
    "verified SpMV simulation"
)


def _best_of(repeats: int, fn) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _class_of(name: str) -> str:
    for entry in build_collection():
        if entry.name == name:
            return entry.matrix_class.short
    raise KeyError(f"unknown collection instance {name!r}")


def make_specs(name: str, seeds: list[int]) -> list[RunSpec]:
    """The end-to-end work items for one matrix: MG+IR at every seed,
    with the downstream vector distribution + verified SpMV included."""
    cls = _class_of(name)
    return [
        RunSpec(
            index=i,
            instance=name,
            matrix_class=cls,
            label="MG+IR",
            method="mediumgrain",
            refine=True,
            seed=seed,
            verify_spmv=True,
        )
        for i, seed in enumerate(seeds)
    ]


def baseline_pipeline(matrix, seed: int) -> int:
    """One pre-PR end-to-end run; returns the communication volume."""
    cfg = dataclasses.replace(
        get_config("mondriaan"), kernel_backend=BASELINE_BACKEND
    )
    with baseline_lambda_kernels():
        res = bipartition(
            matrix, method="mediumgrain", refine=True, config=cfg, seed=seed
        )
        dist = baseline_distribute_vectors(matrix, res.parts, 2)
        _, words_fanout, words_fanin = baseline_simulate_spmv(
            matrix, res.parts, 2, dist
        )
    if words_fanout + words_fanin != res.volume:
        raise AssertionError(
            "baseline simulated volume disagrees with partitioner volume"
        )
    return res.volume


def bench_matrix(
    name: str, seeds: list[int], repeats: int, jobs: int,
    current_only: bool = False,
) -> dict:
    """Time the three pipeline variants on one matrix."""
    matrix = load_instance(name)
    specs = make_specs(name, seeds)

    serial_records = list(run_sweep(specs, jobs=1))  # warm caches
    current_volumes = [r.volume for r in serial_records]

    def run_serial():
        return list(run_sweep(specs, jobs=1))

    entry: dict = {
        "nnz": matrix.nnz,
        "volumes": current_volumes,
    }
    if current_only:
        entry["current_serial_s"] = round(_best_of(repeats, run_serial), 6)
        return entry

    # Baseline (pre-PR) serial pipeline: pair matching, so its volumes
    # are recorded beside the live ones rather than asserted equal.
    entry["baseline_volumes"] = [baseline_pipeline(matrix, s) for s in seeds]

    def run_baseline():
        for s in seeds:
            baseline_pipeline(matrix, s)

    # Interleave the two serial measurements: machine-load drift over
    # the benchmark's runtime then biases both sides equally instead of
    # whichever variant happened to run in the slow phase.
    best_cur = float("inf")
    best_base = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_serial()
        best_cur = min(best_cur, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_baseline()
        best_base = min(best_base, time.perf_counter() - t0)
    entry["current_serial_s"] = round(best_cur, 6)
    entry["baseline_serial_s"] = round(best_base, 6)
    entry["speedup_serial"] = round(
        entry["baseline_serial_s"] / entry["current_serial_s"], 3
    ) if entry["current_serial_s"] > 0 else float("inf")

    # Parallel sweep — verified bit-identical to serial, then timed.
    parallel_records = list(run_sweep(specs, jobs=jobs))
    strip = lambda rs: [dataclasses.replace(r, seconds=0.0) for r in rs]
    entry["parallel_bit_identical"] = (
        strip(parallel_records) == strip(serial_records)
    )
    if not entry["parallel_bit_identical"]:
        raise AssertionError(
            f"{name}: parallel sweep records differ from serial"
        )

    def run_parallel():
        return list(run_sweep(specs, jobs=jobs))

    entry["current_parallel_s"] = round(
        _best_of(max(1, repeats - 1), run_parallel), 6
    )
    return entry


def bench_pway_matrix(
    name: str, ps, repeats: int, jobs: int
) -> dict:
    """Time p-way recursive bisection three ways on one matrix.

    The live serial and parallel runs must be bit-identical (asserted);
    the frozen baseline follows the pre-PR traversal-order seed stream,
    so only its timing and volume are recorded.  The three variants are
    interleaved per repeat so machine-load drift biases them equally.
    """
    matrix = load_instance(name)
    entry: dict = {"nnz": matrix.nnz, "by_p": {}}
    for p in ps:
        # Warm caches, the persistent worker pool, and verify identity.
        serial = partition(
            matrix, p, method="mediumgrain", seed=BASE_SEED, jobs=1
        )
        par = partition(
            matrix, p, method="mediumgrain", seed=BASE_SEED, jobs=jobs
        )
        if not np.array_equal(serial.parts, par.parts):
            raise AssertionError(
                f"{name} p={p}: parallel partition differs from serial"
            )
        base_parts, base_volume = baseline_partition(
            matrix, p, method="mediumgrain", seed=BASE_SEED
        )
        best = [float("inf")] * 3
        for _ in range(repeats):
            t0 = time.perf_counter()
            partition(matrix, p, method="mediumgrain", seed=BASE_SEED, jobs=1)
            best[0] = min(best[0], time.perf_counter() - t0)
            t0 = time.perf_counter()
            partition(
                matrix, p, method="mediumgrain", seed=BASE_SEED, jobs=jobs
            )
            best[1] = min(best[1], time.perf_counter() - t0)
            t0 = time.perf_counter()
            baseline_partition(matrix, p, method="mediumgrain", seed=BASE_SEED)
            best[2] = min(best[2], time.perf_counter() - t0)
        cur_s, par_s, base_s = best
        entry["by_p"][str(p)] = {
            "volume": serial.volume,
            "baseline_volume": base_volume,
            "parallel_bit_identical": True,
            "current_serial_s": round(cur_s, 6),
            "current_parallel_s": round(par_s, 6),
            "baseline_serial_s": round(base_s, 6),
            "speedup_serial": round(base_s / cur_s, 3),
            "speedup_parallel": round(base_s / par_s, 3),
            "parallel_vs_serial": round(cur_s / par_s, 3),
        }
    return entry


#: Extra instances for the k-way stage on top of the bench set: the
#: structured k-diagonal case — long off-diagonals are where
#: contiguous-block bisection and direct k-way genuinely diverge.
KWAY_EXTRA_MATRICES = ("sym_kdiag_m",)


#: V-cycle count of the multilevel k-way (``kway-ml``) rows: one full
#: multilevel construction, no extra restricted V-cycles.  Measured as
#: the knee of the quality/speed curve on the bench set — ``vcycles=2``
#: buys ~3% more volume for roughly half the speed advantage, dropping
#: below the 2x gate.
KWAY_ML_VCYCLES = 1
#: Generation-time gates of the kway-ml stage: the multilevel engine
#: must land within 10% of recursive bisection's volume (geomean over
#: every (matrix, p) cell) while running at least twice as fast.
KWAY_ML_RATIO_GATE = 1.1
KWAY_ML_SPEEDUP_GATE = 2.0


def parallel_jobs(jobs: int) -> tuple[int, ...]:
    """The process-pool ``jobs`` values a bit-identity check compares
    against ``jobs=1``: 2 and the requested ``--jobs``."""
    return tuple(sorted({2, jobs}))


def bench_kway_ml_matrix(name: str, ps, repeats: int, jobs: int) -> dict:
    """Multilevel direct k-way vs recursive bisection on one matrix.

    The k-way side runs the multilevel engine
    (``kway_vcycles=KWAY_ML_VCYCLES``).  Per p, the partition must be
    bit-identical for ``jobs=1`` and every :func:`parallel_jobs` value,
    and every part must respect the eqn-(1) ceiling.
    Timings are interleaved min-of wall clocks; ``volume_ratio``
    (kway-ml / recursive) is the quantity the generation-time geomean
    gates aggregate.
    """
    matrix = load_instance(name)
    ml_cfg = dataclasses.replace(
        get_config("mondriaan"), kway_vcycles=KWAY_ML_VCYCLES
    )
    entry: dict = {"nnz": matrix.nnz, "by_p": {}}
    for p in ps:
        rec = partition(
            matrix, p, method="mediumgrain", seed=BASE_SEED, jobs=1
        )
        kw = partition(
            matrix, p, method="mediumgrain", seed=BASE_SEED,
            config=ml_cfg, algo="kway",
        )
        ceiling = max_allowed_part_size(matrix.nnz, p, 0.03)
        if not kw.feasible or kw.max_part > ceiling:
            raise AssertionError(
                f"{name} p={p}: kway-ml max part {kw.max_part} exceeds "
                f"the eqn-(1) ceiling {ceiling}"
            )
        for jv in (1, *parallel_jobs(jobs)):
            res = partition(
                matrix, p, method="mediumgrain", seed=BASE_SEED,
                config=ml_cfg, algo="kway", jobs=jv,
            )
            if not np.array_equal(kw.parts, res.parts):
                raise AssertionError(
                    f"{name} p={p}: kway-ml partition differs under "
                    f"jobs={jv}"
                )
        best_kw = float("inf")
        best_rec = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            partition(
                matrix, p, method="mediumgrain", seed=BASE_SEED,
                config=ml_cfg, algo="kway",
            )
            best_kw = min(best_kw, time.perf_counter() - t0)
            t0 = time.perf_counter()
            partition(
                matrix, p, method="mediumgrain", seed=BASE_SEED, jobs=1
            )
            best_rec = min(best_rec, time.perf_counter() - t0)
        entry["by_p"][str(p)] = {
            "volume_kway_ml": kw.volume,
            "volume_recursive": rec.volume,
            "volume_ratio": round(kw.volume / rec.volume, 3)
            if rec.volume
            else float("inf"),
            "kway_ml_s": round(best_kw, 6),
            "recursive_s": round(best_rec, 6),
            "speedup_kway_ml": round(best_rec / best_kw, 3)
            if best_kw > 0
            else float("inf"),
            "max_part_kway_ml": kw.max_part,
            "imbalance_kway_ml": round(kw.imbalance, 6),
            "ceiling": ceiling,
            "feasible": True,
            "bit_identical": True,
            "method": kw.method,
        }
    return entry


def _delivery_probe(sub, extra):
    """Executor task that only *receives* its submatrix (one touch so
    lazy views cannot be optimized away), isolating delivery cost."""
    return (sub.nnz, extra)


def bench_exec_matrix(name: str, ps, repeats: int, jobs: int) -> dict:
    """Time the pickled-payload pool against the shared-memory store on
    one matrix.

    For every p, three measurements:

    * **Identity + payload** on the real partitioning: each pool's
      p-way partition is verified bit-identical to the serial reference,
      and its per-run shipped bytes are recorded by an (untimed)
      :func:`~repro.utils.executor.payload_audit` run — the direct
      evidence of the pickling cut.
    * **Delivery timing** (the ``speedup_shm`` gate): the executor maps
      a no-op probe over ``p`` index chunks of the matrix — exactly the
      task shapes the p-way scheduler dispatches — under the pickled
      pool and the shared-memory store.  This isolates what the layer
      changed (select + serialize + ship + reconstruct); whole-run wall
      clock on a loaded single-core host cannot resolve a
      few-millisecond payload delta under hundreds of milliseconds of
      partitioning compute, so the full-partition timings below are
      context, not the gate.
    * **Full-partition timing** (context): interleaved min-of wall
      clock of the real p-way run under both pools.
    """
    matrix = load_instance(name)
    entry: dict = {"nnz": matrix.nnz, "by_p": {}}
    # Mode -> (executor class, context swapping it into the recursion).
    modes = {
        "pickled": (PickledMatrixExecutor, baseline_pickled_pool),
        "shm": (MatrixExecutor, contextlib.nullcontext),
    }

    def run(mode: str, p: int):
        with modes[mode][1]():
            return partition(
                matrix, p, method="mediumgrain", seed=BASE_SEED,
                jobs=jobs,
            )

    for p in ps:
        serial = partition(
            matrix, p, method="mediumgrain", seed=BASE_SEED, jobs=1
        )
        payloads: dict[str, int] = {}
        part_best = {mode: float("inf") for mode in modes}
        for mode in modes:
            # Warm pools/caches and verify identity; then audit payloads.
            if not np.array_equal(serial.parts, run(mode, p).parts):
                raise AssertionError(
                    f"{name} p={p} {mode} pool: partition differs from "
                    f"serial"
                )
            with payload_audit() as audit:
                run(mode, p)
            payloads[mode] = audit["bytes"]
        for _ in range(repeats):
            for mode in modes:
                t0 = time.perf_counter()
                run(mode, p)
                part_best[mode] = min(
                    part_best[mode], time.perf_counter() - t0
                )

        # Delivery gate: p index chunks (the p-way task shapes) through
        # a no-op probe, interleaved min-of timing.
        chunk_rng = np.random.default_rng(BASE_SEED)
        owner = chunk_rng.integers(0, p, matrix.nnz)
        tasks = [(np.flatnonzero(owner == k), k) for k in range(p)]
        delivery_best = {mode: float("inf") for mode in modes}
        executors = {
            mode: cls(matrix, jobs, "process")
            for mode, (cls, _) in modes.items()
        }
        try:
            for mode, ex in executors.items():
                ex.map(_delivery_probe, tasks)  # warm pools + store
            for _ in range(repeats + 2):
                for mode, ex in executors.items():
                    t0 = time.perf_counter()
                    out = ex.map(_delivery_probe, tasks)
                    delivery_best[mode] = min(
                        delivery_best[mode], time.perf_counter() - t0
                    )
                    if [o[0] for o in out] != [t[0].size for t in tasks]:
                        raise AssertionError(
                            f"{name} p={p}: delivery probe returned "
                            f"wrong submatrices under the {mode} pool"
                        )
        finally:
            for ex in executors.values():
                ex.close()
        entry["by_p"][str(p)] = {
            "volume": serial.volume,
            "bit_identical": True,
            "pickled_s": round(delivery_best["pickled"], 6),
            "shm_s": round(delivery_best["shm"], 6),
            "speedup_shm": round(
                delivery_best["pickled"] / delivery_best["shm"], 3
            ),
            "partition_pickled_s": round(part_best["pickled"], 6),
            "partition_shm_s": round(part_best["shm"], 6),
            "payload_pickled_bytes": payloads["pickled"],
            "payload_shm_bytes": payloads["shm"],
            "payload_cut": round(
                payloads["pickled"] / payloads["shm"], 2
            ) if payloads["shm"] else float("inf"),
        }
    return entry


def run_benchmarks(
    matrices=DEFAULT_MATRICES,
    nseeds: int = 3,
    repeats: int = 3,
    jobs: int = 2,
    pway_parts=PWAY_PARTS,
) -> dict:
    """Time every matrix; returns the report dict."""
    seeds = spawn_seeds(BASE_SEED, nseeds)
    report = {
        "schema": 1,
        "pipeline": PIPELINE,
        "repeats": repeats,
        "base_seed": BASE_SEED,
        "seeds": seeds,
        "jobs_parallel": jobs,
        "matrices": {},
    }
    for name in matrices:
        entry = bench_matrix(name, seeds, repeats, jobs)
        report["matrices"][name] = entry
        print(
            f"  {name:14s} baseline {entry['baseline_serial_s']:7.3f} s   "
            f"serial {entry['current_serial_s']:7.3f} s   "
            f"parallel(j{jobs}) {entry['current_parallel_s']:7.3f} s   "
            f"x{entry['speedup_serial']:.2f}"
        )
    speedups = [
        report["matrices"][m]["speedup_serial"] for m in matrices
    ]
    report["geomean_speedup_serial"] = round(_geomean(speedups), 3)

    # p-way recursive-bisection stage.
    pway: dict = {
        "method": "mediumgrain",
        "ps": [int(p) for p in pway_parts],
        "jobs": jobs,
        "matrices": {},
    }
    for name in matrices:
        entry = bench_pway_matrix(name, pway_parts, repeats, jobs)
        pway["matrices"][name] = entry
        for p in pway_parts:
            e = entry["by_p"][str(p)]
            print(
                f"  {name:14s} p={p:<3d} baseline "
                f"{e['baseline_serial_s']:7.3f} s   serial "
                f"{e['current_serial_s']:7.3f} s   parallel(j{jobs}) "
                f"{e['current_parallel_s']:7.3f} s   "
                f"x{e['speedup_parallel']:.2f}"
            )
    per_p_parallel = {
        str(p): round(
            _geomean([
                pway["matrices"][m]["by_p"][str(p)]["speedup_parallel"]
                for m in matrices
            ]), 3,
        )
        for p in pway_parts
    }
    pway["geomean_speedup_parallel_by_p"] = per_p_parallel
    pway["geomean_speedup_parallel"] = round(
        _geomean([
            pway["matrices"][m]["by_p"][str(p)]["speedup_parallel"]
            for m in matrices for p in pway_parts
        ]), 3,
    )
    pway["geomean_speedup_serial"] = round(
        _geomean([
            pway["matrices"][m]["by_p"][str(p)]["speedup_serial"]
            for m in matrices for p in pway_parts
        ]), 3,
    )
    report["pway"] = pway

    # Execution-layer stage: pickled pool vs shared-memory workers.
    exec_section: dict = {
        "baseline": PICKLED_POOL,
        "current": "process",
        "ps": [int(p) for p in pway_parts],
        "jobs": jobs,
        "matrices": {},
    }
    for name in matrices:
        entry = bench_exec_matrix(name, pway_parts, repeats, jobs)
        exec_section["matrices"][name] = entry
        for p in pway_parts:
            e = entry["by_p"][str(p)]
            print(
                f"  {name:14s} p={p:<3d} delivery pickled "
                f"{e['pickled_s']:7.4f} s   shm {e['shm_s']:7.4f} s   "
                f"x{e['speedup_shm']:.2f}   payload "
                f"{e['payload_pickled_bytes']:>10d} -> "
                f"{e['payload_shm_bytes']:>9d} B "
                f"(x{e['payload_cut']:.1f} cut)"
            )
    exec_section["geomean_speedup_shm"] = round(
        _geomean([
            exec_section["matrices"][m]["by_p"][str(p)]["speedup_shm"]
            for m in matrices for p in pway_parts
        ]), 3,
    )
    report["exec"] = exec_section

    kway_names = tuple(
        dict.fromkeys(tuple(matrices) + KWAY_EXTRA_MATRICES)
    )
    # Multilevel direct k-way stage — same grid, gated at generation.
    kway_ml_section: dict = {
        "method": "mediumgrain",
        "baseline": "recursive",
        "current": "kway-ml",
        "kway_vcycles": KWAY_ML_VCYCLES,
        "ps": [int(p) for p in pway_parts],
        "eps": 0.03,
        "ratio_gate": KWAY_ML_RATIO_GATE,
        "speedup_gate": KWAY_ML_SPEEDUP_GATE,
        "matrices": {},
    }
    for name in kway_names:
        entry = bench_kway_ml_matrix(name, pway_parts, repeats, jobs)
        kway_ml_section["matrices"][name] = entry
        for p in pway_parts:
            e = entry["by_p"][str(p)]
            print(
                f"  {name:14s} p={p:<3d} kway-ml vol "
                f"{e['volume_kway_ml']:>6d} ({e['kway_ml_s']:7.3f} s)   "
                f"recursive vol {e['volume_recursive']:>6d} "
                f"({e['recursive_s']:7.3f} s)  ratio x{e['volume_ratio']:.2f}"
                f"  speed x{e['speedup_kway_ml']:.2f}"
            )
    ml_cells = [
        kway_ml_section["matrices"][m]["by_p"][str(p)]
        for m in kway_names for p in pway_parts
    ]
    kway_ml_section["geomean_volume_ratio"] = round(
        _geomean([c["volume_ratio"] for c in ml_cells]), 3
    )
    kway_ml_section["geomean_volume_ratio_by_p"] = {
        str(p): round(
            _geomean([
                kway_ml_section["matrices"][m]["by_p"][str(p)]["volume_ratio"]
                for m in kway_names
            ]), 3,
        )
        for p in pway_parts
    }
    kway_ml_section["geomean_speedup_kway_ml"] = round(
        _geomean([c["speedup_kway_ml"] for c in ml_cells]), 3
    )
    if kway_ml_section["geomean_volume_ratio"] > KWAY_ML_RATIO_GATE:
        raise AssertionError(
            f"kway-ml geomean volume ratio "
            f"{kway_ml_section['geomean_volume_ratio']} exceeds the "
            f"{KWAY_ML_RATIO_GATE} gate — the multilevel engine lost its "
            f"quality contract"
        )
    if kway_ml_section["geomean_speedup_kway_ml"] < KWAY_ML_SPEEDUP_GATE:
        raise AssertionError(
            f"kway-ml geomean speedup "
            f"{kway_ml_section['geomean_speedup_kway_ml']} is below the "
            f"{KWAY_ML_SPEEDUP_GATE}x gate — the multilevel engine lost "
            f"its speed contract"
        )
    report["kway_ml"] = kway_ml_section
    return report


#: The --smoke instance set: one tiny matrix per paper class, enough to
#: drive every pipeline stage in seconds.
SMOKE_MATRICES = ("sym_grid2d_s", "rec_td_small_a", "sqr_er_s")


def run_smoke(jobs: int) -> int:
    """CI smoke: completion + bit-identity across ``jobs`` values.

    Runs the whole-pipeline sweep, a p=4 recursive bisection and a p=4
    multilevel direct k-way partitioning (``--algo kway`` with
    ``kway_vcycles=2`` — one multilevel construction plus one restricted
    V-cycle, so both halves of the multilevel engine execute) on tiny
    instances with 2 and ``--jobs`` process-pool workers, asserting the
    results equal the ``jobs=1`` reference and that every
    k-way part respects the eqn-(1) ceiling.  **No wall-clock gating** —
    this exists so a cold CI runner proves the parallel plumbing end to
    end, not to race it.
    """
    seeds = spawn_seeds(BASE_SEED, 1)
    cfg = get_config("mondriaan")
    ml_cfg = dataclasses.replace(cfg, kway_vcycles=2)
    failures = 0
    for name in SMOKE_MATRICES:
        matrix = load_instance(name)
        specs = make_specs(name, seeds)
        serial_records = list(run_sweep(specs, jobs=1))
        strip = lambda rs: [
            dataclasses.replace(r, seconds=0.0) for r in rs
        ]
        records = list(run_sweep(specs, jobs=jobs))
        if strip(records) != strip(serial_records):
            print(f"FAIL sweep {name} jobs={jobs}")
            failures += 1
        serial = partition(
            matrix, 4, method="mediumgrain", seed=BASE_SEED,
            config=cfg, jobs=1,
        )
        ml_serial = partition(
            matrix, 4, method="mediumgrain", seed=BASE_SEED,
            config=ml_cfg, jobs=1, algo="kway",
        )
        ceiling = max_allowed_part_size(matrix.nnz, 4, 0.03)
        if ml_serial.max_part > ceiling:
            print(f"FAIL kway-ml ceiling {name}")
            failures += 1
        for jv in parallel_jobs(jobs):
            res = partition(
                matrix, 4, method="mediumgrain", seed=BASE_SEED,
                config=cfg, jobs=jv,
            )
            ok = np.array_equal(serial.parts, res.parts)
            mres = partition(
                matrix, 4, method="mediumgrain", seed=BASE_SEED,
                config=ml_cfg, jobs=jv, algo="kway",
            )
            mok = np.array_equal(ml_serial.parts, mres.parts)
            failures += (not ok) + (not mok)
            print(
                f"  {name:14s} jobs={jv:<3d} "
                f"volume={res.volume:<6d} "
                f"{'ok' if ok else 'MISMATCH'}  "
                f"kway-ml={mres.volume:<6d} "
                f"{'ok' if mok else 'MISMATCH'}"
            )
    failures += _smoke_retry_path(jobs)
    print(
        f"\nsmoke: {len(SMOKE_MATRICES)} matrices x (recursive + "
        f"kway-ml + retry-path), jobs=1 vs {list(parallel_jobs(jobs))}; "
        f"{failures} failure(s)"
    )
    return 1 if failures else 0


def _smoke_retry_path(jobs: int) -> int:
    """Hardened-path smoke: one injected-crash run, one checkpoint
    resume, plus the happy-path watchdog overhead gate.

    The retry-path run SIGKILLs the first sweep chunk worker (a real
    kill, fired once across all processes via the harness's filesystem
    token) and asserts the hardened sweep still streams records
    bit-identical to the serial reference, with failure briefs recorded.
    The resume run hands a hardened checkpointed sweep a half-written
    journal (ending in a torn line) and requires the merged stream to
    match the serial reference bit for bit and the journal to end
    complete.  The overhead gate then times the same sweep plain vs
    armed (deadline + retries configured, nothing failing) and requires
    the armed path to stay within 2% of the plain one plus a small
    absolute slack for CI timer noise — min over repeats, so pool
    warm-up cancels out.
    """
    import tempfile

    from repro.utils import faults
    from repro.utils.executor import shutdown_pools

    failures = 0
    armed_policy = RetryPolicy(timeout=60.0, retries=2)
    seeds = spawn_seeds(BASE_SEED, 1)
    # One sweep over every smoke matrix: positions must be unique across
    # it (make_specs numbers each matrix from 0), or a checkpoint would
    # replay one matrix's record in place of another's.
    specs = [
        dataclasses.replace(spec, index=i)
        for i, spec in enumerate(
            spec for name in SMOKE_MATRICES
            for spec in make_specs(name, seeds)
        )
    ]
    strip = lambda rs: [
        dataclasses.replace(r, seconds=0.0, failures=()) for r in rs
    ]
    serial = list(run_sweep(specs, jobs=1))

    token = tempfile.mktemp(prefix="repro-smoke-fault-")
    rule = faults.FaultRule(
        point="sweep.chunk", kind="crash", hits=(1,), once_token=token
    )
    with faults.install([rule]):
        hardened = list(
            run_sweep(specs, jobs=jobs, policy=armed_policy)
        )
    if strip(hardened) != strip(serial):
        print("FAIL retry-path records differ from the serial reference")
        failures += 1
    if not any(r.failures for r in hardened):
        print("FAIL retry-path run recorded no failure briefs")
        failures += 1
    else:
        briefs = sorted({b for r in hardened for b in r.failures})
        print(f"  retry-path: recovered, briefs={briefs}")

    with tempfile.TemporaryDirectory(prefix="repro-smoke-journal-") as tmp:
        full, half = Path(tmp) / "full.jsonl", Path(tmp) / "half.jsonl"
        list(run_sweep(specs, jobs=1, checkpoint=full))
        lines = full.read_text().splitlines()
        keep = 1 + len(specs) // 2  # the header plus half the records
        half.write_text("\n".join(lines[:keep]) + '\n{"index": ')
        resumed = list(
            run_sweep(specs, jobs=jobs, policy=RetryPolicy(retries=2),
                      checkpoint=half)
        )
        journaled = len(half.read_text().splitlines())
    if strip(resumed) != strip(serial):
        print("FAIL resumed hardened sweep differs from the serial "
              "reference")
        failures += 1
    elif journaled != 1 + len(specs):
        print(f"FAIL resumed journal holds {journaled - 1} of "
              f"{len(specs)} records")
        failures += 1
    else:
        print(f"  checkpoint resume: {keep - 1} journaled + "
              f"{len(specs) - keep + 1} rerun, bit-identical")

    def best(run_kwargs: dict) -> float:
        t = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            list(run_sweep(specs, jobs=jobs, **run_kwargs))
            t = min(t, time.perf_counter() - t0)
        return t

    shutdown_pools()
    plain = best({})
    armed = best({"policy": armed_policy})
    budget = plain * 1.02 + 0.25
    ok = armed <= budget
    print(
        f"  watchdog overhead: plain {plain:.3f}s vs armed {armed:.3f}s "
        f"(budget {budget:.3f}s) {'ok' if ok else 'OVER'}"
    )
    failures += not ok
    return failures


def check_regression(
    committed: dict, matrices, nseeds: int, repeats: int,
    tolerance: float, min_delta: float,
) -> int:
    """Re-time the live serial pipeline against the committed file.

    A matrix counts as regressed only when it is both ``tolerance``
    slower relatively and ``min_delta`` seconds slower absolutely.
    Returns a process exit code.
    """
    seeds = committed.get("seeds") or spawn_seeds(
        committed.get("base_seed", BASE_SEED), nseeds
    )
    failures = []
    for name in matrices:
        ref_entry = committed.get("matrices", {}).get(name)
        if ref_entry is None:
            print(f"  {name}: not in committed file, skipping")
            continue
        entry = bench_matrix(
            name, list(seeds), repeats, jobs=1, current_only=True
        )
        if entry["volumes"] != ref_entry.get("volumes", entry["volumes"]):
            print(f"  {name}: volumes changed — retime with a fresh "
                  f"`python -m benchmarks.bench_e2e`")
            failures.append((name, float("nan")))
            continue
        cur = entry["current_serial_s"]
        ref = ref_entry["current_serial_s"]
        ratio = cur / ref if ref > 0 else 1.0
        regressed = ratio > 1.0 + tolerance and cur - ref > min_delta
        flag = "REGRESSION" if regressed else "ok"
        print(
            f"  {name:14s} committed {ref:7.3f} s  current {cur:7.3f} s  "
            f"x{ratio:5.2f}  {flag}"
        )
        if regressed:
            failures.append((name, ratio))
    if failures:
        print(f"\n{len(failures)} end-to-end timing(s) regressed more "
              f"than {tolerance:.0%}:")
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x the committed time")
        return 1
    print("\nend-to-end pipeline within tolerance")
    return 0


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(
        prog="bench_e2e",
        description="end-to-end pipeline benchmark harness",
    )
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed JSON instead "
                             "of rewriting it")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: tiny instances, jobs=1 against "
                             "2 and --jobs process-pool workers, gate on "
                             "completion and bit-identity only (no "
                             "timings, no JSON)")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--matrices", default=",".join(DEFAULT_MATRICES),
                        help="comma-separated collection instance names")
    parser.add_argument("--nseeds", type=int, default=3,
                        help="seeds per matrix (deterministic tree)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (min is kept)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the parallel timing")
    parser.add_argument("--pway-parts", default=",".join(map(str, PWAY_PARTS)),
                        help="comma-separated p values for the recursive-"
                             "bisection stage")
    # Whole-pipeline wall-clock jitters far more than the isolated-kernel
    # microbenchmarks (scheduler noise integrates over hundreds of ms on
    # shared runners), so the end-to-end gate is looser than the 25%
    # kernel gate by default.
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="--check relative failure threshold")
    parser.add_argument("--min-delta", type=float, default=5e-2,
                        help="--check absolute floor in seconds")
    args = parser.parse_args(argv)
    matrices = tuple(m for m in args.matrices.split(",") if m)
    out = Path(args.out)

    if args.smoke:
        print(f"execution-layer smoke (jobs={args.jobs})")
        return run_smoke(args.jobs)

    if args.check:
        if not out.exists():
            print(f"no committed benchmark file at {out}; "
                  f"run `python -m benchmarks.bench_e2e` first")
            return 2
        committed = json.loads(out.read_text(encoding="utf-8"))
        print(f"checking end-to-end pipeline against {out} "
              f"(tolerance {args.tolerance:.0%})")
        return check_regression(
            committed, matrices, args.nseeds, args.repeats,
            args.tolerance, args.min_delta,
        )

    print(f"timing the end-to-end pipeline on {', '.join(matrices)} "
          f"({args.nseeds} seeds, min of {args.repeats} runs, "
          f"parallel jobs={args.jobs})")
    report = run_benchmarks(
        matrices, args.nseeds, args.repeats, args.jobs,
        pway_parts=tuple(int(p) for p in args.pway_parts.split(",") if p),
    )
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\ngeomean end-to-end speedup (serial, vs pre-PR): "
          f"x{report['geomean_speedup_serial']}")
    print(f"geomean p-way speedup (parallel j{args.jobs}, vs frozen serial "
          f"baseline): x{report['pway']['geomean_speedup_parallel']}")
    print(f"geomean exec-layer speedup (shared-memory vs pickled pool): "
          f"x{report['exec']['geomean_speedup_shm']}")
    print(f"geomean kway-ml (vcycles={report['kway_ml']['kway_vcycles']}) "
          f"speedup: x{report['kway_ml']['geomean_speedup_kway_ml']} at "
          f"volume ratio {report['kway_ml']['geomean_volume_ratio']} "
          f"(gates: ratio <= {KWAY_ML_RATIO_GATE}, "
          f"speed >= {KWAY_ML_SPEEDUP_GATE}x)")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
