"""The in-process workloads: ``bisect``, ``pway`` and ``kway``.

Each run works through *passes*.  A pass is the seeded list of main ops
(every matrix of the workload, each with several partitioning seeds,
in a seeded order) followed by a few deadline-bound ops per matrix.  The
run repeats whole passes for about ``--seconds``, so every
count and the volume geomean are exact for a given seed; each op's
latency is its median over the passes.

Main ops
  ``bisect``  serial MG+IR bipartition, scored with
              ``communication_volume``, ``distribute_vectors`` and a
              verified ``simulate_spmv`` (the paper's pipeline);
  ``pway``    recursive bisection to p=64 with ``jobs=2`` (the
              shared-memory process executor);
  ``kway``    multilevel direct k-way to p=64 with one restricted
              V-cycle, serial.
Deadline ops
  The same engine with a 10 ms ``Deadline``: how late an anytime
  answer comes back (ROADMAP item 2) on each engine.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from dataclasses import dataclass

import numpy as np

from common import (
    EPS, Calibration, Tally, check_answer, digest, geomean, make_workdir,
    median, peak_rss_mb, percentile, ratio, remove_workdir, slowdown,
)

#: Soft deadline of the deadline-bound ops (seconds); far below any
#: main op's duration, so it always expires mid-run.
DEADLINE_S = 0.01

#: Passes an untraced run makes at least, so every op's latency is a
#: median of several samples.
MIN_PASSES = 2


@dataclass(frozen=True)
class Spec:
    """What one batch workload runs."""

    matrices: tuple[str, ...]
    seeds_per_matrix: int
    nparts: int
    deadline_seeds_per_matrix: int = 4
    jobs: int = 1
    algo: str = "recursive"
    refine: bool = False
    setups: int = 5
    #: Small fixed op run once per setup (pool start, lazy imports).
    warmup: tuple[str, int] = ("sqr_cl_m", 2)


SPECS = {
    "bisect": Spec(
        matrices=("sym_grid2d_l", "sqr_band_l", "rec_td_med_b", "sqr_cl_m"),
        seeds_per_matrix=8, nparts=2, refine=True,
    ),
    "pway": Spec(
        matrices=("sym_grid2d_l", "sqr_band_l"),
        seeds_per_matrix=3, nparts=64, jobs=2, setups=7,
        deadline_seeds_per_matrix=6, warmup=("sqr_cl_m", 4),
    ),
    # Its deadline ops are short (≈50 ms), so many of them cost little.
    "kway": Spec(
        matrices=("sym_grid2d_l", "sqr_band_l"),
        seeds_per_matrix=3, nparts=64, algo="kway", setups=9,
        deadline_seeds_per_matrix=10, warmup=("sqr_cl_m", 8),
    ),
}


def make_inputs(spec: Spec, seed: int, short: bool):
    """The seeded op lists: ``(matrix, partition seed)`` pairs for the
    main ops (shuffled) and for the deadline ops."""
    rng = np.random.default_rng(seed)
    per = 1 if short else spec.seeds_per_matrix
    ops = [
        (name, int(rng.integers(1, 2**31)))
        for name in spec.matrices for _ in range(per)
    ]
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    deadline_ops = [
        (name, int(rng.integers(1, 2**31)))
        for name in spec.matrices
        for _ in range(1 if short else spec.deadline_seeds_per_matrix)
    ]
    return ops, deadline_ops


class Runner:
    """Runs one batch workload's ops against the public entry points."""

    def __init__(self, workload: str) -> None:
        from repro.partitioner.config import get_config

        self.name = workload
        self.spec = SPECS[workload]
        # One restricted V-cycle after the multilevel construction, so
        # the V-cycle layer (keep-best) does work on this workload.
        self.config = dataclasses.replace(
            get_config("mondriaan"),
            kway_vcycles=2 if self.spec.algo == "kway" else 0,
        )
        self.matrices: dict = {}

    # -- set-up --------------------------------------------------------
    def setup(self) -> tuple[float, float]:
        """Generate the instances, start the pool (``pway``) and run the
        warm-up op; returns ``(setup seconds, instance-load seconds)``,
        the first divided by the machine's slowdown."""
        from repro.sparse.collection import load_instance
        from repro.utils.executor import shutdown_pools

        shutdown_pools(wait=True)
        load_instance.cache_clear()
        slow = slowdown()
        t0 = time.perf_counter()
        names = sorted(set(self.spec.matrices) | {self.spec.warmup[0]})
        self.matrices = {n: load_instance(n) for n in names}
        t_load = time.perf_counter() - t0
        name, nparts = self.spec.warmup
        self._partition(self.matrices[name], 0, nparts=nparts)
        return (time.perf_counter() - t0) / slow, t_load

    # -- ops -----------------------------------------------------------
    def _partition(self, a, seed, nparts=None, deadline=None, jobs=None):
        from repro import bipartition, partition

        nparts = self.spec.nparts if nparts is None else nparts
        if nparts == 2 and deadline is None:
            return bipartition(
                a, method="mediumgrain", eps=EPS, refine=self.spec.refine,
                seed=seed,
            )
        return partition(
            a, nparts, method="mediumgrain", eps=EPS,
            refine=self.spec.refine, config=self.config, seed=seed,
            jobs=self.spec.jobs if jobs is None else jobs,
            algo=self.spec.algo, deadline=deadline,
        )

    def main_op(self, a, seed):
        """One timed op; returns ``(parts, reported volume, recomputed
        volume or None, extra problems)``."""
        res = self._partition(a, seed)
        if self.name != "bisect":
            return res.parts, res.volume, None, []
        # The paper's pipeline scores every answer: eqn-(3) volume, a
        # vector distribution, and a verified distributed SpMV whose
        # word count must equal the volume.
        from repro.core.volume import communication_volume
        from repro.obs import trace as _trace
        from repro.spmv import distribute_vectors, simulate_spmv

        with _trace.span("core.volume"):
            volume = communication_volume(a, res.parts)
        with _trace.span("spmv"):
            dist = distribute_vectors(a, res.parts, 2)
            report = simulate_spmv(a, res.parts, 2, dist=dist)
        extra = []
        if report.volume != volume:
            extra.append(f"SpMV moved {report.volume} words, volume {volume}")
        return res.parts, res.volume, volume, extra

    def deadline_op(self, a, seed):
        from repro.utils.deadline import Deadline

        res = self._partition(a, seed, deadline=Deadline(DEADLINE_S))
        return res.parts, res.volume


@dataclass
class Phase:
    """What one timed phase measured.

    Times are divided by the machine's slowdown measured just before
    the op (:class:`common.Calibration`) and kept per op over the passes;
    each op's timing is the median over its passes, and the run's
    timings are computed from those medians.
    """

    #: ``(matrix, seed) -> latencies`` of the main ops.
    main: dict = dataclasses.field(default_factory=dict)
    #: ``(matrix, seed) -> overshoots`` (latency minus the deadline).
    overshoots: dict = dataclasses.field(default_factory=dict)
    first_pass_volumes: list = dataclasses.field(default_factory=list)
    passes: int = 0

    def op_medians(self) -> list:
        return [median(v) for v in self.main.values()]

    @property
    def ops_per_s(self) -> float:
        """Main ops per second of (median) op time."""
        meds = self.op_medians()
        return ratio(len(meds), sum(meds))

    @property
    def overshoot(self) -> float:
        """Median over the deadline ops of their median overshoot."""
        return median([median(v) for v in self.overshoots.values()])


def run_phase(runner: Runner, ops, deadline_ops, seconds: float,
              tally: Tally, digests: dict, min_passes: int = 1) -> Phase:
    """Repeat whole passes for about ``seconds``, at least
    ``min_passes`` of them."""
    from repro.obs import trace as _trace

    phase = Phase()
    calibration = Calibration()
    t_start = time.perf_counter()
    t_end = t_start + seconds
    nparts = runner.spec.nparts
    while True:
        for name, seed in ops:
            a = runner.matrices[name]
            what = f"{runner.name} {name} seed={seed}"
            slow = calibration.slowdown()
            try:
                with _trace.span("bench.op", kind="main"):
                    t0 = time.perf_counter()
                    parts, volume, recomputed, extra = runner.main_op(a, seed)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                tally.record(what, [f"raised {type(exc).__name__}: {exc}"])
                continue
            _collect()
            problems = extra + check_answer(a, parts, nparts, volume,
                                            recomputed)
            # Every pass repeats the same ops: answers must repeat too.
            fingerprint = digest(parts)
            if digests.setdefault((name, seed), fingerprint) != fingerprint:
                problems.append("answer differs from an earlier pass")
            tally.record(what, problems)
            phase.main.setdefault((name, seed), []).append(dt / slow)
            if phase.passes == 0:
                phase.first_pass_volumes.append(volume)
        for name, seed in deadline_ops:
            a = runner.matrices[name]
            what = f"{runner.name} deadline {name} seed={seed}"
            slow = calibration.slowdown()
            try:
                with _trace.span("bench.op", kind="deadline"):
                    t0 = time.perf_counter()
                    parts, volume = runner.deadline_op(a, seed)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                tally.record(what, [f"raised {type(exc).__name__}: {exc}"])
                continue
            _collect()
            tally.record(what, check_answer(a, parts, nparts, volume))
            phase.overshoots.setdefault((name, seed), []).append(
                (dt - DEADLINE_S) / slow)
        phase.passes += 1
        # Stop at the pass boundary nearest to the time budget.
        now = time.perf_counter()
        if (phase.passes >= min_passes
                and now + (now - t_start) / phase.passes / 2 >= t_end):
            return phase


def _collect() -> None:
    """Untimed full garbage collection after every op.

    An op's hypergraphs hold reference cycles (cached pass state points
    back at its hypergraph), so their arrays wait for the cyclic
    collector.  Collecting here makes the peak resident set one op's
    working set, not a matter of when the collector last ran.
    """
    gc.collect()


def check_references(runner: Runner, ops, digests: dict,
                     tally: Tally) -> None:
    """``pway``: the ``jobs=2`` answer of the first op on each matrix
    must be bit-identical to a serial ``jobs=1`` run (untimed)."""
    if runner.spec.jobs < 2:
        return
    seen = set()
    for name, seed in ops:
        if name in seen:
            continue
        seen.add(name)
        ref = runner._partition(runner.matrices[name], seed, jobs=1)
        op_id = tally.record(f"{runner.name} jobs=1 reference {name}", [])
        if digests.get((name, seed)) != digest(ref.parts):
            tally.fail(op_id, f"{runner.name} {name} seed={seed}",
                       ["jobs=2 parts differ from the jobs=1 reference"])


def run(workload: str, seed: int, seconds: float, trace: bool,
        short: bool) -> dict:
    """One benchmark run of a batch workload; returns the result dict
    (metrics as ``name -> value``; units are added by the caller)."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as _trace
    from repro.obs.report import read_trace
    from repro.utils.executor import payload_audit, shutdown_pools

    import layers

    if trace:
        # Before the first setup: that is where the pool forks.
        layers.install_wrappers()
    runner = Runner(workload)
    ops, deadline_ops = make_inputs(runner.spec, seed, short)
    setups = [runner.setup() for _ in range(1 if short else runner.spec.setups)]
    tally, digests = Tally(), {}
    work = make_workdir(workload)
    try:
        if not trace:
            phase = run_phase(runner, ops, deadline_ops, seconds, tally,
                              digests, min_passes=1 if short else MIN_PASSES)
            meds = phase.op_medians()
            check_references(runner, ops, digests, tally)
            shutdown_pools(wait=True)  # reap workers before reading RSS
            metrics = {
                "setup_s": median([s for s, _ in setups]),
                "ops_per_s": phase.ops_per_s,
                "latency_p50_ms": 1000.0 * percentile(meds, 50),
                "latency_p95_ms": 1000.0 * percentile(meds, 95),
                "deadline_overshoot_p50_ms": 1000.0 * phase.overshoot,
                "volume_geomean": geomean(phase.first_pass_volumes),
                "ok_frac": 1.0 - ratio(tally.failed, tally.attempted),
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            # Untraced and traced halves on the same inputs: the traced
            # half gives the per-layer numbers, the pair the overhead.
            plain = run_phase(runner, ops, deadline_ops, seconds / 2,
                              tally, digests)
            path = work / "trace.jsonl"
            before = layers.registry_totals(obs_metrics.snapshot())
            _trace.enable(str(path))
            try:
                with payload_audit() as audit:
                    traced = run_phase(runner, ops, deadline_ops,
                                       seconds / 2, tally, digests)
            finally:
                _trace.disable()
            after = layers.registry_totals(obs_metrics.snapshot())
            shutdown_pools(wait=True)
            spans = layers.Trace(read_trace(str(path)))
            roots = spans.named("bench.op", kind="main")
            metrics = layers.zero_metrics()
            metrics.update(layers.fold(spans, roots, len(roots)))

            def delta(name):
                return after.get(name, 0.0) - before.get(name, 0.0)

            metrics.update({
                "sparse.load_s": median([t for _, t in setups]),
                "utils.executor.tasks": ratio(
                    delta("repro_executor_tasks_total"), len(roots)),
                "utils.executor.retries": ratio(
                    delta("repro_executor_retries_total"), len(roots)),
                "utils.executor.payload_bytes": ratio(
                    audit["bytes"], len(roots)),
                "obs.trace_overhead_frac": ratio(
                    plain.ops_per_s, traced.ops_per_s) - 1.0,
            })
    finally:
        shutdown_pools(wait=True)
        remove_workdir(work)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "reasons": tally.reasons,
    }
