"""Experiment runner: (instance x method x seed) sweeps.

The paper's protocol (Section IV): for every matrix, run every method 10
times, record the *average* communication volume and partitioning time,
then compare methods through performance profiles and normalized geometric
means.  :func:`run_methods` reproduces that protocol over the synthetic
collection; the run count is configurable because the pure-Python
partitioner trades speed for fidelity.

Determinism: run ``r`` of any method on any instance uses the seed
``spawn_seeds(base_seed, nruns)[r]`` so experiments are reproducible and
methods face identical randomness.

Execution is delegated to the sweep engine (:mod:`repro.eval.sweep`):
the (instance x method x seed) triple loop becomes a list of
:class:`~repro.eval.sweep.RunSpec` work items executed serially
(``jobs=1``, the reference path) or by a process pool (``jobs>=2``).
Results are bit-identical across ``jobs`` values — only the measured
wall-clock ``seconds`` differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.eval.sweep import build_runspecs, run_sweep
from repro.sparse.collection import CollectionEntry

__all__ = [
    "MethodSpec",
    "RunRecord",
    "ExperimentData",
    "PAPER_METHODS",
    "run_methods",
]


@dataclass(frozen=True)
class MethodSpec:
    """One experiment column: a method plus the IR flag and display label."""

    label: str
    method: str
    refine: bool


#: The six methods of the paper's figures and tables, in display order.
PAPER_METHODS: tuple[MethodSpec, ...] = (
    MethodSpec("LB", "localbest", False),
    MethodSpec("LB+IR", "localbest", True),
    MethodSpec("MG", "mediumgrain", False),
    MethodSpec("MG+IR", "mediumgrain", True),
    MethodSpec("FG", "finegrain", False),
    MethodSpec("FG+IR", "finegrain", True),
)


@dataclass(frozen=True)
class RunRecord:
    """One (instance, method, run) measurement.

    ``volume`` is the connectivity-(λ−1) communication volume for any
    ``nparts``; ``max_part`` / ``imbalance`` carry the eqn-(1) balance
    outcome so p-way comparisons (k-way direct vs recursive bisection)
    report balance first-class instead of only the boolean ``feasible``.

    ``failures`` lists the structured failure briefs (see
    :meth:`repro.errors.ExecutionError.brief`) the hardened execution
    layer recorded while producing this run — retries that eventually
    succeeded, watchdog kills, degraded serial completions.  Empty on an
    untroubled run, and excluded from bit-identity comparisons (like
    ``seconds``, it describes *how* the run went, not its result).
    """

    instance: str
    matrix_class: str  # "Rec" / "Sym" / "Sqr"
    method: str
    seed: int
    nparts: int
    volume: int
    seconds: float
    feasible: bool
    bsp: Optional[int] = None
    max_part: Optional[int] = None
    imbalance: Optional[float] = None
    failures: tuple = ()


@dataclass
class ExperimentData:
    """A sweep's records plus aggregation helpers."""

    records: list[RunRecord] = field(default_factory=list)

    def instances(self) -> list[str]:
        """Instance names in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.instance, None)
        return list(seen)

    def methods(self) -> list[str]:
        """Method labels in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.method, None)
        return list(seen)

    def classes(self) -> dict[str, str]:
        """Instance -> class short name."""
        return {r.instance: r.matrix_class for r in self.records}

    def mean_metric(
        self,
        metric: str,
        instances: Sequence[str] | None = None,
    ) -> dict[str, np.ndarray]:
        """Per-method arrays of run-averaged metrics, instance-aligned.

        ``metric`` is ``"volume"``, ``"seconds"``, or ``"bsp"``.  This is
        the paper's averaging over the 10 runs before profiles/geomeans.
        """
        if metric not in ("volume", "seconds", "bsp"):
            raise EvaluationError(f"unknown metric {metric!r}")
        names = list(instances) if instances is not None else self.instances()
        index = {name: i for i, name in enumerate(names)}
        methods = self.methods()
        sums = {m: np.zeros(len(names)) for m in methods}
        counts = {m: np.zeros(len(names)) for m in methods}
        for r in self.records:
            i = index.get(r.instance)
            if i is None:
                continue
            value = getattr(r, "bsp" if metric == "bsp" else metric)
            if value is None:
                raise EvaluationError(
                    f"record {r.instance}/{r.method} lacks metric {metric!r}"
                )
            sums[r.method][i] += value
            counts[r.method][i] += 1
        out = {}
        for m in methods:
            if (counts[m] == 0).any():
                missing = [
                    names[i] for i in np.flatnonzero(counts[m] == 0)
                ][:3]
                raise EvaluationError(
                    f"method {m!r} has no runs on instances {missing}..."
                )
            out[m] = sums[m] / counts[m]
        return out

    def subset(self, matrix_class: str) -> "ExperimentData":
        """Records restricted to one class short name ('Rec'/'Sym'/'Sqr')."""
        return ExperimentData(
            [r for r in self.records if r.matrix_class == matrix_class]
        )

    def feasible_fraction(self) -> float:
        """Fraction of runs satisfying the eqn-(1) constraint."""
        if not self.records:
            return 1.0
        return sum(r.feasible for r in self.records) / len(self.records)


def run_methods(
    entries: Iterable[CollectionEntry],
    methods: Sequence[MethodSpec] = PAPER_METHODS,
    *,
    nruns: int = 3,
    nparts: int = 2,
    eps: float = 0.03,
    config: str = "mondriaan",
    base_seed: int = 2014,
    with_bsp: bool = False,
    progress: bool = False,
    jobs: "int | None | JobsBudget" = 1,
    algo: str = "recursive",
    kway_vcycles: int = 0,
    task_timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
) -> ExperimentData:
    """Run the paper's protocol over a set of collection entries.

    Parameters
    ----------
    entries:
        Collection entries (see :func:`repro.sparse.build_collection`).
    methods:
        Method columns; default the paper's six.
    nruns:
        Runs per (instance, method); volumes/times are averaged downstream.
    nparts:
        2 for bipartitioning (Figs. 4–6a); 64 for the Fig. 6b / Table II
        recursive-bisection experiments.
    eps:
        Imbalance fraction (paper: 0.03).
    config:
        Partitioner preset ("mondriaan" or "patoh").
    base_seed:
        Root of the deterministic seed tree.
    with_bsp:
        Also compute the Table-II BSP cost per run.
    progress:
        Print one line per instance (useful for the long benches).
    jobs:
        Worker processes; 1 (default) runs serially in this process,
        ``None``/0 uses the CPU count.  A
        :class:`~repro.utils.executor.JobsBudget` splits its total
        between sweep-level workers and recursion-level workers inside
        each p-way run (no nested-pool oversubscription).  Results are
        bit-identical to the serial sweep apart from the measured
        ``seconds``.
    algo:
        p-way partitioning scheme for ``nparts > 2`` runs:
        ``"recursive"`` bisection (default) or the direct ``"kway"``
        partitioner.  Unlike ``jobs`` this changes the results — it is
        the comparison axis of the kway-vs-recursive experiments.
    kway_vcycles:
        Multilevel V-cycle count for ``algo="kway"`` runs (``0`` = the
        flat direct k-way path; ``N >= 1`` = multilevel construction
        plus ``N - 1`` restricted V-cycles).  Result-determining, like
        ``algo``.  Ignored for recursive runs.
    task_timeout / retries:
        Hardened-execution knobs, handed to
        :func:`~repro.eval.sweep.run_sweep` unchanged: per-task deadline
        in seconds and retry budget for crashed / timed-out / invalid
        pool tasks (see ``docs/robustness.md``).  ``None``/``0`` —
        the defaults — preserve the unhardened behavior exactly.
    checkpoint:
        Path of a JSONL journal for crash-resumable sweeps (see
        :func:`~repro.eval.sweep.run_sweep`); ``None`` disables it.

    Returns
    -------
    ExperimentData
    """
    specs = build_runspecs(
        entries,
        methods,
        nruns=nruns,
        nparts=nparts,
        eps=eps,
        config=config,
        base_seed=base_seed,
        with_bsp=with_bsp,
        algo=algo,
        kway_vcycles=kway_vcycles,
    )
    data = ExperimentData()
    for record in run_sweep(
        specs, jobs=jobs, progress=progress,
        task_timeout=task_timeout, retries=retries, checkpoint=checkpoint,
    ):
        data.records.append(record)
    return data
