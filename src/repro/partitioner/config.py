"""Partitioner configuration and the two named presets.

The paper evaluates every method under two hypergraph partitioners
(Mondriaan's internal one, Figs. 4–5 and Table I; and PaToH, Fig. 6 and
Table II) to show its conclusions are partitioner-robust.  We mirror that
with two presets of the same multilevel engine that differ in coarsening
style, search effort, and refinement scope — genuinely different
quality/speed trade-offs, not just different seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitioningError
from repro.kernels import KernelBackend
from repro.utils.executor import EXEC_BACKEND_CHOICES

__all__ = ["PartitionerConfig", "get_config", "PRESETS", "ALGO_CHOICES"]

#: Valid values of ``PartitionerConfig.algo`` / the ``--algo`` CLI flag:
#: how a p-way partitioning is produced (see
#: :func:`repro.core.recursive.partition`).  Defined here (a leaf module)
#: so the config, the CLI, and the sweep engine share one registry;
#: ``repro.core.methods`` re-exports it as ``ALGO_NAMES``.
ALGO_CHOICES = ("recursive", "kway")


@dataclass(frozen=True)
class PartitionerConfig:
    """Tuning knobs of the multilevel bipartitioner.

    Attributes
    ----------
    name:
        Preset identifier (informational).
    coarse_target:
        Stop coarsening once the hypergraph has at most this many vertices.
    min_reduction:
        Abort coarsening early if a level shrinks the vertex count by less
        than this fraction (matching has stalled).
    max_levels:
        Hard cap on the number of coarsening levels.
    matching:
        ``"hcm"`` — heavy-connectivity matching, candidate score is the sum
        of shared net costs; ``"absorption"`` — PaToH-style scaled score
        ``cost / (|net| - 1)``.
    max_net_size_matching:
        Nets larger than this are ignored while scoring matches (dense rows
        would otherwise make matching quadratic).
    cluster_weight_frac:
        A matched pair may weigh at most this fraction of the *smaller*
        part-weight ceiling, keeping the coarsest hypergraph partitionable.
    merge_identical_nets:
        Merge nets with identical pin sets during contraction (costs add).
    n_initial:
        Number of restarts of the k-way constructions at the coarsest
        level (:func:`~repro.partitioner.initial.initial_kway_parts` and
        :func:`~repro.partitioner.multilevel.multilevel_kway`); best
        kept.  The 2-way coarsest level always ranks exactly two
        candidates, greedy growing and the spectral sweep.
    fm_max_passes:
        Maximum FM passes per refinement call.
    fm_early_exit_frac:
        Abort a pass after ``max(32, min(int(frac * nverts), 512))``
        consecutive moves without improving on the best prefix (see
        :func:`repro.kernels.state.fm_stall_limit`).  The 512 cap binds
        from 2,332 vertices at the default 0.22 and from 1,710 at 0.3.
    boundary_only:
        Seed FM's buckets with boundary vertices only (vertices on cut
        nets), inserting interior vertices lazily when touched.
    kernel_backend:
        ``None`` (the default): the python kernels of
        :mod:`repro.kernels` run the scalar hot loops.  The field exists
        only as the seam through which the benchmark harness injects a
        frozen :class:`~repro.kernels.KernelBackend` instance; it is not
        a user option, and a string value is rejected.
    jobs:
        Default worker-process count for recursive bisection
        (:func:`repro.core.recursive.partition`): ``1`` walks the
        recursion tree serially, ``N >= 2`` schedules independent
        subtrees on a process pool, ``0`` means one worker per CPU.
        This is a speed knob only — the partition is bit-identical for
        every value (each bisection's randomness is keyed on its tree
        position).  An explicit ``jobs=`` argument to ``partition``
        overrides it.
    exec_backend:
        How parallel bisection workers execute and receive their
        submatrices (see :mod:`repro.utils.executor`): ``"auto"`` (the
        same as ``"process"``), ``"process"`` (worker processes over the
        shared-memory store), ``"thread"``, or ``"serial"``.
        Bit-identical by contract — a delivery knob only.
    algo:
        How ``partition(matrix, nparts)`` produces a p-way partitioning:
        ``"recursive"`` (the paper's recursive-bisection scheme, default)
        or ``"kway"`` (the direct k-way partitioner of
        :mod:`repro.core.kway`, optimizing the connectivity-(λ−1) volume
        in one shot).  Unlike the speed knobs this genuinely changes
        the result — the two algorithms explore different search spaces;
        it does *not* change results across exec backends or ``jobs``
        values within either algorithm.
    kway_vcycles:
        Multilevel V-cycles for the direct k-way partitioner
        (``algo="kway"``; see :mod:`repro.core.kway`).  ``0`` (default)
        refines the *flat* hypergraph — the original direct k-way path,
        exactly.  ``N >= 1`` runs the multilevel engine instead: cycle 1
        is a full multilevel construction (unrestricted coarsening,
        coarsest-level k-way construction, k-way-FM refinement at every
        level on the way up — :func:`repro.partitioner.multilevel.
        multilevel_kway`), and each further cycle is an hMetis-style
        *restricted* V-cycle (:func:`repro.partitioner.vcycle.
        kway_vcycle_refine`) that re-coarsens respecting the current
        partitioning and can move whole clusters between parts.  Unlike
        the speed knobs this genuinely changes the result (better
        volume for more time); within a fixed value results stay
        bit-identical across exec backends and ``jobs``.
    task_timeout:
        Per-task deadline in seconds for pool-executed work (see
        ``docs/robustness.md``): a task still running past it is killed
        by the watchdog and retried/degraded per ``retries``.  ``None``
        (or ``0``) disables deadlines — today's behavior, exactly.
    retries:
        How many times a crashed / timed-out / invalid pool task is
        retried (capped exponential backoff) before the serial
        in-process fallback completes it.  ``0`` disables retry —
        today's behavior, exactly.  Like ``jobs``, both knobs never
        change results: recovery re-runs the same position-keyed seed
        stream, so a retried task is bit-identical to an untroubled one.
    """

    name: str = "mondriaan"
    coarse_target: int = 144
    min_reduction: float = 0.03
    max_levels: int = 48
    matching: str = "hcm"
    max_net_size_matching: int = 400
    cluster_weight_frac: float = 0.35
    merge_identical_nets: bool = True
    n_initial: int = 8
    fm_max_passes: int = 4
    fm_early_exit_frac: float = 0.22
    boundary_only: bool = False
    kernel_backend: KernelBackend | None = None
    jobs: int = 1
    exec_backend: str = "auto"
    algo: str = "recursive"
    kway_vcycles: int = 0
    task_timeout: float | None = None
    retries: int = 0

    def __post_init__(self) -> None:
        if self.matching not in ("hcm", "absorption"):
            raise PartitioningError(
                f"unknown matching scheme {self.matching!r}"
            )
        if self.kernel_backend is not None and not isinstance(
            self.kernel_backend, KernelBackend
        ):
            raise PartitioningError(
                f"kernel_backend={self.kernel_backend!r}: the kernel "
                f"backends were removed; the python kernels always run "
                f"(leave kernel_backend unset)"
            )
        if self.coarse_target < 2:
            raise PartitioningError("coarse_target must be at least 2")
        if not 0.0 < self.cluster_weight_frac <= 1.0:
            raise PartitioningError("cluster_weight_frac must be in (0, 1]")
        if self.n_initial < 1:
            raise PartitioningError("n_initial must be at least 1")
        if self.fm_max_passes < 1:
            raise PartitioningError("fm_max_passes must be at least 1")
        if self.jobs < 0:
            raise PartitioningError(
                "jobs must be non-negative (0 = one worker per CPU)"
            )
        if self.exec_backend not in EXEC_BACKEND_CHOICES:
            raise PartitioningError(
                f"unknown execution backend {self.exec_backend!r}; "
                f"expected one of {EXEC_BACKEND_CHOICES}"
            )
        if self.algo not in ALGO_CHOICES:
            raise PartitioningError(
                f"unknown partitioning algorithm {self.algo!r}; "
                f"expected one of {ALGO_CHOICES}"
            )
        if self.kway_vcycles < 0:
            raise PartitioningError(
                "kway_vcycles must be non-negative (0 = flat direct k-way)"
            )
        if self.task_timeout is not None and self.task_timeout < 0:
            raise PartitioningError(
                "task_timeout must be non-negative (0/None = no deadline)"
            )
        if self.retries < 0:
            raise PartitioningError(
                "retries must be non-negative (0 = no retry)"
            )


PRESETS: dict[str, PartitionerConfig] = {
    "mondriaan": PartitionerConfig(name="mondriaan"),
    "patoh": PartitionerConfig(
        name="patoh",
        coarse_target=72,
        matching="absorption",
        max_net_size_matching=256,
        n_initial=14,
        fm_max_passes=7,
        fm_early_exit_frac=0.3,
        boundary_only=True,
    ),
}


def get_config(config: "PartitionerConfig | str") -> PartitionerConfig:
    """Resolve a preset name or pass through an explicit config object."""
    if isinstance(config, PartitionerConfig):
        return config
    if isinstance(config, str):
        try:
            return PRESETS[config]
        except KeyError:
            raise PartitioningError(
                f"unknown partitioner preset {config!r}; "
                f"available: {sorted(PRESETS)}"
            ) from None
    raise PartitioningError(
        f"config must be a PartitionerConfig or preset name, got "
        f"{type(config).__name__}"
    )
