"""Direct k-way partitioning over the paper's hypergraph models.

Every ``p``-way result elsewhere in this repository comes from recursive
bisection (:mod:`repro.core.recursive`): each cut optimizes a two-sided
objective blind to the final k-way connectivity-(λ−1) volume.  This
module is the head-to-head alternative the literature frames against it
(Knigge & Bisseling, arXiv:1811.02043; Fagginger Auer & Bisseling,
arXiv:1105.4490): partition the hypergraph into ``p`` parts *directly*,
optimizing the k-way metric itself.

Pipeline (``method="mediumgrain"``):

1. Algorithm-1 split of the full matrix, composite hypergraph
   (:mod:`repro.core.medium_grain`) — one build, no recursion tree;
2. the multilevel k-way engine
   (:func:`repro.partitioner.multilevel.multilevel_kway`): coarsen by
   clustering, build the coarsest level by recursive bisection, and
   uncoarsen with k-way FM
   (:func:`repro.partitioner.fm.kway_refine`), whose move loop keeps
   per-net part-occupancy counts and exact connectivity-λ gains;
3. ``vcycles - 1`` hMetis-style restricted V-cycles
   (:func:`repro.partitioner.vcycle.kway_vcycle_refine`) that can move
   whole clusters between parts (``PartitionerConfig.kway_vcycles`` or
   the explicit ``vcycles`` argument, at least 1);
4. eqn-(5) mapping back to the nonzeros; by eqn (6) the hypergraph's
   connectivity-(λ−1) cut *is* the matrix communication volume.
5. optionally (``refine=True``) the k-way iterate loop: re-encode the
   partitioning with majority splits and refine again, keeping the best
   (:func:`repro.core.refine.iterative_refine` with ``nparts > 2``).

The 1D models and the fine-grain model plug into the same engine (their
vertex weights are nonzero counts too), so every method label of
:data:`repro.core.methods.METHOD_NAMES` works under ``algo="kway"``.

Determinism: the result is a pure function of ``(matrix, arguments,
seed)``.  There is no recursion tree to schedule, so ``jobs`` does not
apply — the partition is trivially bit-identical for every ``jobs``.
"""

from __future__ import annotations

import numpy as np

from repro.core.floor import keep_best
from repro.core.medium_grain import build_medium_grain
from repro.core.methods import METHOD_NAMES, _build_model
from repro.core.recursive import PartitionResult
from repro.core.refine import iterative_refine
from repro.core.split import initial_split
from repro.core.validate import validate_parts
from repro.core.volume import (
    communication_volume,
    load_balance,
    max_part_size,
    part_sizes,
)
from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs import trace as _obs
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.multilevel import multilevel_kway
from repro.partitioner.vcycle import kway_vcycle_refine
from repro.sparse.matrix import SparseMatrix
from repro.utils import faults
from repro.utils.balance import max_allowed_part_size
from repro.utils.deadline import Deadline, Degraded
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer
from repro.utils.validation import check_eps, check_pos_int

__all__ = ["partition_kway"]


def _kway_vertex_partition(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    vcycles: int,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, tuple[Degraded, ...]]:
    """Partition the vertices of one hypergraph into ``nparts`` parts.

    Cycle 1 is a full multilevel construction
    (:func:`repro.partitioner.multilevel.multilevel_kway`), and cycles
    ``2..vcycles`` are hMetis-style restricted V-cycles
    (:func:`repro.partitioner.vcycle.kway_vcycle_refine`).

    Returns the part vector and the tuple of
    :class:`~repro.utils.deadline.Degraded` records the engines reported
    (empty unless a ``deadline`` expired mid-run).
    """
    result = multilevel_kway(h, nparts, ceilings, cfg, rng, deadline=deadline)
    degraded = (result.degraded,) if result.degraded else ()
    parts = result.parts
    if vcycles > 1:
        # A cut-short construction's result already carries its true
        # cut and feasibility, and the V-cycles will find the deadline
        # expired: they need not score the same vector again.
        vres = kway_vcycle_refine(
            h, parts, nparts, ceilings, cfg, rng,
            max_cycles=vcycles - 1, deadline=deadline,
            score=(result.cut, result.feasible) if degraded else None,
        )
        parts = vres.parts
        if vres.degraded:
            degraded += (vres.degraded,)
    return parts, degraded


def partition_kway(
    matrix: SparseMatrix,
    nparts: int,
    method: str = "mediumgrain",
    eps: float = 0.03,
    refine: bool = False,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    vcycles: int | None = None,
    deadline: Deadline | None = None,
) -> PartitionResult:
    """Partition the nonzeros of ``matrix`` into ``nparts`` parts directly.

    The k-way counterpart of recursive bisection — same signature core,
    same :class:`~repro.core.recursive.PartitionResult`, reached through
    :func:`repro.core.recursive.partition` with ``algo="kway"``.  Every
    part shares the single eqn-(1) ceiling
    ``max_allowed_part_size(nnz, nparts, eps)``.

    ``vcycles`` (``None`` defers to ``config.kway_vcycles``) counts
    the multilevel cycles: a full multilevel construction, then
    ``vcycles - 1`` restricted V-cycles (see
    :func:`_kway_vertex_partition`).  It must be at least 1: ``0``
    selected the flat single-level path, which was removed, and is
    rejected with a :class:`~repro.errors.PartitioningError`.  Results
    with ``nparts > 1`` carry a ``"+ml"`` method suffix.

    ``refine=True`` runs the generalized Algorithm-2 iterate loop after
    the direct partitioning (alternating majority re-encodings, keeping
    the best — see :func:`repro.core.refine.iterative_refine`).

    ``bisection_volumes`` of the result stays empty: there are no
    bisections.

    An optional ``deadline`` (:class:`~repro.utils.deadline.Deadline` or
    the deterministic :class:`~repro.utils.deadline.SoftBudget`) makes
    the run *anytime*: every engine stops at its next pass/level/cycle
    boundary, or within its current clustering sweep, once it expires
    (see :func:`repro.partitioner.multilevel.multilevel_kway`), and each
    cut-short loop contributes a
    ``Degraded[...]`` brief to the result's ``failures`` tuple.  A
    cut-short run returns the best of its incumbent and the two
    contiguous splits (:func:`repro.core.floor.keep_best`), ranked by
    feasibility, then volume.  With ``deadline=None`` the run is
    byte-for-byte the pre-deadline pipeline.
    """
    nparts = check_pos_int(nparts, "nparts")
    check_eps(eps)
    if method not in METHOD_NAMES:
        raise PartitioningError(
            f"unknown method {method!r}; expected one of {METHOD_NAMES}"
        )
    cfg = get_config(config)
    vcycles = cfg.kway_vcycles if vcycles is None else int(vcycles)
    if vcycles < 1:
        raise PartitioningError(
            f"vcycles={vcycles}: the direct k-way engine needs at least "
            f"one multilevel cycle (0 selected the flat direct k-way "
            f"path, which was removed)"
        )
    rng = as_generator(seed)
    n = matrix.nnz
    if nparts > max(n, 1):
        raise PartitioningError(
            f"cannot split {n} nonzeros into {nparts} non-trivial parts"
        )
    ceiling = max_allowed_part_size(n, nparts, eps)
    ceilings = np.full(nparts, ceiling, dtype=np.int64)

    timer = Timer()
    degraded: tuple[Degraded, ...] = ()
    with timer, _obs.span(
        "partition", method=method, nparts=nparts, algo="kway",
        vcycles=vcycles,
    ):
        faults.fault_point("kway.partition")
        if nparts == 1:
            parts = np.zeros(n, dtype=np.int64)
        elif method == "localbest":
            parts, degraded = _run_localbest_kway(
                matrix, nparts, ceilings, cfg, rng, vcycles, deadline,
            )
        elif method == "mediumgrain":
            split = initial_split(matrix, rng)
            instance = build_medium_grain(split)
            vparts, degraded = _kway_vertex_partition(
                instance.hypergraph, nparts, ceilings, cfg, rng, vcycles,
                deadline,
            )
            parts = instance.nonzero_parts(vparts)
        else:
            model = _build_model(matrix, method)
            vparts, degraded = _kway_vertex_partition(
                model.hypergraph, nparts, ceilings, cfg, rng, vcycles,
                deadline,
            )
            parts = model.nonzero_parts(vparts)
        if refine and nparts > 1:
            iterate_span = _obs.span("kway.iterate")
            parts, _trace = iterative_refine(
                matrix,
                parts,
                eps,
                cfg,
                rng,
                nparts=nparts,
                max_weights=ceilings if nparts > 2 else (ceiling, ceiling),
                deadline=deadline,
            )
            iterate_span.end()
            if _trace.degraded is not None:
                degraded += (_trace.degraded,)
        volume = None
        if degraded:
            parts, volume = keep_best(matrix, parts, ceilings)

    # The k-way kernels are trusted the same amount as every other
    # partitioning producer: not at all.  Structural invariants are
    # checked before the result is wrapped (the volume/balance metrics
    # below are recomputed from ``parts`` here, so they cannot lie).
    validate_parts(parts, n, nparts, context=f"kway:{method}")
    if volume is None:
        volume = communication_volume(matrix, parts)
    biggest, imbalance = load_balance(
        part_sizes(matrix, parts, nparts), matrix.nnz
    )
    return PartitionResult(
        parts=parts,
        nparts=nparts,
        volume=volume,
        max_part=biggest,
        feasible=biggest <= ceiling,
        imbalance=imbalance,
        seconds=timer.elapsed,
        method=method
        + ("+ml" if nparts > 1 else "")
        + ("+ir" if refine else ""),
        bisection_volumes=[],
        failures=tuple(d.brief() for d in degraded),
    )


def _run_localbest_kway(
    matrix: SparseMatrix,
    nparts: int,
    ceilings: np.ndarray,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    vcycles: int,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, tuple[Degraded, ...]]:
    """Row-net and column-net k-way runs, keep the lower volume (ties:
    better balance, then row-net) — the k-way mirror of ``localbest``."""
    best_parts: np.ndarray | None = None
    best_key: tuple | None = None
    all_degraded: tuple[Degraded, ...] = ()
    for name in ("rownet", "colnet"):
        model = _build_model(matrix, name)
        vparts, degraded = _kway_vertex_partition(
            model.hypergraph, nparts, ceilings, cfg, rng, vcycles, deadline,
        )
        all_degraded += degraded
        parts = model.nonzero_parts(vparts)
        key = (
            communication_volume(matrix, parts),
            max_part_size(matrix, parts, nparts),
        )
        if best_key is None or key < best_key:
            best_parts, best_key = parts, key
    assert best_parts is not None
    return best_parts, all_degraded
