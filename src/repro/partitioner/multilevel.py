"""The multilevel V-cycle driver.

Coarsen until the hypergraph is small (or clustering stalls), partition
the coarsest level with the better of two FM-refined constructions
(greedy growing and a spectral sweep), then project the partition back
up level by level, refining with FM at each level — the scheme shared by
Mondriaan, PaToH, hMetis, and MLpart (paper Section II).

:func:`_uncoarsen` is the one project-and-refine loop of both engines
and of the V-cycles (:mod:`repro.partitioner.vcycle`), with one rule for
cutting it short.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.partitioner.coarsen import CoarseLevel, cluster_cap, coarsen
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.fm import (
    FMResult,
    fm_refine,
    kway_rebalance,
    kway_refine,
)
from repro.partitioner.initial import (
    contiguous_parts,
    greedy_kway_vertex_parts,
    initial_partition,
)
from repro.utils.deadline import Deadline, Degraded
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "multilevel_bipartition",
    "multilevel_kway",
    "recursive_kway_parts",
]

# Observability (see docs/observability.md): coarsening depth per
# engine, never consulted by the algorithm.
_COARSEN_LEVELS = _metrics.counter(
    "repro_coarsen_levels_total",
    "Coarsening levels built by the multilevel engines",
    ("engine",),
)
_COARSEN_LEVELS_BI = _COARSEN_LEVELS.labels(engine="bi")
_COARSEN_LEVELS_KWAY = _COARSEN_LEVELS.labels(engine="kway")


def multilevel_bipartition(
    h: Hypergraph,
    max_weights: tuple[int, int],
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    deadline: Deadline | None = None,
) -> FMResult:
    """Bipartition ``h`` under per-side weight ceilings ``max_weights``.

    Returns an :class:`~repro.partitioner.fm.FMResult` for the finest level
    (``parts`` has one entry per vertex of ``h``).

    An expired ``deadline`` degrades each phase at its boundary, as in
    :func:`multilevel_kway`: coarsening stops adding levels (the
    clustering sweep checks it too, and a sweep it stops leaves no
    level), the coarsest level gets one unrefined greedy grow (see
    :func:`~repro.partitioner.initial.initial_partition`), and
    uncoarsening projects the remaining levels without refining them.
    When it expires before the first level is contracted, the answer is
    the O(n) :func:`~repro.partitioner.initial.contiguous_parts` split
    instead: nothing cheap would beat the contiguous floor the callers
    keep their best against (:mod:`repro.core.floor`).  The result is
    still a complete finest-level assignment, with its true cut and a
    ``Degraded[multilevel]`` record.
    """
    cfg = get_config(config)
    rng = as_generator(seed)

    # ------------------------------------------------------------------ #
    # Coarsening phase.
    # ------------------------------------------------------------------ #
    # Cap cluster weights so the coarsest level stays partitionable well
    # within the ceilings.
    with _trace.span("multilevel.coarsen") as sp:
        levels, _, cut_short = coarsen(
            h, cfg, rng, cluster_cap(max_weights), cfg.coarse_target,
            deadline,
        )
        cur = levels[-1].coarse if levels else h
        sp.set(levels=len(levels), coarse_nverts=cur.nverts)
    _COARSEN_LEVELS_BI.inc(len(levels))
    if cut_short and not levels:
        # Stopped before the first level: answer in O(n).
        return _finest_result(
            h, contiguous_parts(h, max_weights), max_weights,
            Degraded("multilevel"),
        )

    # ------------------------------------------------------------------ #
    # Initial partitioning at the coarsest level.
    # ------------------------------------------------------------------ #
    with _trace.span("multilevel.initial"):
        result = initial_partition(cur, max_weights, cfg, rng, deadline)

    # ------------------------------------------------------------------ #
    # Uncoarsening: project and refine at every level.
    # ------------------------------------------------------------------ #
    parts, result, degraded = _uncoarsen(
        levels, result,
        lambda fine, parts: fm_refine(
            fine, parts, max_weights, cfg, rng, deadline=deadline
        ),
        deadline, "multilevel.uncoarsen_level", cut_short,
    )
    if degraded is not None:
        return _finest_result(h, parts, max_weights, degraded, result)
    return result


def _uncoarsen(
    levels: list[CoarseLevel],
    coarsest: FMResult,
    refine: Callable[[Hypergraph, np.ndarray], FMResult],
    deadline: Deadline | None,
    span_name: str | None,
    cut_short: bool = False,
) -> tuple[np.ndarray, FMResult, Degraded | None]:
    """Project the refined coarsest level ``coarsest`` up through
    ``levels`` (finest first, as :func:`~repro.partitioner.coarsen.
    coarsen` returns them), refining each level with
    ``refine(fine_hypergraph, parts)``.

    Each refinement runs in a span ``span_name`` (with the level index
    from the coarsest and the level's vertex count), or in no span of
    its own when ``span_name`` is ``None``.  Once ``deadline`` has
    expired, the remaining levels are projected without refinement:
    projection keeps the assignment complete and the part weights
    unchanged, so only the per-level polish is lost.

    Returns the finest-level part vector, the last refinement's result
    (``coarsest`` when no level was refined), and a
    ``Degraded[multilevel]`` record counting the refined and skipped
    levels when a level was skipped, a refinement was cut short, or
    ``cut_short`` (an earlier phase was) is set — ``None`` otherwise.
    """
    parts, last = coarsest.parts, coarsest
    cut_short = cut_short or coarsest.degraded is not None
    refined = skipped = 0
    for i, level in enumerate(reversed(levels)):
        parts = parts[level.cmap]
        if deadline is not None and deadline.expired():
            skipped += 1
            _trace.event("level_skipped", level=i)
            continue
        if span_name is None:
            last = refine(level.fine, parts)
        else:
            with _trace.span(span_name, level=i, nverts=level.fine.nverts):
                last = refine(level.fine, parts)
        parts = last.parts
        refined += 1
        cut_short = cut_short or last.degraded is not None
    if skipped or cut_short:
        return parts, last, Degraded(
            "multilevel", completed=refined, skipped=skipped
        )
    return parts, last, None


def _finest_result(
    h: Hypergraph,
    parts: np.ndarray,
    ceilings,
    degraded: Degraded | None = None,
    last: FMResult | None = None,
) -> FMResult:
    """The outcome for the finest-level vector ``parts``, with its true
    cut and its feasibility under the per-part ``ceilings``.  A cut-short
    run's last refinement ``last`` may describe a coarser level; it
    gives only the pass counts."""
    return FMResult(
        parts=parts,
        cut=connectivity_volume(h, parts),
        feasible=bool(
            np.all(part_weights(h, parts, len(ceilings)) <= ceilings)
        ),
        passes=last.passes if last is not None else 0,
        improvement=last.improvement if last is not None else 0,
        degraded=degraded,
    )


def recursive_kway_parts(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig,
    rng: np.random.Generator,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, Degraded | None]:
    """Recursive-bisection construction of an initial k-way assignment.

    Splits the part range ``[0, nparts)`` in half, bipartitions ``h``
    under side ceilings summed from each half's per-part ceilings,
    induces the two sub-hypergraphs
    (:meth:`~repro.hypergraph.hypergraph.Hypergraph.induce`), and
    recurses — depth-first, left side first, so the vertex order and
    RNG stream are deterministic.  Sub-hypergraphs above
    ``config.coarse_target`` vertices are bipartitioned with the full
    multilevel engine (:func:`multilevel_bipartition`); smaller ones
    with the flat 2-way initial machinery (:func:`~repro.partitioner.
    initial.initial_partition`).  Hierarchically nested boundaries make
    this by far the strongest k-way construction on structured
    instances; it is meant for the *coarse* hypergraphs of the k-way
    multilevel engine's coarsest level, where the FM work is cheap.

    The bisections run under a lightened search budget (at most two FM
    passes): the construction only has to place boundaries
    approximately — every level of the k-way uncoarsening refines them
    afterwards.

    Returns the assignment and, when ``deadline`` cut the construction
    short, a ``Degraded[recursive]`` record (``None`` otherwise).  The
    deadline is checked before each bisection and handed to it; once it
    has expired, every part range left is split by
    :func:`~repro.partitioner.initial.contiguous_parts`, in O(n).
    """
    config = dataclasses.replace(
        config, fm_max_passes=min(2, config.fm_max_passes)
    )
    parts = np.zeros(h.nverts, dtype=np.int64)
    bisections = skipped = 0
    cut_short = False  # a bisection was cut short

    def split(sub: Hypergraph, ids: np.ndarray, lo: int, hi: int) -> None:
        nonlocal bisections, skipped, cut_short
        k = hi - lo
        if k <= 1 or ids.size == 0:
            parts[ids] = lo
            return
        if deadline is not None and deadline.expired():
            parts[ids] = lo + contiguous_parts(sub, ceilings[lo:hi])
            skipped += 1
            return
        k0 = k // 2
        cap0 = int(np.sum(ceilings[lo : lo + k0]))
        cap1 = int(np.sum(ceilings[lo + k0 : hi]))
        if sub.total_weight() > cap0 + cap1:
            # An ancestor bisection overflowed this subtree's combined
            # ceilings (FM kept an infeasible side).  No feasible
            # bisection exists; split by weight alone and let the
            # weight repair and FM rebalancing judge the result.
            two = greedy_kway_vertex_parts(
                sub, 2, np.array([cap0, cap1], dtype=np.int64), rng
            )
            left = two == 0
        else:
            engine = (
                multilevel_bipartition
                if sub.nverts > config.coarse_target
                else initial_partition
            )
            result = engine(sub, (cap0, cap1), config, rng, deadline)
            cut_short = cut_short or result.degraded is not None
            left = result.parts == 0
        bisections += 1
        lids, rids = ids[left], ids[~left]
        split(sub.induce(np.flatnonzero(left)), lids, lo, lo + k0)
        split(sub.induce(np.flatnonzero(~left)), rids, lo + k0, hi)

    split(h, np.arange(h.nverts, dtype=np.int64), 0, int(nparts))
    if skipped or cut_short:
        return parts, Degraded(
            "recursive", completed=bisections, skipped=skipped
        )
    return parts, None


def multilevel_kway(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    deadline: Deadline | None = None,
) -> FMResult:
    """Partition ``h`` into ``nparts`` parts under per-part ``ceilings``.

    The direct k-way analogue of :func:`multilevel_bipartition`: coarsen
    with *unrestricted* clustering until at most
    ``max(config.coarse_target, 8 * nparts)`` vertices remain (enough
    headroom that the coarsest level stays k-way partitionable), build
    the coarsest partitioning by recursive bisection
    (:func:`recursive_kway_parts`, weight-repaired by
    :func:`~repro.partitioner.fm.kway_rebalance`) plus k-way FM
    (:func:`~repro.partitioner.fm.kway_refine`), then project up level
    by level, k-way-refining each.  The connectivity-(λ−1) cut is the
    objective throughout — no intermediate two-sided proxy.

    Returns a :class:`~repro.partitioner.fm.FMResult` for the finest
    level.  Requires ``nparts >= 2`` (``nparts == 1`` has nothing to
    optimize — callers short-circuit it).

    An expired ``deadline`` degrades each phase at its natural boundary:
    coarsening stops adding levels (the clustering sweep checks it too,
    and a sweep it stops leaves no level), the construction splits its
    remaining part ranges contiguously (see
    :func:`recursive_kway_parts`), and uncoarsening projects the
    remaining levels *without* refining them.  When it expires before
    the first level is contracted or before the construction starts,
    the answer is the O(n)
    :func:`~repro.partitioner.initial.contiguous_parts` split of ``h``:
    nothing cheap would beat the contiguous floor the callers keep their
    best against (:mod:`repro.core.floor`).  The result is always a
    complete finest-level assignment, flagged via its ``degraded``
    record.
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    nparts = int(nparts)
    if nparts < 2:
        raise PartitioningError(
            f"multilevel_kway needs nparts >= 2, got {nparts}"
        )
    ceilings = np.ascontiguousarray(ceilings, dtype=np.int64)
    if ceilings.shape != (nparts,):
        raise PartitioningError(
            f"ceilings must have shape ({nparts},), got {ceilings.shape}"
        )
    if h.nverts == 0:
        return _finest_result(h, np.zeros(0, dtype=np.int64), ceilings)

    # ------------------------------------------------------------------ #
    # Coarsening phase (unrestricted — there is no partitioning yet).
    # Granularity must scale with the part count: the coarsest level
    # keeps ~8 vertices per part and clusters stay well under the
    # per-part ceiling (a quarter of the 2-way cap), or the initial
    # k-way construction cannot place boundaries anywhere useful.
    # ------------------------------------------------------------------ #
    coarse_target = max(cfg.coarse_target, 8 * nparts)
    with _trace.span("multilevel_kway.coarsen") as sp:
        levels, _, cut_short = coarsen(
            h, cfg, rng, cluster_cap(ceilings, 4), coarse_target, deadline
        )
        cur = levels[-1].coarse if levels else h
        sp.set(levels=len(levels), coarse_nverts=cur.nverts)
    _COARSEN_LEVELS_KWAY.inc(len(levels))
    if deadline is not None and deadline.expired():
        # Stopped before the first level or the construction: answer in
        # O(n).
        return _finest_result(
            h, contiguous_parts(h, ceilings), ceilings,
            Degraded("multilevel"),
        )

    # ------------------------------------------------------------------ #
    # Initial k-way partitioning at the coarsest level: recursive
    # bisection (hierarchically nested boundaries), then the
    # swap-capable weight repair.
    # ------------------------------------------------------------------ #
    with _trace.span("multilevel_kway.initial") as sp:
        parts, construction = recursive_kway_parts(
            cur, nparts, ceilings, cfg, rng, deadline
        )
        if construction is not None:
            cut_short = True
            sp.event(
                "deadline", where="construct", brief=construction.brief()
            )
        kway_rebalance(cur, parts, nparts, ceilings)
    with _trace.span("multilevel_kway.coarsest_refine"):
        result = kway_refine(
            cur, parts, nparts, ceilings, cfg, rng, deadline=deadline
        )

    # ------------------------------------------------------------------ #
    # Uncoarsening: project and k-way-refine at every level.  One pass
    # per intermediate level — the hierarchy itself provides the
    # repeated refinement (every vertex is revisited at each of the
    # O(log n) levels), so extra same-level passes buy little cut for a
    # lot of time; the finest level (``h`` itself) gets two.
    # ------------------------------------------------------------------ #
    parts, result, degraded = _uncoarsen(
        levels, result,
        lambda fine, parts: kway_refine(
            fine, parts, nparts, ceilings, cfg, rng,
            max_passes=2 if fine is h else 1, deadline=deadline,
        ),
        deadline, "multilevel_kway.uncoarsen_level", cut_short,
    )
    if degraded is not None:
        return _finest_result(h, parts, ceilings, degraded, result)
    return result
