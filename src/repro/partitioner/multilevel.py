"""The multilevel V-cycle driver.

Coarsen until the hypergraph is small (or matching stalls), partition the
coarsest level with the better of two FM-refined constructions (greedy
growing and a spectral sweep), then project the partition back up level
by level, refining with FM at each level — the scheme shared by
Mondriaan, PaToH, hMetis, and MLpart (paper Section II).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.partitioner.coarsen import CoarseLevel, coarsen_level
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.fm import (
    FMResult,
    KWayFMResult,
    fm_refine,
    kway_rebalance,
    kway_refine,
)
from repro.partitioner.initial import (
    greedy_kway_grow,
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
) -> FMResult:
    """Bipartition ``h`` under per-side weight ceilings ``max_weights``.

    Returns an :class:`~repro.partitioner.fm.FMResult` for the finest level
    (``parts`` has one entry per vertex of ``h``).
    """
    cfg = get_config(config)
    rng = as_generator(seed)

    # ------------------------------------------------------------------ #
    # Coarsening phase.
    # ------------------------------------------------------------------ #
    # Cap cluster weights so the coarsest level stays partitionable well
    # within the ceilings.
    cluster_cap = max(
        1, int(cfg.cluster_weight_frac * min(max_weights[0], max_weights[1]))
    )
    levels: list[CoarseLevel] = []
    cur = h
    with _trace.span("multilevel.coarsen") as sp:
        while cur.nverts > cfg.coarse_target and len(levels) < cfg.max_levels:
            level = coarsen_level(cur, cfg, rng, cluster_cap)
            reduction = 1.0 - level.coarse.nverts / cur.nverts
            if reduction < cfg.min_reduction:
                break  # matching stalled; further levels would be wasted work
            levels.append(level)
            cur = level.coarse
        sp.set(levels=len(levels), coarse_nverts=cur.nverts)
    _COARSEN_LEVELS_BI.inc(len(levels))

    # ------------------------------------------------------------------ #
    # Initial partitioning at the coarsest level.
    # ------------------------------------------------------------------ #
    with _trace.span("multilevel.initial"):
        result = initial_partition(cur, max_weights, cfg, rng)
    parts = result.parts

    # ------------------------------------------------------------------ #
    # Uncoarsening: project and refine at every level.
    # ------------------------------------------------------------------ #
    for i, level in enumerate(reversed(levels)):
        parts = parts[level.cmap]
        with _trace.span("multilevel.uncoarsen_level", level=i):
            result = fm_refine(level.fine, parts, max_weights, cfg, rng)
        parts = result.parts
    return result


def recursive_kway_parts(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
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
    """
    config = dataclasses.replace(
        config, fm_max_passes=min(2, config.fm_max_passes)
    )
    parts = np.zeros(h.nverts, dtype=np.int64)

    def split(sub: Hypergraph, ids: np.ndarray, lo: int, hi: int) -> None:
        k = hi - lo
        if k <= 1 or ids.size == 0:
            parts[ids] = lo
            return
        k0 = k // 2
        cap0 = int(np.sum(ceilings[lo : lo + k0]))
        cap1 = int(np.sum(ceilings[lo + k0 : hi]))
        if sub.total_weight() > cap0 + cap1:
            # An ancestor bisection overflowed this subtree's combined
            # ceilings (FM kept an infeasible side).  No feasible
            # bisection exists; split by weight alone and let the
            # candidate ranking / FM rebalancing judge the result.
            two = greedy_kway_vertex_parts(
                sub, 2, np.array([cap0, cap1], dtype=np.int64), rng
            )
            left = two == 0
        elif sub.nverts > config.coarse_target:
            result = multilevel_bipartition(sub, (cap0, cap1), config, rng)
            left = result.parts == 0
        else:
            result = initial_partition(sub, (cap0, cap1), config, rng)
            left = result.parts == 0
        lids, rids = ids[left], ids[~left]
        split(sub.induce(np.flatnonzero(left)), lids, lo, lo + k0)
        split(sub.induce(np.flatnonzero(~left)), rids, lo + k0, hi)

    split(h, np.arange(h.nverts, dtype=np.int64), 0, int(nparts))
    return parts


def multilevel_kway(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    deadline: Deadline | None = None,
) -> KWayFMResult:
    """Partition ``h`` into ``nparts`` parts under per-part ``ceilings``.

    The direct k-way analogue of :func:`multilevel_bipartition`: coarsen
    with *unrestricted* matching until at most
    ``max(config.coarse_target, 8 * nparts)`` vertices remain (enough
    headroom that the coarsest level stays k-way partitionable), build
    the coarsest partitioning from ranked construction candidates
    (recursive bisection, net growing, greedy spread — see below) plus
    k-way FM (:func:`~repro.partitioner.fm.kway_refine`), then project
    up level by level, k-way-refining each.  The connectivity-(λ−1) cut
    is the objective throughout — no intermediate two-sided proxy.

    Returns a :class:`~repro.partitioner.fm.KWayFMResult` for the finest
    level.  Requires ``nparts >= 2`` (``nparts == 1`` has nothing to
    optimize — callers short-circuit it).

    An expired ``deadline`` degrades each phase at its natural boundary:
    coarsening stops adding levels, the construction keeps the cheapest
    feasible-ish candidate instead of ranking every restart, and
    uncoarsening projects the remaining levels *without* refining them —
    always returning a complete finest-level assignment, flagged via the
    result's ``degraded`` record.
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
        return KWayFMResult(
            parts=np.zeros(0, dtype=np.int64),
            cut=0,
            feasible=True,
            passes=0,
            improvement=0,
        )

    # ------------------------------------------------------------------ #
    # Coarsening phase (unrestricted — there is no partitioning yet).
    # Granularity must scale with the part count: the coarsest level
    # keeps ~8 vertices per part and clusters stay well under the
    # per-part ceiling (a quarter of the 2-way cap), or the initial
    # k-way construction cannot place boundaries anywhere useful.
    # ------------------------------------------------------------------ #
    cluster_cap = max(
        1, int(cfg.cluster_weight_frac * int(ceilings.min())) // 4
    )
    coarse_target = max(cfg.coarse_target, 8 * nparts)
    cut_short = False  # any phase stopped at a deadline boundary
    levels: list[CoarseLevel] = []
    cur = h
    with _trace.span("multilevel_kway.coarsen") as sp:
        while cur.nverts > coarse_target and len(levels) < cfg.max_levels:
            if deadline is not None and deadline.expired():
                cut_short = True
                sp.event("deadline", where="coarsen")
                break  # partition whatever granularity we reached
            level = coarsen_level(cur, cfg, rng, cluster_cap)
            reduction = 1.0 - level.coarse.nverts / cur.nverts
            if reduction < cfg.min_reduction:
                break  # matching stalled; further levels would be wasted work
            levels.append(level)
            cur = level.coarse
        sp.set(levels=len(levels), coarse_nverts=cur.nverts)
    _COARSEN_LEVELS_KWAY.inc(len(levels))

    # ------------------------------------------------------------------ #
    # Initial k-way partitioning at the coarsest level: one
    # recursive-bisection construction (hierarchically nested
    # boundaries — the quality anchor) plus cheap restarts alternating
    # net growing (topology — connected, low-cut parts) and the
    # weight-only greedy spread (balance — fits snug ceilings the
    # others can overshoot), ranked by (overshoot, cut) *after* the
    # swap-capable weight repair — a topology-aware candidate a few
    # percent overweight almost always beats a balanced-but-scattered
    # one once repaired, so ranking raw overshoot first would throw the
    # best cuts away.  The coarsest level is small, so repairing and
    # scoring every candidate's exact connectivity cut is cheap.
    # ------------------------------------------------------------------ #
    best: np.ndarray | None = None
    best_key: tuple | None = None
    initial_span = _trace.span("multilevel_kway.initial")
    for attempt in range(max(2, cfg.n_initial)):
        if deadline is not None and deadline.expired():
            cut_short = True
            if best is None:
                # Never return empty-handed: the weight-only greedy
                # spread is near-instant and always yields a complete
                # assignment; the repair keeps it as balanced as single
                # moves and swaps can.
                best = greedy_kway_vertex_parts(cur, nparts, ceilings, rng)
                kway_rebalance(cur, best, nparts, ceilings)
            break
        if attempt == 0:
            cand = recursive_kway_parts(cur, nparts, ceilings, cfg, rng)
        elif attempt % 2 == 1:
            cand = greedy_kway_grow(cur, nparts, ceilings, rng)
        else:
            cand = greedy_kway_vertex_parts(
                cur, nparts, ceilings, rng,
                strategy="balance" if (attempt // 2) % 2 == 1 else "pack",
            )
        kway_rebalance(cur, cand, nparts, ceilings)
        over = int(
            (part_weights(cur, cand, nparts) - ceilings).max(initial=0)
        )
        key = (over, connectivity_volume(cur, cand))
        if best_key is None or key < best_key:
            best, best_key = cand, key
    initial_span.end()
    assert best is not None
    with _trace.span("multilevel_kway.coarsest_refine"):
        result = kway_refine(
            cur, best, nparts, ceilings, cfg, rng, deadline=deadline
        )
    parts = result.parts
    cut_short = cut_short or result.degraded is not None

    # ------------------------------------------------------------------ #
    # Uncoarsening: project and k-way-refine at every level.  One pass
    # per intermediate level — the hierarchy itself provides the
    # repeated refinement (every vertex is revisited at each of the
    # O(log n) levels), so extra same-level passes buy little cut for a
    # lot of time; only the finest level gets the full pass budget.
    # ------------------------------------------------------------------ #
    refined_levels = 0
    skipped_levels = 0
    for i, level in enumerate(reversed(levels)):
        parts = parts[level.cmap]
        if deadline is not None and deadline.expired():
            # Projection alone keeps the assignment complete and its
            # per-part weights identical — only the per-level polish is
            # forfeited.
            skipped_levels += 1
            _trace.event("level_skipped", level=i)
            continue
        finest = i == len(levels) - 1
        with _trace.span("multilevel_kway.uncoarsen_level", level=i,
                         nverts=level.fine.nverts):
            result = kway_refine(
                level.fine, parts, nparts, ceilings, cfg, rng,
                max_passes=2 if finest else 1,
                deadline=deadline,
            )
        parts = result.parts
        refined_levels += 1
    if skipped_levels or cut_short:
        # ``result`` may describe a coarser level than ``parts`` (a
        # skipped refinement leaves only the projection); rebuild the
        # outcome from the finest-level vector with its true cut.
        return KWayFMResult(
            parts=parts,
            cut=connectivity_volume(h, parts),
            feasible=bool(
                np.all(part_weights(h, parts, nparts) <= ceilings)
            ),
            passes=result.passes,
            improvement=result.improvement,
            degraded=Degraded(
                "multilevel", completed=refined_levels,
                skipped=skipped_levels,
            ),
        )
    return result
