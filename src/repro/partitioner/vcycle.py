"""hMetis-style V-cycle refinement.

The paper (Section III-C) contrasts its iterative refinement with "the
so-called V-cycle refinement included in hMetis, which is a multi-level
postprocessing procedure with a restricted coarsening (respecting the
current partitioning) followed by Kernighan–Lin refinement at all levels".
This module implements that procedure, both as a quality option for the
partitioner and as the comparator for the IR-vs-V-cycle ablation.

One V-cycle:

1. coarsen with *restricted* matching — only vertices of the same part
   may merge — so the current partitioning projects to every level with
   an identical cut;
2. refine the coarsest projection with FM;
3. uncoarsen, FM-refining at every level.

Like Algorithm 2, the result is monotonically non-increasing in the cut;
unlike it, a cycle re-coarsens (paying coarsening time) and can move whole
clusters across the cut at the coarse levels.

:func:`vcycle_refine` is the 2-way engine used inside recursive
bisection; :func:`kway_vcycle_refine` generalizes the same procedure to
k parts (restricted matching already only merges vertices with *equal*
part ids, so it works for arbitrary part vectors unchanged) and refines
every level with the connectivity-(λ−1) k-way FM pass instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.partitioner.coarsen import contract, match_vertices
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.fm import fm_refine, kway_refine
from repro.utils.deadline import Deadline, Degraded
from repro.utils.rng import SeedLike, as_generator

__all__ = ["VCycleResult", "vcycle_refine", "kway_vcycle_refine"]

# Observability (see docs/observability.md): cycle counts and the
# keep-best verdict per cycle; never consulted by the algorithm.
_VCYCLE_CYCLES = _metrics.counter(
    "repro_vcycle_cycles_total", "V-cycles executed", ("kind",)
)
_VCYCLE_KEEP_BEST = _metrics.counter(
    "repro_vcycle_keep_best_total",
    "Keep-best decisions at k-way V-cycle boundaries",
    ("decision",),
)
# Label children bound once, off the per-cycle path.
_VCYCLE_CYCLES_BI = _VCYCLE_CYCLES.labels(kind="bi")
_VCYCLE_CYCLES_KWAY = _VCYCLE_CYCLES.labels(kind="kway")
_VCYCLE_IMPROVED = _VCYCLE_KEEP_BEST.labels(decision="improved")
_VCYCLE_KEPT = _VCYCLE_KEEP_BEST.labels(decision="kept")


@dataclass
class VCycleResult:
    """Outcome of V-cycle refinement.

    Attributes
    ----------
    parts:
        Refined part vector (fresh array).
    cut:
        Connectivity-1 cut of ``parts``.
    cycles:
        Number of V-cycles executed.
    cuts:
        Cut after each cycle (index 0 is the input cut); non-increasing.
    feasible:
        Whether the weight ceilings hold.
    degraded:
        A :class:`~repro.utils.deadline.Degraded` record when a deadline
        stopped the cycles early, else ``None``.
    """

    parts: np.ndarray
    cut: int
    cycles: int
    cuts: list[int]
    feasible: bool
    degraded: Degraded | None = None


def vcycle_refine(
    h: Hypergraph,
    parts: np.ndarray,
    max_weights: tuple[int, int],
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    max_cycles: int = 3,
) -> VCycleResult:
    """Refine a bipartitioning of ``h`` with repeated V-cycles.

    Stops early when a cycle fails to improve the cut.  The input must be
    a 0/1 part vector; it is not modified.
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    parts = np.asarray(parts)
    if parts.shape != (h.nverts,):
        raise PartitioningError(
            f"parts must have shape ({h.nverts},), got {parts.shape}"
        )
    parts = parts.astype(np.int64, copy=True)
    if h.nverts and (parts.min() < 0 or parts.max() > 1):
        raise PartitioningError("vcycle_refine expects a 0/1 part vector")
    if max_cycles < 0:
        raise PartitioningError("max_cycles must be non-negative")

    cuts = [connectivity_volume(h, parts)]
    cycles = 0
    for _ in range(max_cycles):
        with _trace.span("vcycle.cycle", kind="bi", cycle=cycles):
            parts = _one_cycle(h, parts, max_weights, cfg, rng)
        cuts.append(connectivity_volume(h, parts))
        cycles += 1
        _VCYCLE_CYCLES_BI.inc()
        if cuts[-1] >= cuts[-2]:
            break

    return VCycleResult(
        parts=parts,
        cut=cuts[-1],
        cycles=cycles,
        cuts=cuts,
        feasible=_parts_feasible(h, parts, 2, np.asarray(max_weights)),
    )


def _parts_feasible(
    h: Hypergraph, parts: np.ndarray, nparts: int, ceilings: np.ndarray
) -> bool:
    """Do the per-part weights of ``parts`` satisfy every ceiling?

    Arity-generic (``np.bincount`` against per-part ceilings) — the old
    2-way check hardcoded ``w1 = dot(parts, vwgt)``, which silently
    mis-reports feasibility for any k > 2 part vector.
    """
    return bool(
        np.all(part_weights(h, parts, nparts) <= np.asarray(ceilings))
    )


def kway_vcycle_refine(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    max_cycles: int = 3,
    *,
    deadline: Deadline | None = None,
) -> VCycleResult:
    """Refine a k-way partitioning of ``h`` with repeated V-cycles.

    The k-way generalization of :func:`vcycle_refine`: each cycle
    re-coarsens with *restricted* matching (only same-part vertices may
    merge, so the k-way assignment projects to every level with an
    identical connectivity-(λ−1) cut), refines the coarsest projection
    with :func:`~repro.partitioner.fm.kway_refine`, then uncoarsens,
    k-way-refining at every level.  ``parts`` holds ids in
    ``[0, nparts)``; ``ceilings`` the per-part weight ceilings (length
    ``nparts``).  The input array is not modified.

    Keep-best contract: a cycle's outcome replaces the incumbent only
    when it wins the lexicographic ``(feasible, -cut)`` order, so from a
    feasible input the reported ``cuts`` are monotonically
    non-increasing and the result is never worse than the input.  An
    *infeasible* input is repaired on the way (``kway_refine`` falls
    back to the swap-capable ``kway_rebalance``), which may raise the
    cut once in exchange for feasibility — never silently kept: the
    ``feasible`` flag always reports the returned vector's true state.

    ``max_cycles=0`` is a pure no-op returning the input cut; so are
    ``nparts=1`` and empty hypergraphs (nothing to refine).

    The keep-best contract is what makes an optional ``deadline`` safe
    here: the incumbent is a complete, scored partitioning before every
    cycle, so an expiry observed at a cycle boundary (or inside a
    cycle's per-level refinements) simply ends the loop with the best
    vector found so far and a ``degraded`` record on the result.
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    nparts = int(nparts)
    if nparts < 1:
        raise PartitioningError(
            f"kway_vcycle_refine needs nparts >= 1, got {nparts}"
        )
    parts = np.asarray(parts)
    if parts.shape != (h.nverts,):
        raise PartitioningError(
            f"parts must have shape ({h.nverts},), got {parts.shape}"
        )
    parts = parts.astype(np.int64, copy=True)
    if h.nverts and (parts.min() < 0 or parts.max() >= nparts):
        raise PartitioningError(
            f"kway_vcycle_refine expects part ids in [0, {nparts})"
        )
    ceilings = np.ascontiguousarray(ceilings, dtype=np.int64)
    if ceilings.shape != (nparts,):
        raise PartitioningError(
            f"ceilings must have shape ({nparts},), got {ceilings.shape}"
        )
    if max_cycles < 0:
        raise PartitioningError("max_cycles must be non-negative")

    best = parts
    best_cut = connectivity_volume(h, best)
    best_feasible = _parts_feasible(h, best, nparts, ceilings)
    cuts = [best_cut]
    cycles = 0
    # A total weight above the combined ceilings is unrepairable by any
    # sequence of moves: skip the cycles (kway_refine would refuse the
    # state anyway) and report the input truthfully infeasible.
    repairable = h.total_weight() <= int(ceilings.sum())
    degraded = None
    if nparts >= 2 and h.nverts and repairable:
        for _ in range(max_cycles):
            if deadline is not None and deadline.expired():
                degraded = Degraded(
                    "vcycle", completed=cycles,
                    skipped=max_cycles - cycles,
                )
                _trace.event("deadline", where="vcycle", completed=cycles)
                break
            with _trace.span("vcycle.cycle", kind="kway",
                             cycle=cycles) as sp:
                cand = _one_kway_cycle(
                    h, best, nparts, ceilings, cfg, rng, deadline=deadline,
                )
                cand_cut = connectivity_volume(h, cand)
                cand_feasible = _parts_feasible(h, cand, nparts, ceilings)
                cycles += 1
                improved = (
                    (cand_feasible, -cand_cut) > (best_feasible, -best_cut)
                )
                sp.set(improved=improved, cut=cand_cut)
            _VCYCLE_CYCLES_KWAY.inc()
            (_VCYCLE_IMPROVED if improved else _VCYCLE_KEPT).inc()
            if improved:
                best, best_cut = cand, cand_cut
                best_feasible = cand_feasible
            cuts.append(best_cut)
            if not improved:
                break
    return VCycleResult(
        parts=best,
        cut=best_cut,
        cycles=cycles,
        cuts=cuts,
        feasible=best_feasible,
        degraded=degraded,
    )


def _one_kway_cycle(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    deadline: Deadline | None = None,
) -> np.ndarray:
    """One restricted-coarsen / k-way-refine-up pass.

    Restricted matching keeps every cluster within one part, so the
    projected partitioning is well defined at every level (and each
    nonempty part retains at least one coarse vertex — the coarsest
    level is always k-way partitionable).
    """
    cluster_cap = max(
        1, int(cfg.cluster_weight_frac * int(ceilings.min()))
    )
    levels: list[tuple[Hypergraph, np.ndarray]] = []  # (fine, cmap)
    cur_h = h
    cur_parts = parts
    while cur_h.nverts > cfg.coarse_target and len(levels) < cfg.max_levels:
        if deadline is not None and deadline.expired():
            break  # refine whatever granularity we reached
        match = match_vertices(
            cur_h, cfg, rng, cluster_cap, restrict_parts=cur_parts
        )
        cmap, coarse = contract(
            cur_h, match, merge_identical_nets=cfg.merge_identical_nets
        )
        if coarse.nverts > (1.0 - cfg.min_reduction) * cur_h.nverts:
            break
        # Project the partitioning: constant on clusters by construction.
        coarse_parts = np.empty(coarse.nverts, dtype=np.int64)
        coarse_parts[cmap] = cur_parts
        levels.append((cur_h, cmap))
        cur_h, cur_parts = coarse, coarse_parts

    cur_parts = kway_refine(
        cur_h, cur_parts, nparts, ceilings, cfg, rng, deadline=deadline
    ).parts
    for fine, cmap in reversed(levels):
        # Restricted coarsening means projection alone reproduces the
        # incoming assignment at every level — skipping a refinement
        # under an expired deadline degrades quality, never validity.
        cur_parts = cur_parts[cmap]
        if deadline is not None and deadline.expired():
            continue
        cur_parts = kway_refine(
            fine, cur_parts, nparts, ceilings, cfg, rng, deadline=deadline
        ).parts
    return cur_parts


def _one_cycle(
    h: Hypergraph,
    parts: np.ndarray,
    max_weights: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One restricted-coarsen / refine-up pass."""
    cluster_cap = max(
        1, int(cfg.cluster_weight_frac * min(max_weights[0], max_weights[1]))
    )
    levels: list[tuple[Hypergraph, np.ndarray]] = []  # (fine, cmap)
    cur_h = h
    cur_parts = parts
    while cur_h.nverts > cfg.coarse_target and len(levels) < cfg.max_levels:
        match = match_vertices(
            cur_h, cfg, rng, cluster_cap, restrict_parts=cur_parts
        )
        cmap, coarse = contract(
            cur_h, match, merge_identical_nets=cfg.merge_identical_nets
        )
        if coarse.nverts > (1.0 - cfg.min_reduction) * cur_h.nverts:
            break
        # Project the partitioning: constant on clusters by construction.
        coarse_parts = np.empty(coarse.nverts, dtype=np.int64)
        coarse_parts[cmap] = cur_parts
        levels.append((cur_h, cmap))
        cur_h, cur_parts = coarse, coarse_parts

    cur_parts = fm_refine(cur_h, cur_parts, max_weights, cfg, rng).parts
    for fine, cmap in reversed(levels):
        cur_parts = cur_parts[cmap]
        cur_parts = fm_refine(fine, cur_parts, max_weights, cfg, rng).parts
    return cur_parts
