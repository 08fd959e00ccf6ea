"""hMetis-style V-cycle refinement.

The paper (Section III-C) contrasts its iterative refinement with "the
so-called V-cycle refinement included in hMetis, which is a multi-level
postprocessing procedure with a restricted coarsening (respecting the
current partitioning) followed by Kernighan–Lin refinement at all levels".
This module implements that procedure, both as a quality option for the
partitioner and as the comparator for the IR-vs-V-cycle ablation.

One V-cycle:

1. coarsen with *restricted* clustering — only vertices of the same part
   may share a cluster — so the current partitioning projects to every
   level with an identical cut;
2. refine the coarsest projection with FM;
3. uncoarsen, FM-refining at every level.

Like Algorithm 2, the result is monotonically non-increasing in the cut;
unlike it, a cycle re-coarsens (paying coarsening time) and can move whole
clusters across the cut at the coarse levels.

:func:`vcycle_refine` is the 2-way engine used inside recursive
bisection; :func:`kway_vcycle_refine` generalizes the same procedure to
k parts (restricted clustering already only merges vertices with *equal*
part ids, so it works for arbitrary part vectors unchanged) and refines
every level with the connectivity-(λ−1) k-way FM pass instead.  Both
uncoarsen with the multilevel engines' loop
(:func:`repro.partitioner.multilevel._uncoarsen`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import (
    check_parts,
    connectivity_volume,
    part_weights,
)
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.partitioner.coarsen import cluster_cap, coarsen
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.fm import FMResult, fm_refine, kway_refine
from repro.partitioner.multilevel import _uncoarsen
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
    parts = check_parts(h, parts, 2).copy()
    if max_cycles < 0:
        raise PartitioningError("max_cycles must be non-negative")

    cap = cluster_cap(max_weights)
    refine = partial(fm_refine, max_weights=max_weights, config=cfg, seed=rng)
    cuts = [connectivity_volume(h, parts)]
    cycles = 0
    for _ in range(max_cycles):
        with _trace.span("vcycle.cycle", kind="bi", cycle=cycles):
            parts, _ = _one_cycle(h, parts, cap, cfg, rng, refine)
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
    """Do the per-part weights of ``parts`` satisfy every ceiling?"""
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
    score: tuple[int, bool] | None = None,
) -> VCycleResult:
    """Refine a k-way partitioning of ``h`` with repeated V-cycles.

    The k-way generalization of :func:`vcycle_refine`: each cycle
    re-coarsens with *restricted* clustering (only same-part vertices may
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
    ``nparts=1`` and empty hypergraphs (nothing to refine).  ``score``
    is the input's ``(cut, feasible)`` when the caller already knows
    it; the input is then not scored again.

    The keep-best contract is what makes an optional ``deadline`` safe
    here: the incumbent is a complete, scored partitioning before every
    cycle, so an expiry observed at a cycle boundary (or inside a
    cycle: its restricted clustering sweeps or its per-level refinements)
    simply ends the loop with the best vector found so far and a
    ``degraded`` record on the result; a cut-short cycle counts as
    completed.
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    nparts = int(nparts)
    if nparts < 1:
        raise PartitioningError(
            f"kway_vcycle_refine needs nparts >= 1, got {nparts}"
        )
    parts = check_parts(h, parts, nparts).copy()
    ceilings = np.ascontiguousarray(ceilings, dtype=np.int64)
    if ceilings.shape != (nparts,):
        raise PartitioningError(
            f"ceilings must have shape ({nparts},), got {ceilings.shape}"
        )
    if max_cycles < 0:
        raise PartitioningError("max_cycles must be non-negative")

    best = parts
    if score is None:
        score = (
            connectivity_volume(h, best),
            _parts_feasible(h, best, nparts, ceilings),
        )
    best_cut, best_feasible = int(score[0]), bool(score[1])
    cuts = [best_cut]
    cycles = 0
    # A total weight above the combined ceilings is unrepairable by any
    # sequence of moves: skip the cycles (kway_refine would refuse the
    # state anyway) and report the input truthfully infeasible.
    repairable = h.total_weight() <= int(ceilings.sum())
    degraded = None
    cut_short = False  # a deadline stopped a cycle midway
    cap = cluster_cap(ceilings)
    refine = partial(
        kway_refine, nparts=nparts, ceilings=ceilings, config=cfg, seed=rng,
        deadline=deadline,
    )
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
                cand, cut_short = _one_cycle(
                    h, best, cap, cfg, rng, refine, deadline
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
            if cut_short or not improved:
                break
    if cut_short:
        degraded = Degraded(
            "vcycle", completed=cycles, skipped=max_cycles - cycles
        )
    return VCycleResult(
        parts=best,
        cut=best_cut,
        cycles=cycles,
        cuts=cuts,
        feasible=best_feasible,
        degraded=degraded,
    )


def _one_cycle(
    h: Hypergraph,
    parts: np.ndarray,
    cap: int,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    refine: Callable[[Hypergraph, np.ndarray], FMResult],
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, bool]:
    """One restricted-coarsen / refine-up pass.

    ``refine(hypergraph, parts)`` is the FM refinement of the cycle's
    arity (:func:`~repro.partitioner.fm.fm_refine` or
    :func:`~repro.partitioner.fm.kway_refine` with its ceilings and
    deadline bound).  Restricted clustering keeps every cluster within
    one part, so the projected partitioning is well defined at every
    level (and each nonempty part retains at least one coarse vertex —
    the coarsest level is always k-way partitionable); skipping a
    refinement under an expired deadline degrades quality, never
    validity.

    Returns the refined vector and whether ``deadline`` cut the pass
    short (fewer levels, a skipped level, or a cut-short refinement).
    """
    levels, cur_parts, cut_short = coarsen(
        h, cfg, rng, cap, cfg.coarse_target, deadline, parts
    )
    cur_h = levels[-1].coarse if levels else h
    parts, _, degraded = _uncoarsen(
        levels, refine(cur_h, cur_parts), refine, deadline, None, cut_short
    )
    return parts, degraded is not None
