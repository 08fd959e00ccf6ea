"""Multilevel coarsening: matching and contraction.

Coarsening pairs up strongly connected vertices and contracts each pair into
one coarse vertex, shrinking the hypergraph until it is cheap to partition
directly.  Two matching scores are provided (selected by
``PartitionerConfig.matching``):

* ``"hcm"`` — heavy-connectivity matching: a candidate's score is the total
  cost of nets shared with the seed vertex (Mondriaan-style);
* ``"absorption"`` — PaToH-style absorption score ``cost / (|net| - 1)``,
  which discounts large nets.

Contraction is fully vectorized: pins are mapped through the cluster map,
deduplicated with one lexsort, nets that shrink below two pins are dropped
(they can never be cut), and — optionally — nets with identical pin sets
are merged with their costs added, which both shrinks the problem and
sharpens FM gains on the coarse levels.

The scalar matching sweep and the identical-net merge are kernels
(:mod:`repro.kernels`).

:func:`coarsen` is the one coarsening loop of the multilevel engines and
the V-cycles (paper Section II; hMetis's V-cycle, Section III-C, is the
same loop with restricted matching): it decides how many levels to
build, when matching has stalled, and when a deadline stops it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import kernels_for
from repro.kernels.python_backend import merge_identical_nets as _merge_nets
from repro.obs import trace as _trace
from repro.partitioner.config import PartitionerConfig
from repro.utils.deadline import Expired

__all__ = [
    "match_vertices",
    "contract",
    "coarsen_level",
    "coarsen",
    "CoarseLevel",
]


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the fine hypergraph and the vertex map into the
    coarse one (``cmap[fine_vertex] = coarse_vertex``)."""

    fine: Hypergraph
    cmap: np.ndarray
    coarse: Hypergraph


def match_vertices(
    h: Hypergraph,
    config: PartitionerConfig,
    rng: np.random.Generator,
    max_cluster_weight: int,
    restrict_parts: np.ndarray | None = None,
    deadline=None,
) -> np.ndarray:
    """Greedy matching; returns ``match`` with ``match[v]`` the partner of
    ``v`` or ``-1`` for unmatched vertices.

    Vertices are visited in random order; each unmatched vertex scores all
    unmatched neighbours sharing a (not too large) net and takes the best,
    subject to the pair weight not exceeding ``max_cluster_weight``.

    ``restrict_parts`` enables hMetis-style *restricted* coarsening: only
    vertices in the same part may match, so any partitioning constant on
    the clusters projects exactly (used by V-cycle refinement).

    The candidate-scoring sweep is a kernel
    (:meth:`~repro.kernels.base.KernelBackend.match_vertices`); the RNG
    is consumed here.  A ``deadline`` goes to the kernel, which checks
    it during the sweep and raises
    :class:`~repro.utils.deadline.Expired` once it has expired; without
    one the kernel is called exactly as before.
    """
    nverts = h.nverts
    if nverts == 0 or h.npins == 0:
        return np.full(nverts, -1, dtype=np.int64)
    kernels = kernels_for(config)
    order = rng.permutation(nverts)
    args = (
        kernels.fm_state(h),
        order,
        config.matching == "absorption",
        config.max_net_size_matching,
        max_cluster_weight,
        restrict_parts,
    )
    if deadline is None:
        return kernels.match_vertices(*args)
    return kernels.match_vertices(*args, deadline=deadline)


def contract(
    h: Hypergraph,
    match: np.ndarray,
    *,
    merge_identical_nets: bool = True,
) -> tuple[np.ndarray, Hypergraph]:
    """Contract matched pairs; returns ``(cmap, coarse_hypergraph)``.

    ``cmap`` maps each fine vertex to its coarse id; matched pairs share an
    id, unmatched vertices keep their own.  Coarse vertex weights are the
    sums over their clusters.
    """
    nverts = h.nverts
    ids = np.arange(nverts, dtype=np.int64)
    match = np.asarray(match, dtype=np.int64)
    # A vertex is a representative if unmatched or the smaller id of its pair.
    is_rep = (match < 0) | (ids < match)
    cmap = np.empty(nverts, dtype=np.int64)
    cmap[is_rep] = np.cumsum(is_rep)[is_rep] - 1
    nonrep = ~is_rep
    cmap[nonrep] = cmap[match[nonrep]]
    ncoarse = int(is_rep.sum())

    cvwgt = np.zeros(ncoarse, dtype=np.int64)
    np.add.at(cvwgt, cmap, h.vwgt)

    if h.npins == 0:
        coarse = Hypergraph(
            ncoarse,
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            vwgt=cvwgt,
            ncost=np.empty(0, dtype=np.int64),
            validate=False,
        )
        return cmap, coarse

    # Map pins and deduplicate within each net with a single lexsort.
    net_ids = h.net_ids()
    new_pins = cmap[h.pins]
    order = np.lexsort((new_pins, net_ids))
    sn = net_ids[order]
    sp = new_pins[order]
    keep = np.empty(sn.size, dtype=bool)
    keep[0] = True
    keep[1:] = (sn[1:] != sn[:-1]) | (sp[1:] != sp[:-1])
    sn = sn[keep]
    sp = sp[keep]
    new_sizes = np.bincount(sn, minlength=h.nnets)

    # Drop nets that shrank below two pins; they can never be cut.
    live = new_sizes >= 2
    keep_pin = live[sn]
    sn = sn[keep_pin]
    sp = sp[keep_pin]
    live_ids = np.flatnonzero(live)
    ncost = h.ncost[live_ids]
    live_sizes = new_sizes[live_ids]
    xpins = np.zeros(live_ids.size + 1, dtype=np.int64)
    np.cumsum(live_sizes, out=xpins[1:])
    pins = sp  # already grouped by net in ascending net order

    if merge_identical_nets and live_ids.size > 1:
        xpins, pins, ncost = _merge_nets(xpins, pins, ncost)

    coarse = Hypergraph(
        ncoarse, xpins, pins, vwgt=cvwgt, ncost=ncost, validate=False
    )
    return cmap, coarse


def coarsen_level(
    h: Hypergraph,
    config: PartitionerConfig,
    rng: np.random.Generator,
    max_cluster_weight: int,
    deadline=None,
    restrict_parts: np.ndarray | None = None,
) -> CoarseLevel:
    """Run one matching + contraction step.

    An expired ``deadline`` stops the matching sweep with
    :class:`~repro.utils.deadline.Expired` before anything is contracted.
    ``restrict_parts`` restricts the matching to same-part pairs (see
    :func:`match_vertices`).
    """
    match = match_vertices(
        h, config, rng, max_cluster_weight,
        restrict_parts=restrict_parts, deadline=deadline,
    )
    cmap, coarse = contract(
        h, match, merge_identical_nets=config.merge_identical_nets
    )
    return CoarseLevel(fine=h, cmap=cmap, coarse=coarse)


def coarsen(
    h: Hypergraph,
    config: PartitionerConfig,
    rng: np.random.Generator,
    cluster_cap: int,
    target: int,
    deadline=None,
    parts: np.ndarray | None = None,
) -> tuple[list[CoarseLevel], np.ndarray | None, bool]:
    """Coarsen ``h`` until at most ``target`` vertices remain.

    Adds levels (:func:`coarsen_level`, clusters capped at
    ``cluster_cap``) until the coarsest has at most ``target`` vertices,
    ``config.max_levels`` levels exist, or matching stalls: a level that
    removes less than ``config.min_reduction`` of the vertices is
    dropped and ends the loop.

    With ``parts``, matching is restricted to same-part pairs, so the
    partitioning is constant on every cluster; it is projected to each
    level and the coarsest projection returned.  Without, the returned
    projection is ``None``.

    A ``deadline`` is checked before each level and inside its matching
    sweep; once it has expired, the unfinished level is dropped and the
    loop stops.  Either stop is a ``deadline`` event (``where="coarsen"``
    or ``where="match"`` with the sweep's ``visited`` count) on the
    caller's current span.

    Returns ``(levels, coarse_parts, cut_short)``; ``cut_short`` says a
    deadline stopped the loop.
    """
    levels: list[CoarseLevel] = []
    cur, cur_parts = h, parts
    while cur.nverts > target and len(levels) < config.max_levels:
        if deadline is not None and deadline.expired():
            _trace.event("deadline", where="coarsen")
            return levels, cur_parts, True
        try:
            level = coarsen_level(
                cur, config, rng, cluster_cap, deadline, cur_parts
            )
        except Expired as stop:
            _trace.event("deadline", where="match", visited=stop.visited)
            return levels, cur_parts, True
        if 1.0 - level.coarse.nverts / cur.nverts < config.min_reduction:
            break  # matching stalled; further levels would be wasted work
        levels.append(level)
        cur = level.coarse
        if cur_parts is not None:
            coarse_parts = np.empty(cur.nverts, dtype=np.int64)
            coarse_parts[level.cmap] = cur_parts
            cur_parts = coarse_parts
    return levels, cur_parts, False
