"""Multilevel coarsening: clustering and contraction.

Coarsening groups strongly connected vertices into clusters and contracts
each cluster into one coarse vertex, shrinking the hypergraph until it is
cheap to partition directly.  The clustering is agglomerative (PaToH's
style): vertices are visited in random order, and each one that no
cluster holds yet joins the best-connected *existing* cluster among its
neighbours', subject to the cluster weight cap and to
:data:`MAX_CLUSTER_MEMBERS`.  Two connection scores are provided
(selected by ``PartitionerConfig.matching``):

* ``"hcm"`` — heavy connectivity: a cluster's score is the total cost of
  the nets the visited vertex shares with it, one term per member on
  the net (Mondriaan-style);
* ``"absorption"`` — PaToH-style absorption score ``cost / (|net| - 1)``,
  which discounts large nets.

Contraction is fully vectorized: pins are mapped through the cluster map,
deduplicated with one lexsort, nets that shrink below two pins are dropped
(they can never be cut), and nets with identical pin sets are merged with
their costs added, which both shrinks the problem and sharpens FM gains
on the coarse levels.

The scalar clustering sweep and the identical-net merge are kernels
(:mod:`repro.kernels`).

:func:`coarsen` is the one coarsening loop of the multilevel engines and
the V-cycles (paper Section II; hMetis's V-cycle, Section III-C, is the
same loop with restricted clustering): it decides how many levels to
build, when clustering has stalled, and when a deadline stops it.
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
    "MAX_CLUSTER_MEMBERS",
    "CLUSTER_WEIGHT_FRAC",
    "cluster_cap",
    "cluster_vertices",
    "contract",
    "coarsen_level",
    "coarsen",
    "CoarseLevel",
]

#: Most vertices one cluster may hold (``None``: no limit beyond the
#: weight cap).  At 2 :func:`coarsen` is greedy pair matching, sweeping
#: every level to the end; otherwise it ends a level's sweep once the
#: level is down to the coarse target, since one clustering level can
#: overshoot the target by far (to a third of it on ``pway``'s
#: bisections), and the coarsest hypergraph then partitions worse.
MAX_CLUSTER_MEMBERS: int | None = None

#: A cluster may weigh at most this fraction of the smallest part-weight
#: ceiling, keeping the coarsest hypergraph partitionable (see
#: :func:`cluster_cap`).
CLUSTER_WEIGHT_FRAC = 0.35

#: A level that removes less than this fraction of the vertices means
#: clustering has stalled: :func:`coarsen` drops it and stops.
MIN_REDUCTION = 0.03

#: Most levels :func:`coarsen` builds.
MAX_LEVELS = 48


def cluster_cap(ceilings, divisor: int = 1) -> int:
    """The cluster weight cap under the part-weight ``ceilings``:
    :data:`CLUSTER_WEIGHT_FRAC` of the smallest ceiling, divided by
    ``divisor`` (the k-way engine coarsens under a quarter of it), and
    at least 1."""
    return max(1, int(CLUSTER_WEIGHT_FRAC * int(np.min(ceilings))) // divisor)


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the fine hypergraph and the vertex map into the
    coarse one (``cmap[fine_vertex] = coarse_vertex``)."""

    fine: Hypergraph
    cmap: np.ndarray
    coarse: Hypergraph


def cluster_vertices(
    h: Hypergraph,
    config: PartitionerConfig,
    rng: np.random.Generator,
    max_cluster_weight: int,
    restrict_parts: np.ndarray | None = None,
    deadline=None,
    min_clusters: int = 0,
) -> np.ndarray:
    """Greedy agglomerative clustering; returns the cluster map:
    vertices with equal entries form one cluster.

    Vertices are visited in random order; each one that no cluster holds
    yet scores the clusters of its neighbours on (not too large) nets
    and joins the best, subject to the cluster's weight plus its own not
    exceeding ``max_cluster_weight`` and the cluster holding fewer than
    :data:`MAX_CLUSTER_MEMBERS` vertices.  The sweep ends once only
    ``min_clusters`` clusters are left (``0``: never early).

    ``restrict_parts`` enables hMetis-style *restricted* coarsening:
    only vertices in the same part may share a cluster, so any
    partitioning constant on the clusters projects exactly (used by
    V-cycle refinement).

    The sweep is a kernel
    (:meth:`~repro.kernels.base.KernelBackend.cluster_vertices`); the
    RNG is consumed here.  A ``deadline`` goes to the kernel, which
    checks it during the sweep and raises
    :class:`~repro.utils.deadline.Expired` once it has expired; without
    one the kernel is called exactly as before.
    """
    nverts = h.nverts
    if nverts == 0 or h.npins == 0:
        return np.arange(nverts, dtype=np.int64)
    kernels = kernels_for(config)
    order = rng.permutation(nverts)
    args = (
        kernels.fm_state(h),
        order,
        config.matching == "absorption",
        config.max_net_size_matching,
        max_cluster_weight,
        MAX_CLUSTER_MEMBERS,
        min_clusters,
        restrict_parts,
    )
    if deadline is None:
        return kernels.cluster_vertices(*args)
    return kernels.cluster_vertices(*args, deadline=deadline)


def contract(
    h: Hypergraph, cluster: np.ndarray
) -> tuple[np.ndarray, Hypergraph]:
    """Contract clusters; returns ``(cmap, coarse_hypergraph)``.

    ``cluster`` labels each fine vertex's cluster (vertices with equal
    labels form one cluster).  ``cmap`` maps each fine vertex to its
    coarse id; clusters are numbered in the order of their lowest
    vertex ids.  Coarse vertex weights are the sums over their clusters,
    and nets with identical pin sets merge into one, their costs added.
    """
    nverts = h.nverts
    _, first, inverse = np.unique(
        np.asarray(cluster, dtype=np.int64),
        return_index=True, return_inverse=True,
    )
    # ``first`` holds each label's lowest vertex; rank labels by it.
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size, dtype=np.int64)
    cmap = rank[inverse.reshape(nverts)]
    ncoarse = int(first.size)

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

    if live_ids.size > 1:
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
    min_clusters: int = 0,
) -> CoarseLevel:
    """Run one clustering + contraction step.

    An expired ``deadline`` stops the clustering sweep with
    :class:`~repro.utils.deadline.Expired` before anything is contracted.
    ``restrict_parts`` restricts the clusters to one part each, and the
    sweep ends once only ``min_clusters`` clusters are left (see
    :func:`cluster_vertices`).
    """
    cluster = cluster_vertices(
        h, config, rng, max_cluster_weight,
        restrict_parts=restrict_parts, deadline=deadline,
        min_clusters=min_clusters,
    )
    cmap, coarse = contract(h, cluster)
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
    ``cluster_cap``; above the pair limit of :data:`MAX_CLUSTER_MEMBERS`
    a level's sweep ends once it is down to ``target`` clusters) until the coarsest has at
    most ``target`` vertices, :data:`MAX_LEVELS` levels exist, or
    clustering stalls: a level that removes less than
    :data:`MIN_REDUCTION` of the vertices is dropped and ends the loop.

    With ``parts``, clustering is restricted to same-part clusters, so
    the partitioning is constant on every cluster; it is projected to each
    level and the coarsest projection returned.  Without, the returned
    projection is ``None``.

    A ``deadline`` is checked before each level and inside its
    clustering sweep; once it has expired, the unfinished level is
    dropped and the loop stops.  Either stop is a ``deadline`` event
    (``where="coarsen"`` or ``where="match"`` with the sweep's
    ``visited`` count) on the caller's current span.

    Returns ``(levels, coarse_parts, cut_short)``; ``cut_short`` says a
    deadline stopped the loop.
    """
    levels: list[CoarseLevel] = []
    cur, cur_parts = h, parts
    min_clusters = 0 if MAX_CLUSTER_MEMBERS == 2 else target
    while cur.nverts > target and len(levels) < MAX_LEVELS:
        if deadline is not None and deadline.expired():
            _trace.event("deadline", where="coarsen")
            return levels, cur_parts, True
        try:
            level = coarsen_level(
                cur, config, rng, cluster_cap, deadline, cur_parts,
                min_clusters,
            )
        except Expired as stop:
            _trace.event("deadline", where="match", visited=stop.visited)
            return levels, cur_parts, True
        if 1.0 - level.coarse.nverts / cur.nverts < MIN_REDUCTION:
            break  # clustering stalled; further levels would be wasted work
        levels.append(level)
        cur = level.coarse
        if cur_parts is not None:
            coarse_parts = np.empty(cur.nverts, dtype=np.int64)
            coarse_parts[level.cmap] = cur_parts
            cur_parts = coarse_parts
    return levels, cur_parts, False
