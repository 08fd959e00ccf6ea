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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import kernels_for
from repro.kernels.python_backend import merge_identical_nets as _merge_nets
from repro.partitioner.config import PartitionerConfig

__all__ = ["match_vertices", "contract", "coarsen_level", "CoarseLevel"]


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
) -> CoarseLevel:
    """Run one matching + contraction step.

    An expired ``deadline`` stops the matching sweep with
    :class:`~repro.utils.deadline.Expired` before anything is contracted.
    """
    match = match_vertices(
        h, config, rng, max_cluster_weight, deadline=deadline
    )
    cmap, coarse = contract(
        h, match, merge_identical_nets=config.merge_identical_nets
    )
    return CoarseLevel(fine=h, cmap=cmap, coarse=coarse)
