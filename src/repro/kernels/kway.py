"""Shared setup for the k-way FM kernels (direct k-way partitioning).

The 2-way FM kernels track two pin counts per net (``pc0``/``pc1``) and a
single cut-gain per vertex.  Their k-way generalization — used by
:mod:`repro.core.kway` — optimizes the *connectivity-(λ−1)* metric
directly, which needs richer state:

``occ``
    Per-net part-occupancy counts (``nnets x k``): ``occ[n, p]`` is the
    number of pins of net ``n`` in part ``p``.  ``λ_n`` is the number of
    nonzero entries of row ``n``.
``connect``
    Per-vertex part-connectivity weights (``nverts x k``):
    ``connect[v, t] = sum(cost[n] for n ∋ v if occ[n, t] > 0)``.
``base``
    ``gain_leave[v] - C_v`` where ``gain_leave[v] = sum(cost[n] for n ∋ v
    if occ[n, part[v]] == 1)`` (the connectivity drop of removing ``v``
    from its part) and ``C_v = sum(cost[n] for n ∋ v)``.  The exact gain
    of moving ``v`` to part ``t`` is then ``base[v] + connect[v, t]``.
``best_to`` / ``best_gain``
    Each vertex's cached best move: the target part maximizing
    ``connect[v, t]`` over ``t != part[v]`` (ties to the lowest part id)
    and its gain.  The move loops keep these caches *exact* after every
    move, so the gain-bucket key is always the true best gain.

All of it is computed here vectorized, shared by the ``"python"`` and
``"numba"`` backends — only the sequential move loop differs, which is
what makes the backends bit-compatible (mirroring
:func:`repro.kernels.state.compute_fm_setup` for the 2-way pass).

Setup cost is O(Σ|n|·λ_n) scatter work plus the O((nnets + nverts)·k)
zero-fill of the two dense outputs: every array is one ``np.bincount``,
and ``connect`` scatters each pin's net cost only over its net's λ_n
present parts.  Under a good partition λ_n is small, so at k=64 this is
a small fraction of the ``npins x k`` block a dense scatter would touch.

The gain bound of the 2-way pass carries over: ``|base[v] +
connect[v, t]| <= C_v <= max_vertex_net_cost``, so the k-way buckets
reuse ``FMPassState.max_gain`` / ``nbuckets`` unchanged (one bucket
array instead of one per side — k-way selection has no "side").
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["compute_kway_setup"]


def _scatter_sum(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Integer ``np.add.at`` via ``np.bincount``.

    ``bincount`` accumulates weights in float64, which is exact for the
    non-negative integer sums here (every one is bounded by the total net
    cost, far below 2**53), so the cast back to int64 loses nothing.
    """
    return np.bincount(idx, weights=weights, minlength=n).astype(np.int64)


def compute_kway_setup(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    boundary_only: bool,
) -> tuple[np.ndarray, ...]:
    """Vectorized per-pass k-way FM setup, shared by every backend.

    Returns ``(occ, pw, base, connect, best_to, best_gain, insert_mask)``
    as described in the module docstring; ``pw`` is the part-weight
    vector and ``insert_mask`` the bucket-seeding mask (all vertices, or
    only vertices on nets with ``λ >= 2`` when ``boundary_only``).  An
    *infeasible* start (some part over its ceiling) always seeds every
    vertex: rebalancing must be able to move interior vertices — with a
    fully interior overweight part there would be no boundary at all.
    Requires ``nparts >= 2``.
    """
    k = int(nparts)
    nverts = h.nverts
    net_ids = h.net_ids()
    key = net_ids * k + parts[h.pins]
    occ_flat = np.bincount(key, minlength=h.nnets * k).astype(
        np.int64, copy=False
    )
    occ = occ_flat.reshape(h.nnets, k)
    pw = np.bincount(parts, weights=h.vwgt, minlength=k).astype(np.int64)

    costs = h.ncost[net_ids]
    sole = occ_flat[key] == 1
    base = _scatter_sum(h.pins, costs * sole, nverts) - _scatter_sum(
        h.pins, costs, nverts
    )

    # The present (net, part) pairs in net-major order, and λ_n per net.
    pair_net, pair_part = np.divmod(np.flatnonzero(occ_flat), k)
    lam = np.bincount(pair_net, minlength=h.nnets)
    # Every pin adds its net's cost to each of the net's λ_n present
    # parts: Σ|n|·λ_n scatter entries instead of a dense npins x k block.
    reps = lam[net_ids]
    pair_start = (np.cumsum(lam) - lam)[net_ids]
    run_start = np.cumsum(reps) - reps
    pin_rep = np.repeat(np.arange(h.npins, dtype=np.int64), reps)
    pair_idx = np.repeat(pair_start - run_start, reps) + np.arange(
        pin_rep.size, dtype=np.int64
    )
    connect = _scatter_sum(
        h.pins[pin_rep] * k + pair_part[pair_idx],
        costs[pin_rep],
        nverts * k,
    ).reshape(nverts, k)

    # Best admissible-ignoring move per vertex: argmax over t != part[v]
    # of connect[v, t]; np.argmax resolves ties to the lowest part id,
    # the discipline the move loops preserve incrementally.
    vids = np.arange(nverts, dtype=np.int64)
    masked = connect.copy()
    if nverts:
        masked[vids, parts] = -1
    best_to = (
        masked.argmax(axis=1).astype(np.int64)
        if nverts
        else np.empty(0, dtype=np.int64)
    )
    # connect >= 0 and k >= 2, so the best non-own entry is >= 0.
    best_conn = masked[vids, best_to] if nverts else best_to
    best_gain = base + np.maximum(best_conn, 0)

    if boundary_only and bool(np.all(pw <= np.asarray(ceilings))):
        insert_mask = np.zeros(nverts, dtype=bool)
        insert_mask[h.pins[lam[net_ids] >= 2]] = True
    else:
        insert_mask = np.ones(nverts, dtype=bool)
    return occ, pw, base, connect, best_to, best_gain, insert_mask
