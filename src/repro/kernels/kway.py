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

All of it is computed here vectorized, so the python move loop only
keeps it up to date (mirroring
:func:`repro.kernels.state.compute_fm_setup` for the 2-way pass).

**Dense and sparse tables.**  ``connect[v, part[v]]`` is ``C_v``; every
other nonzero entry of ``connect`` comes from a cut net (``λ_n >= 2``),
Σ |n|·λ_n scatter entries over the cut nets in all.  Under a good
partition few nets are cut and λ_n is small, so at k=64 the nonzero
entries of both tables are a small fraction of the
``(nnets + nverts)·k`` block.  :func:`sparse_tables` decides, from the
hypergraph and ``k``, whether the two tables come back dense (2-D
arrays, as the move loops index them) or as :class:`PairTable` lists of
the entries that may be nonzero:

* *dense* — ``occ`` is one ``np.bincount`` over the key
  ``net * k + part``, ``connect`` one integer scatter of the cut-net
  entries into a zeroed block, and the best moves a masked ``argmax``.
  Every step is linear in the block, with small constants.
* *sparse* — the present pairs come from one sort of the ``npins`` pin
  keys and one of the cut-net entries (equal keys summed), and the best
  moves from segmented reductions over each vertex's entries.  A sort
  costs more per entry than a scatter, so this pays only when the block
  is much larger than the entries; nothing in it is proportional to
  ``k``.

The python move loop fills its flat lists from the pair tables without
converting the zeros.

The gain bound of the 2-way pass carries over: ``|base[v] +
connect[v, t]| <= C_v <= max_vertex_net_cost``, so the k-way buckets
reuse ``FMPassState.max_gain`` / ``nbuckets`` unchanged (one bucket
array instead of one per side — k-way selection has no "side").
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "KwaySetup", "PairTable", "compute_kway_setup", "sparse_tables",
]


class PairTable(NamedTuple):
    """The entries of an integer ``(nrows, k)`` table that may be nonzero.

    ``keys`` are distinct flat positions ``row * k + col`` and ``vals``
    the entries there; every other entry is zero.
    """

    keys: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    def toarray(self) -> np.ndarray:
        """The table as a dense ``int64`` array of :attr:`shape`."""
        nrows, k = self.shape
        out = np.zeros(nrows * k, dtype=np.int64)
        out[self.keys] = self.vals
        return out.reshape(nrows, k)


Table = Union[np.ndarray, PairTable]


class KwaySetup(NamedTuple):
    """Per-pass k-way FM state (see the module docstring).

    ``occ`` and ``connect`` are dense 2-D arrays or pair tables
    (:class:`PairTable`), as :func:`sparse_tables` decides; every other
    field is a dense array.
    """

    occ: Table
    pw: np.ndarray
    base: np.ndarray
    connect: Table
    best_to: np.ndarray
    best_gain: np.ndarray
    insert_mask: np.ndarray


def sparse_tables(h: Hypergraph, nparts: int) -> bool:
    """The density rule: build ``occ``/``connect`` as pair tables?

    A net ``n`` holds at most ``min(|n|, k)`` parts, so the sparse path
    sorts at most ``S = Σ |n|·min(|n|, k)`` connectivity entries; it is
    chosen when three times that still undercuts the dense
    ``(nnets + nverts) x k`` block.  Big nets (every vertex next to most
    parts) keep a level dense at any ``k``.  The rule reads only the
    hypergraph and ``k``, never the partition, so a level's regime is
    the same in every pass.
    """
    k = int(nparts)
    sizes = h.net_sizes()
    bound = int(np.dot(sizes, np.minimum(sizes, k)))
    return 3 * bound < (h.nnets + h.nverts) * k


def _scatter_sum(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Integer scatter-add: ``out[idx[i]] += weights[i]`` into ``n``
    zeros, in ``int64`` throughout (``np.add.at``'s unbuffered loop)."""
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, idx, weights)
    return out


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in ``a``."""
    if a.size == 0:
        return np.empty(0, dtype=np.int64)
    first = np.empty(a.size, dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return np.flatnonzero(first)


def compute_kway_setup(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    boundary_only: bool,
) -> KwaySetup:
    """Vectorized per-pass k-way FM setup.

    Returns a :class:`KwaySetup` ``(occ, pw, base, connect, best_to,
    best_gain, insert_mask)`` as described in the module docstring;
    ``pw`` is the part-weight vector and ``insert_mask`` the
    bucket-seeding mask (all vertices, or only vertices on nets with
    ``λ >= 2`` when ``boundary_only``).  An *infeasible* start (some part
    over its ceiling) always seeds every vertex: rebalancing must be able
    to move interior vertices — with a fully interior overweight part
    there would be no boundary at all.  Requires ``nparts >= 2``.
    """
    k = int(nparts)
    nverts, nnets = h.nverts, h.nnets
    sparse = sparse_tables(h, k)
    net_ids = h.net_ids()
    key = net_ids * k + parts[h.pins]
    pw = _scatter_sum(parts, h.vwgt, k)

    # The present (net, part) pairs as increasing keys, and each pin's
    # pair count (the number of its net's pins in its part).
    if sparse:
        # Stable: the keys are already in net order, and timsort runs
        # through the nearly sorted sequence.
        order = np.argsort(key, kind="stable")
        skey = key[order]
        starts = _run_starts(skey)
        occ_keys = skey[starts]
        occ_vals = np.diff(np.append(starts, skey.size))
        pin_count = np.empty_like(occ_vals, shape=key.size)
        pin_count[order] = np.repeat(occ_vals, occ_vals)
        occ = PairTable(occ_keys, occ_vals, (nnets, k))
    else:
        occ_flat = np.bincount(key, minlength=nnets * k)
        pin_count = occ_flat[key]
        occ_keys = np.flatnonzero(occ_flat)
        occ = occ_flat.reshape(nnets, k)

    # C_v, and base = gain_leave - C_v from the pins that are their
    # part's only pin on the net.
    costs = h.ncost[net_ids]
    cv = _scatter_sum(h.pins, costs, nverts)
    sole = pin_count == 1
    base = _scatter_sum(h.pins[sole], costs[sole], nverts) - cv

    # connect[v, part[v]] is C_v: every net of v holds v's part.  The
    # other entries come from the cut nets (λ_n >= 2) only: each of
    # their pins adds its net's cost to each of the net's present parts
    # — Σ λ_n·|n| entries over the cut nets instead of a dense npins x k
    # block (C_v replaces the entries on a pin's own part).
    pair_net, pair_part = np.divmod(occ_keys, k)
    lam = np.bincount(pair_net, minlength=nnets)
    reps = lam[net_ids]
    cut_pin = np.flatnonzero(reps >= 2)
    run = reps[cut_pin]
    pin_rep = np.repeat(cut_pin, run)
    pair_first = (np.cumsum(lam) - lam)[net_ids[cut_pin]]
    run_first = np.cumsum(run) - run
    pair_idx = np.repeat(pair_first - run_first, run) + np.arange(
        pin_rep.size, dtype=np.int64
    )
    ent_key = h.pins[pin_rep] * k + pair_part[pair_idx]
    ent_w = costs[pin_rep]

    if sparse:
        connect, best_to, best_conn = _sparse_connect(
            ent_key, ent_w, cv, parts, k
        )
    else:
        connect, best_to, best_conn = _dense_connect(
            ent_key, ent_w, cv, parts, k
        )
    best_gain = base + best_conn

    if boundary_only and bool(np.all(pw <= np.asarray(ceilings))):
        insert_mask = np.zeros(nverts, dtype=bool)
        insert_mask[h.pins[cut_pin]] = True
    else:
        insert_mask = np.ones(nverts, dtype=bool)
    return KwaySetup(occ, pw, base, connect, best_to, best_gain, insert_mask)


def _dense_connect(ent_key, ent_w, cv, parts, k):
    """``connect`` as a dense array, and each vertex's best move.

    The best move is the argmax over ``t != part[v]`` of
    ``connect[v, t]``; ``np.argmax`` resolves ties to the lowest part id,
    the discipline the move loops preserve incrementally.
    """
    nverts = cv.size
    vids = np.arange(nverts, dtype=np.int64)
    own = vids * k + parts
    flat = _scatter_sum(ent_key, ent_w, nverts * k)
    # connect >= 0 and k >= 2, so the best non-own entry is >= 0.
    flat[own] = -1
    connect = flat.reshape(nverts, k)
    best_to = connect.argmax(axis=1)
    best_conn = flat[vids * k + best_to]
    flat[own] = cv
    return connect, best_to, best_conn


def _sparse_connect(ent_key, ent_w, cv, parts, k):
    """``connect`` as a :class:`PairTable`, and each vertex's best move,
    with the same tie-breaks as :func:`_dense_connect`.

    Equal keys are summed after one sort.  A vertex whose best off-own
    entry is positive takes the lowest part holding it (each vertex's
    entries are in part order); every other vertex has only zeros off
    its own part, so the argmax is the lowest part id that is not its
    own, at connectivity 0.
    """
    nverts = cv.size
    order = np.argsort(ent_key)
    skey = ent_key[order]
    starts = _run_starts(skey)
    keys = skey[starts]
    vals = (
        np.add.reduceat(ent_w[order], starts)
        if starts.size
        else np.empty(0, dtype=np.int64)
    )
    ent_v, ent_p = np.divmod(keys, k)
    off_own = np.flatnonzero(ent_p != parts[ent_v])
    keys, vals, ent_v, ent_p = (
        keys[off_own], vals[off_own], ent_v[off_own], ent_p[off_own]
    )
    own = np.arange(nverts, dtype=np.int64) * k + parts
    connect = PairTable(
        np.concatenate((own, keys)), np.concatenate((cv, vals)), (nverts, k)
    )

    best_to = (parts == 0).astype(np.int64)
    best_conn = np.zeros(nverts, dtype=np.int64)
    vstarts = _run_starts(ent_v)
    if vstarts.size:
        best_conn[ent_v[vstarts]] = np.maximum.reduceat(vals, vstarts)
        hit = np.flatnonzero((vals > 0) & (vals == best_conn[ent_v]))
        first = _run_starts(ent_v[hit])
        best_to[ent_v[hit[first]]] = ent_p[hit[first]]
    return connect, best_to, best_conn

