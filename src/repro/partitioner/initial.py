"""Initial partitioning of the coarsest hypergraph.

Builds two candidates, refines each with FM to convergence, and keeps
the best by (feasible, cut, balance metric):

* **greedy net growing** — seed a random vertex in part 0 and grow the part
  through incident nets (breadth-first over the net/pin incidence) until the
  part-0 weight reaches its share of the total; vertices left over go to
  part 1.  This biases towards connected, low-cut halves.
* **spectral sweep** (De Wit 1991) — order the vertices by the Fiedler
  vector of the clique-expanded graph and cut that order at the feasible
  prefix with the smallest cut.  Deterministic: it consumes no RNG, and
  the Fiedler vector is made canonical so that neither a repeated
  eigenvalue nor LAPACK's choice of sign or basis changes the order.

Two candidates rather than many restarts: the sweep sees the global
structure that random restarts only sample, so on recursive p = 64
bisection it keeps the geomean volume of eight restarts with a sixth
of their FM passes.

The k-way constructions live here too (:func:`greedy_kway_vertex_parts`
and the best-of-restarts :func:`initial_kway_parts`): the direct k-way
pipeline (:mod:`repro.core.kway`) and the k-way multilevel engine
(:func:`repro.partitioner.multilevel.multilevel_kway`) share them, and
this module sits below both in the import graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.fm import FMResult, fm_refine
from repro.utils.blas import single_thread_blas

__all__ = [
    "initial_partition",
    "greedy_grow",
    "spectral_sweep",
    "greedy_kway_vertex_parts",
    "greedy_kway_grow",
    "initial_kway_parts",
]

#: Nets per chunk are bounded so the clique expansion's pair arrays stay
#: at most this many entries (keeps peak memory flat on large nets).
_MAX_PAIRS = 1 << 16

#: Largest coarsest level that gets the spectral candidate.  The dense
#: eigensolve is cubic: on one core of a 2-core VM it took 2.6 ms at 144
#: vertices (the default coarsening target), 35 ms at 512 and 1.9 s at
#: 2000.  Only coarsening that stalls leaves more vertices; those levels
#: get a second greedy grow.
_SPECTRAL_MAX_NVERTS = 512


def greedy_grow(
    h: Hypergraph,
    max_weights: tuple[int, int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy net-growing construction from a random seed vertex."""
    nverts = h.nverts
    parts = np.ones(nverts, dtype=np.int64)
    if nverts == 0:
        return parts
    total = h.total_weight()
    cap0, cap1 = max_weights
    target0 = total * (cap0 / (cap0 + cap1)) if (cap0 + cap1) else 0.0
    vw = h.vwgt.tolist()
    xnets = h.xnets.tolist()
    vnets = h.vnets.tolist()
    xpins = h.xpins.tolist()
    pins = h.pins.tolist()

    in0 = [False] * nverts
    net_seen = [False] * h.nnets
    w0 = 0
    order = rng.permutation(nverts).tolist()
    cursor = 0
    frontier: deque[int] = deque()
    while w0 < target0:
        if not frontier:
            # Find a fresh (possibly disconnected) seed.
            while cursor < nverts and in0[order[cursor]]:
                cursor += 1
            if cursor == nverts:
                break
            frontier.append(order[cursor])
        v = frontier.popleft()
        if in0[v]:
            continue
        in0[v] = True
        w0 += vw[v]
        parts[v] = 0
        if w0 >= target0:
            break
        for i in range(xnets[v], xnets[v + 1]):
            n = vnets[i]
            if net_seen[n]:
                continue
            net_seen[n] = True
            for k in range(xpins[n], xpins[n + 1]):
                u = pins[k]
                if not in0[u]:
                    frontier.append(u)
    return parts


def _clique_laplacian(h: Hypergraph) -> np.ndarray:
    """Dense Laplacian of the clique expansion of ``h``.

    A net of ``s >= 2`` pins becomes a clique whose edges weigh
    ``cost / (s - 1)``; smaller nets add nothing.  Accumulated from each
    net's pin pairs, grouped by net size and chunked to ``_MAX_PAIRS``
    pairs — never through a dense vertex-by-net incidence matrix.  The
    pair ``(v, v)`` lands on the diagonal of the adjacency sum and
    cancels in ``degree - adjacency``.
    """
    n = h.nverts
    sizes = h.net_sizes()
    nets = np.flatnonzero(sizes >= 2)
    size = sizes[nets]
    start = h.xpins[nets]
    weight = h.ncost[nets] / (size - 1)
    adj = np.zeros(n * n)
    for s in np.unique(size).tolist():
        group = np.flatnonzero(size == s)
        step = max(1, _MAX_PAIRS // (s * s))
        for lo in range(0, group.size, step):
            g = group[lo : lo + step]
            pins = h.pins[start[g, None] + np.arange(s)]
            pairs = pins[:, :, None] * n + pins[:, None, :]
            adj += np.bincount(
                pairs.ravel(),
                weights=np.repeat(weight[g], s * s),
                minlength=n * n,
            )
    adj = adj.reshape(n, n)
    lap = -adj
    lap[np.diag_indices(n)] += adj.sum(axis=1)
    return lap


def _fiedler_order(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Vertex order along the canonical Fiedler vector.

    ``evals``/``evecs`` are a Laplacian's ascending eigendecomposition.
    The Fiedler space is spanned by every eigenvector whose eigenvalue
    lies within a tolerance of λ2 — more than one on symmetric graphs
    (square grids), and all components' indicators on a disconnected
    one.  Projecting a fixed probe onto that space picks one vector
    regardless of the basis and signs LAPACK returned: the centered
    vertex-index ramp, or, if the ramp is orthogonal to the space, the
    centered squared ramp; if both vanish, the order is the vertex ids.
    Values are rounded before a stable sort, so vertices that are equal
    up to round-off (mirror images) sort by id.
    """
    n = evals.size
    tol = 1e-8 * max(1.0, float(evals[-1]))
    space = evecs[:, np.abs(evals - evals[1]) <= tol]
    ramp = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    key = np.zeros(n)
    for probe in (ramp, ramp * ramp - np.mean(ramp * ramp)):
        fiedler = space @ (space.T @ probe)
        scale = float(np.abs(fiedler).max())
        if scale > 1e-6 * float(np.abs(probe).max()):
            key = np.round(fiedler / scale, 9)
            break
    return np.argsort(key, kind="stable")


def spectral_sweep(
    h: Hypergraph,
    max_weights: tuple[int, int],
) -> np.ndarray:
    """Spectral construction: the best prefix of the Fiedler order.

    Sorts the vertices along the Fiedler vector of the clique-expanded
    graph (:func:`_fiedler_order`; the eigensolve runs in a
    single-thread BLAS section) and puts a prefix of that order in part
    0.  Among the ``nverts + 1`` prefixes it takes the feasible one with
    the smallest cut, ties going to the part-0 weight closest to the
    ``cap0 / (cap0 + cap1)`` share of the total; when no prefix is
    feasible, the least overweight one.  A net is cut by the prefix of
    the first ``k`` vertices exactly when its smallest rank is below
    ``k`` and its largest is not, so one cumulative sum over the nets'
    rank ranges gives every prefix's cut.  Consumes no randomness.
    """
    n = h.nverts
    if n < 2:
        order = np.arange(n)
    else:
        with single_thread_blas():
            evals, evecs = np.linalg.eigh(_clique_laplacian(h))
            order = _fiedler_order(evals, evecs)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    # ``reduceat`` needs non-empty segments; a one-pin net has
    # lo == hi and so adds and removes its cost at the same prefix.
    nets = np.flatnonzero(h.net_sizes())
    ranks = rank[h.pins]
    lo = np.minimum.reduceat(ranks, h.xpins[nets])
    hi = np.maximum.reduceat(ranks, h.xpins[nets])
    cost = h.ncost[nets]
    cut = np.cumsum(
        np.bincount(lo + 1, weights=cost, minlength=n + 1)
        - np.bincount(hi + 1, weights=cost, minlength=n + 1)
    )

    w0 = np.concatenate(([0], np.cumsum(h.vwgt[order])))
    total = int(w0[-1])
    cap0, cap1 = max_weights
    over = np.maximum(np.maximum(w0 - cap0, total - w0 - cap1), 0)
    target = total * (cap0 / (cap0 + cap1)) if (cap0 + cap1) else 0.0
    k = int(np.lexsort((np.abs(w0 - target), cut, over))[0])
    parts = np.ones(n, dtype=np.int64)
    parts[order[:k]] = 0
    return parts


def initial_partition(
    h: Hypergraph,
    max_weights: tuple[int, int],
    config: PartitionerConfig,
    rng: np.random.Generator,
) -> FMResult:
    """Best of two FM-refined constructions: greedy growing and the
    spectral sweep (a second greedy grow above ``_SPECTRAL_MAX_NVERTS``
    vertices, where the eigensolve would cost more than it saves).

    Returns the best :class:`~repro.partitioner.fm.FMResult`, ranked by
    feasibility first, then cut, then balance.  Both refinements run on
    the same hypergraph, so they share one reusable kernel pass state.
    """
    if h.nverts == 0:
        return FMResult(
            parts=np.zeros(0, dtype=np.int64),
            cut=0,
            feasible=True,
            passes=0,
            improvement=0,
        )
    best: FMResult | None = None
    best_key: tuple | None = None
    for parts in (
        greedy_grow(h, max_weights, rng),
        spectral_sweep(h, max_weights)
        if h.nverts <= _SPECTRAL_MAX_NVERTS
        else greedy_grow(h, max_weights, rng),
    ):
        result = fm_refine(h, parts, max_weights, config, rng)
        w1 = int(np.dot(result.parts, h.vwgt))
        w0 = h.total_weight() - w1
        balance = max(
            w0 / max_weights[0] if max_weights[0] else float(w0 > 0),
            w1 / max_weights[1] if max_weights[1] else float(w1 > 0),
        )
        key = (not result.feasible, result.cut, balance)
        if best_key is None or key < best_key:
            best, best_key = result, key
    assert best is not None
    return best


def greedy_kway_vertex_parts(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    rng: np.random.Generator,
    strategy: str = "balance",
) -> np.ndarray:
    """Balanced greedy initial k-way assignment of the vertices.

    Heaviest vertex first (ties shuffled by ``rng`` so restarts differ);
    when no part has room the lightest part overall takes the vertex —
    the start is then infeasible and the k-way FM pass drives it
    feasible with forced moves.  Two placement disciplines:

    ``"balance"``
        Each vertex into the lightest part with room (ties to the lowest
        part id) — longest-processing-time, keeping ``max_k w_k`` near
        the eqn-(1) ceiling and the start maximally even.
    ``"pack"``
        First-fit decreasing: each vertex into the lowest-id part with
        room.  Packs early parts tight and leaves the tail parts slack —
        worse spread, but it fits tight instances (nearly uniform heavy
        weights against a snug ceiling) that defeat the even spread.
    """
    if strategy not in ("balance", "pack"):
        raise PartitioningError(
            f"unknown initial-assignment strategy {strategy!r}"
        )
    pack = strategy == "pack"
    k = int(nparts)
    nverts = h.nverts
    perm = rng.permutation(nverts)
    order = perm[np.argsort(-h.vwgt[perm], kind="stable")]
    ceil_l = [int(c) for c in ceilings]
    vw_l = h.vwgt.tolist()
    pw = [0] * k
    out = np.empty(nverts, dtype=np.int64)
    for v in order.tolist():
        wv = vw_l[v]
        best = -1
        best_w = -1
        any_p = 0
        any_w = pw[0]
        for p in range(k):
            w = pw[p]
            if w < any_w:
                any_w = w
                any_p = p
            if w + wv <= ceil_l[p]:
                if pack:
                    best = p
                    break
                if best == -1 or w < best_w:
                    best = p
                    best_w = w
        if best == -1:
            best = any_p
        out[v] = best
        pw[best] += wv
    return out


def greedy_kway_grow(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Net-growing k-way construction — the k-way :func:`greedy_grow`.

    Grows parts ``0 .. nparts-2`` one at a time: seed a random
    unassigned vertex, expand breadth-first through incident nets until
    the part reaches its proportional share of the *remaining* weight,
    then move on; leftovers form the last part.  Topology-aware where
    :func:`greedy_kway_vertex_parts` is weight-only — on structured
    instances (bands, grids) the grown parts are connected, low-cut
    regions, which the weight-only spread cannot produce from any
    tie-break order.  Parts may overshoot their share by at most one
    vertex; feasibility is the caller's problem (ranked restarts + the
    FM rebalancing pass).
    """
    k = int(nparts)
    nverts = h.nverts
    parts = np.full(nverts, k - 1, dtype=np.int64)
    if nverts == 0 or k < 2:
        parts[:] = 0 if k >= 1 else parts
        return parts
    ceil_l = [int(c) for c in ceilings]
    vw = h.vwgt.tolist()
    xnets = h.xnets.tolist()
    vnets = h.vnets.tolist()
    xpins = h.xpins.tolist()
    pins = h.pins.tolist()

    assigned = [False] * nverts
    order = rng.permutation(nverts).tolist()
    cursor = 0
    remaining = float(h.total_weight())
    for p in range(k - 1):
        tail_cap = sum(ceil_l[p:]) or 1
        target = remaining * (ceil_l[p] / tail_cap)
        w = 0
        net_seen = [False] * h.nnets
        frontier: deque[int] = deque()
        while w < target:
            if not frontier:
                # Find a fresh (possibly disconnected) seed.
                while cursor < nverts and assigned[order[cursor]]:
                    cursor += 1
                if cursor == nverts:
                    break
                frontier.append(order[cursor])
            v = frontier.popleft()
            if assigned[v]:
                continue
            assigned[v] = True
            parts[v] = p
            w += vw[v]
            if w >= target:
                break
            for i in range(xnets[v], xnets[v + 1]):
                n = vnets[i]
                if net_seen[n]:
                    continue
                net_seen[n] = True
                for j in range(xpins[n], xpins[n + 1]):
                    u = pins[j]
                    if not assigned[u]:
                        frontier.append(u)
        remaining -= w
    return parts


def initial_kway_parts(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Best-of-restarts greedy k-way construction (no refinement).

    A feasible start provably stays feasible through the FM passes (the
    best-prefix bookkeeping never records an infeasible state once one
    feasible state exists), so the greedy assignment is retried with
    fresh tie-break orders — up to ``config.n_initial`` times — until
    the packing fits, alternating the even-spread and first-fit disciplines (an
    instance of nearly uniform heavy weights against a snug ceiling
    defeats the even spread on *every* order, but first-fit packs it);
    the least-overweight attempt is returned otherwise and the caller's
    FM rebalancing pass gets to repair it.
    """
    best: np.ndarray | None = None
    best_over: int | None = None
    for attempt in range(max(1, config.n_initial)):
        vparts = greedy_kway_vertex_parts(
            h, nparts, ceilings, rng,
            strategy="balance" if attempt % 2 == 0 else "pack",
        )
        pw = np.bincount(vparts, weights=h.vwgt, minlength=nparts)
        over = int((pw - np.asarray(ceilings)).max(initial=0))
        if best_over is None or over < best_over:
            best, best_over = vparts, over
        if over <= 0:
            break
    assert best is not None
    return best
