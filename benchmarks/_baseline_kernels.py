"""Frozen *seed* implementations of the kernel hot loops.

These are verbatim copies (modulo plumbing) of the pre-``repro.kernels``
code: the closure-based FM pass, the convert-per-call matching sweep, the
per-net ``tobytes()`` identical-net merge, and the independent
``np.repeat`` net-id expansions.  The k-way FM pass is frozen as it was
before its sparse setup: dense ``np.add.at`` scatters (an ``npins x k``
block for ``connect``) and interpreted scans over all k parts.  The
communication volume is frozen as the per-line ``lambda`` formula it
was before it counted pairs.  They exist
solely as the **before** side of ``bench_regress.py`` so the perf
trajectory in ``BENCH_kernels.json`` measures real, reproducible deltas
— do not use them from library code, and do not "fix" them: their
slowness is the point.  ``pair_clusters`` and ``lowest_labels`` are not
frozen code: they let the frozen pair sweep's partner arrays be compared
with the clustering kernel's cluster maps.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "BaselineGainBuckets",
    "baseline_hot_lists",
    "baseline_fm_pass",
    "baseline_match_vertices",
    "pair_clusters",
    "lowest_labels",
    "baseline_merge_identical",
    "baseline_derived_structures",
    "baseline_kway_setup",
    "baseline_kway_fm_pass",
    "baseline_communication_volume",
]


class BaselineGainBuckets:
    """Seed gain buckets: ``best_movable`` takes a predicate closure."""

    __slots__ = ("nverts", "offset", "nbuckets", "head", "nxt", "prv",
                 "gain", "inside", "maxptr")

    def __init__(self, nverts: int, max_gain: int) -> None:
        self.nverts = nverts
        self.offset = max_gain
        self.nbuckets = 2 * max_gain + 1
        self.head = [[-1] * self.nbuckets, [-1] * self.nbuckets]
        self.nxt = [-1] * nverts
        self.prv = [-1] * nverts
        self.gain = [0] * nverts
        self.inside = [False] * nverts
        self.maxptr = [-1, -1]

    def insert(self, v: int, side: int, gain: int) -> None:
        b = gain + self.offset
        head = self.head[side]
        first = head[b]
        self.nxt[v] = first
        self.prv[v] = -1
        if first != -1:
            self.prv[first] = v
        head[b] = v
        self.gain[v] = gain
        self.inside[v] = True
        if b > self.maxptr[side]:
            self.maxptr[side] = b

    def remove(self, v: int, side: int) -> None:
        if not self.inside[v]:
            return
        p, n = self.prv[v], self.nxt[v]
        if p != -1:
            self.nxt[p] = n
        else:
            self.head[side][self.gain[v] + self.offset] = n
        if n != -1:
            self.prv[n] = p
        self.inside[v] = False

    def adjust(self, v: int, side: int, delta: int) -> None:
        if not self.inside[v]:
            return
        g = self.gain[v] + delta
        self.remove(v, side)
        self.insert(v, side, g)

    def best_movable(self, side: int, movable) -> int:
        head = self.head[side]
        b = self.maxptr[side]
        while b >= 0:
            v = head[b]
            if v == -1:
                self.maxptr[side] = b - 1
                b -= 1
                continue
            while v != -1:
                if movable(v):
                    return v
                v = self.nxt[v]
            b -= 1
        return -1


def baseline_hot_lists(h: Hypergraph) -> dict:
    """Seed ``_hot_lists``: list mirrors + per-site ``np.repeat``."""
    return {
        "xpins": h.xpins.tolist(),
        "pins": h.pins.tolist(),
        "xnets": h.xnets.tolist(),
        "vnets": h.vnets.tolist(),
        "cost": h.ncost.tolist(),
        "vwgt": h.vwgt.tolist(),
        "net_ids": np.repeat(
            np.arange(h.nnets, dtype=np.int64), h.net_sizes()
        ),
    }


def baseline_fm_pass(
    h: Hypergraph,
    lists: dict,
    parts: np.ndarray,
    maxw: tuple[int, int],
    cfg,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """The seed ``_fm_pass``: closure-based scans, method-call updates."""
    nverts = h.nverts
    if nverts == 0:
        return 0, True
    xpins_l: list = lists["xpins"]
    pins_l: list = lists["pins"]
    xnets_l: list = lists["xnets"]
    vnets_l: list = lists["vnets"]
    cost_l: list = lists["cost"]
    vw_l: list = lists["vwgt"]
    net_ids: np.ndarray = lists["net_ids"]

    pin_parts = parts[h.pins]
    pc1_np = np.zeros(h.nnets, dtype=np.int64)
    np.add.at(pc1_np, net_ids, pin_parts)
    sizes = h.net_sizes()
    pc0_np = sizes - pc1_np
    own = np.where(pin_parts == 0, pc0_np[net_ids], pc1_np[net_ids])
    other = np.where(pin_parts == 0, pc1_np[net_ids], pc0_np[net_ids])
    contrib = h.ncost[net_ids] * (
        (own == 1).astype(np.int64) - (other == 0).astype(np.int64)
    )
    gain_np = np.zeros(nverts, dtype=np.int64)
    np.add.at(gain_np, h.pins, contrib)

    max_gain = h.max_vertex_net_cost()
    buckets = BaselineGainBuckets(nverts, max_gain)
    bgain = buckets.gain
    for v, g in enumerate(gain_np.tolist()):
        bgain[v] = g

    insert_order = rng.permutation(nverts)
    if cfg.boundary_only:
        cut_net = (pc0_np > 0) & (pc1_np > 0)
        boundary = np.zeros(nverts, dtype=bool)
        boundary_flags = cut_net[net_ids]
        np.logical_or.at(boundary, h.pins, boundary_flags)
        insert_mask = boundary
    else:
        insert_mask = np.ones(nverts, dtype=bool)

    parts_l = parts.tolist()
    pc0 = pc0_np.tolist()
    pc1 = pc1_np.tolist()
    locked = [False] * nverts
    w1 = int(np.dot(parts, h.vwgt))
    weights = [h.total_weight() - w1, w1]
    maxw0, maxw1 = maxw
    slack = int(h.vwgt.max(initial=0))

    for v in insert_order.tolist():
        if insert_mask[v]:
            buckets.insert(v, parts_l[v], bgain[v])

    def balance_metric() -> float:
        return max(
            weights[0] / maxw0 if maxw0 else float(weights[0] > 0),
            weights[1] / maxw1 if maxw1 else float(weights[1] > 0),
        )

    initially_feasible = weights[0] <= maxw0 and weights[1] <= maxw1
    best_feasible = initially_feasible
    best_cum = 0
    best_len = 0
    best_metric = balance_metric()
    cum = 0
    moved: list[int] = []
    stall = 0
    stall_limit = max(32, int(cfg.fm_early_exit_frac * nverts))

    inside = buckets.inside

    def gain_touch(u: int, delta: int) -> None:
        if inside[u]:
            buckets.adjust(u, parts_l[u], delta)
        else:
            bgain[u] += delta
            if not locked[u]:
                buckets.insert(u, parts_l[u], bgain[u])

    while True:
        overweight0 = weights[0] > maxw0
        overweight1 = weights[1] > maxw1
        best_v = -1
        best_side = -1
        best_g = None
        for s in (0, 1):
            if overweight0 and s != 0:
                continue
            if overweight1 and s != 1:
                continue
            t = 1 - s
            cap = maxw1 if t == 1 else maxw0
            room = cap + slack - weights[t]
            v = buckets.best_movable(s, lambda u: vw_l[u] <= room)
            if v == -1:
                continue
            g = bgain[v]
            if (
                best_v == -1
                or g > best_g
                or (g == best_g and weights[s] > weights[best_side])
            ):
                best_v, best_side, best_g = v, s, g
        if best_v == -1:
            break

        v, s = best_v, best_side
        t = 1 - s
        buckets.remove(v, s)
        locked[v] = True

        for idx in range(xnets_l[v], xnets_l[v + 1]):
            n = vnets_l[idx]
            c = cost_l[n]
            if c == 0:
                continue
            p0, p1 = xpins_l[n], xpins_l[n + 1]
            pcT = pc1[n] if t == 1 else pc0[n]
            if pcT == 0:
                for k in range(p0, p1):
                    u = pins_l[k]
                    if not locked[u]:
                        gain_touch(u, c)
            elif pcT == 1:
                for k in range(p0, p1):
                    u = pins_l[k]
                    if parts_l[u] == t:
                        if not locked[u]:
                            gain_touch(u, -c)
                        break
            if s == 0:
                pc0[n] -= 1
                pc1[n] += 1
                pcF = pc0[n]
            else:
                pc1[n] -= 1
                pc0[n] += 1
                pcF = pc1[n]
            if pcF == 0:
                for k in range(p0, p1):
                    u = pins_l[k]
                    if not locked[u]:
                        gain_touch(u, -c)
            elif pcF == 1:
                for k in range(p0, p1):
                    u = pins_l[k]
                    if u != v and parts_l[u] == s:
                        if not locked[u]:
                            gain_touch(u, c)
                        break

        parts_l[v] = t
        weights[s] -= vw_l[v]
        weights[t] += vw_l[v]
        cum += best_g
        moved.append(v)

        feasible_now = weights[0] <= maxw0 and weights[1] <= maxw1
        improved = False
        if feasible_now:
            metric = balance_metric()
            if (
                not best_feasible
                or cum > best_cum
                or (cum == best_cum and metric < best_metric)
            ):
                best_feasible = True
                best_cum = cum
                best_len = len(moved)
                best_metric = metric
                improved = True
        if improved:
            stall = 0
        else:
            stall += 1
            if stall > stall_limit and best_feasible:
                break

    for v in moved[best_len:]:
        parts_l[v] = 1 - parts_l[v]
    parts[:] = parts_l

    if not best_feasible:
        return 0, False
    return best_cum, True


def baseline_match_vertices(
    h: Hypergraph,
    config,
    rng: np.random.Generator,
    max_cluster_weight: int,
    restrict_parts: np.ndarray | None = None,
) -> np.ndarray:
    """Seed ``match_vertices``: converts every array per call."""
    nverts = h.nverts
    match = [-1] * nverts
    if nverts == 0 or h.npins == 0:
        return np.full(nverts, -1, dtype=np.int64)
    parts_l = (
        restrict_parts.tolist() if restrict_parts is not None else None
    )

    xpins_l = h.xpins.tolist()
    pins_l = h.pins.tolist()
    xnets_l = h.xnets.tolist()
    vnets_l = h.vnets.tolist()
    cost_l = h.ncost.tolist()
    vw_l = h.vwgt.tolist()
    sizes_l = h.net_sizes().tolist()
    absorption = config.matching == "absorption"
    max_net = config.max_net_size_matching

    score = [0.0] * nverts
    for v in rng.permutation(nverts).tolist():
        if match[v] != -1:
            continue
        wv = vw_l[v]
        touched: list[int] = []
        for i in range(xnets_l[v], xnets_l[v + 1]):
            n = vnets_l[i]
            sz = sizes_l[n]
            if sz < 2 or sz > max_net:
                continue
            c = cost_l[n]
            if c == 0:
                continue
            w = c / (sz - 1) if absorption else float(c)
            for k in range(xpins_l[n], xpins_l[n + 1]):
                u = pins_l[k]
                if u == v or match[u] != -1:
                    continue
                if parts_l is not None and parts_l[u] != parts_l[v]:
                    continue
                if wv + vw_l[u] > max_cluster_weight:
                    continue
                if score[u] == 0.0:
                    touched.append(u)
                score[u] += w
        if touched:
            best_u = -1
            best_s = 0.0
            for u in touched:
                s = score[u]
                if s > best_s or (
                    s == best_s and best_u != -1 and vw_l[u] < vw_l[best_u]
                ):
                    best_u, best_s = u, s
                score[u] = 0.0
            if best_u != -1:
                match[v] = best_u
                match[best_u] = v
    return np.asarray(match, dtype=np.int64)


def pair_clusters(match: np.ndarray) -> np.ndarray:
    """The cluster map of a partner array (``match[v]`` is ``v``'s
    partner, ``-1`` for none): each pair is labelled by its lower vertex
    and every unmatched vertex by itself.  It lets the frozen pair sweeps
    stand in for the live clustering kernel at the pair limit."""
    match = np.asarray(match, dtype=np.int64)
    ids = np.arange(match.size, dtype=np.int64)
    return np.where(match < 0, ids, np.minimum(ids, match))


def lowest_labels(cluster: np.ndarray) -> np.ndarray:
    """A cluster map relabelled by each cluster's lowest vertex, so two
    maps of the same clustering compare equal element for element."""
    _, first, inverse = np.unique(
        np.asarray(cluster, dtype=np.int64),
        return_index=True, return_inverse=True,
    )
    return first[inverse.reshape(-1)]


def baseline_merge_identical(
    xpins: np.ndarray, pins: np.ndarray, ncost: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed ``_merge_identical``: per-net ``tobytes()`` hashing loop."""
    nnets = xpins.size - 1
    groups: dict[bytes, int] = {}
    rep_of = np.empty(nnets, dtype=np.int64)
    starts = xpins[:-1].tolist()
    ends = xpins[1:].tolist()
    for n in range(nnets):
        key = pins[starts[n] : ends[n]].tobytes()
        rep = groups.setdefault(key, n)
        rep_of[n] = rep
    reps = np.unique(rep_of)
    if reps.size == nnets:
        return xpins, pins, ncost
    merged_cost = np.zeros(nnets, dtype=np.int64)
    np.add.at(merged_cost, rep_of, ncost)
    sizes = np.diff(xpins)[reps]
    new_xpins = np.zeros(reps.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=new_xpins[1:])
    chunks = [pins[xpins[r] : xpins[r + 1]] for r in reps.tolist()]
    new_pins = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    return new_xpins, new_pins, merged_cost[reps]


def baseline_derived_structures(h: Hypergraph) -> int:
    """Seed-style derived-structure build: independent ``np.repeat`` per
    consumer (transpose, gain bound, FM net-id mirror), as the four call
    sites did before ``Hypergraph.net_ids()`` existed."""
    # Transpose (seed _build_transpose).
    deg = np.bincount(h.pins, minlength=h.nverts)
    xnets = np.zeros(h.nverts + 1, dtype=np.int64)
    np.cumsum(deg, out=xnets[1:])
    net_ids = np.repeat(np.arange(h.nnets, dtype=np.int64), h.net_sizes())
    order = np.argsort(h.pins, kind="stable")
    vnets = net_ids[order]
    # Gain bound (seed max_vertex_net_cost).
    costs = np.repeat(h.ncost, h.net_sizes())
    tot = np.zeros(h.nverts, dtype=np.int64)
    np.add.at(tot, h.pins, costs)
    # FM net-id mirror (seed _hot_lists).
    net_ids2 = np.repeat(np.arange(h.nnets, dtype=np.int64), h.net_sizes())
    return int(vnets.size + tot.max(initial=0) + net_ids2.size)


def baseline_kway_setup(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    boundary_only: bool,
) -> tuple[np.ndarray, ...]:
    """Pre-sparse ``compute_kway_setup``: dense ``np.add.at`` scatters,
    including an ``npins x k`` block for ``connect``."""
    k = int(nparts)
    net_ids = h.net_ids()
    pin_parts = parts[h.pins]
    occ = np.zeros((h.nnets, k), dtype=np.int64)
    np.add.at(occ, (net_ids, pin_parts), 1)
    pw = np.bincount(parts, weights=h.vwgt, minlength=k).astype(np.int64)

    costs = h.ncost[net_ids]
    sole = occ[net_ids, pin_parts] == 1
    gain_leave = np.zeros(h.nverts, dtype=np.int64)
    np.add.at(gain_leave, h.pins, costs * sole)
    cv = np.zeros(h.nverts, dtype=np.int64)
    np.add.at(cv, h.pins, costs)
    base = gain_leave - cv

    present = occ > 0
    connect = np.zeros((h.nverts, k), dtype=np.int64)
    np.add.at(connect, h.pins, costs[:, None] * present[net_ids])

    # Best admissible-ignoring move per vertex: argmax over t != part[v]
    # of connect[v, t]; np.argmax resolves ties to the lowest part id,
    # the discipline the move loops preserve incrementally.
    vids = np.arange(h.nverts, dtype=np.int64)
    masked = connect.copy()
    if h.nverts:
        masked[vids, parts] = -1
    best_to = (
        masked.argmax(axis=1).astype(np.int64)
        if h.nverts
        else np.empty(0, dtype=np.int64)
    )
    # connect >= 0 and k >= 2, so the best non-own entry is >= 0.
    best_conn = masked[vids, best_to] if h.nverts else best_to
    best_gain = base + np.maximum(best_conn, 0)

    if boundary_only and bool(np.all(pw <= np.asarray(ceilings))):
        cut_net = present.sum(axis=1) >= 2
        boundary = np.zeros(h.nverts, dtype=bool)
        np.logical_or.at(boundary, h.pins, cut_net[net_ids])
        insert_mask = boundary
    else:
        insert_mask = np.ones(h.nverts, dtype=bool)
    return occ, pw, base, connect, best_to, best_gain, insert_mask


def _baseline_kw_refile(head, nxt, prv, inside, bgain, offset, u, newg, maxptr):
    """Seed k-way bucket re-key (unlink or lazy insert, LIFO re-file)."""
    if inside[u]:
        p = prv[u]
        n2 = nxt[u]
        if p != -1:
            nxt[p] = n2
        else:
            head[bgain[u] + offset] = n2
        if n2 != -1:
            prv[n2] = p
    else:
        inside[u] = True
    bgain[u] = newg
    b = newg + offset
    f = head[b]
    nxt[u] = f
    prv[u] = -1
    if f != -1:
        prv[f] = u
    head[b] = u
    if b > maxptr:
        return b
    return maxptr


def baseline_kway_fm_pass(
    h: Hypergraph,
    lists: dict,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    cfg,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """Pre-sparse k-way FM pass: dense setup, interpreted k-scans.

    The argmax recompute, the full-target re-aim and the balance metric
    each loop over all k parts in Python.
    """
    nverts = h.nverts
    k = int(nparts)
    if nverts == 0:
        return 0, True
    occ_np, pw_np, base_np, conn_np, bto_np, bgain_np, mask_np = (
        baseline_kway_setup(h, parts, k, ceilings, cfg.boundary_only)
    )
    insert_order = rng.permutation(nverts)

    xpins_l: list = lists["xpins"]
    pins_l: list = lists["pins"]
    xnets_l: list = lists["xnets"]
    vnets_l: list = lists["vnets"]
    cost_l: list = lists["cost"]
    vw_l: list = lists["vwgt"]

    occ = occ_np.ravel().tolist()
    conn = conn_np.ravel().tolist()
    pw = pw_np.tolist()
    ceil_l = [int(c) for c in ceilings]
    base = base_np.tolist()
    bto = bto_np.tolist()
    bgain = bgain_np.tolist()
    mask_l = mask_np.tolist()
    parts_l = parts.tolist()
    offset = h.max_vertex_net_cost()
    slack = int(h.vwgt.max(initial=0))

    head = [-1] * (2 * offset + 1)
    nxt = [-1] * nverts
    prv = [-1] * nverts
    inside = [False] * nverts
    locked = [False] * nverts
    maxptr = -1
    for v in insert_order.tolist():
        if mask_l[v]:
            b = bgain[v] + offset
            f = head[b]
            nxt[v] = f
            prv[v] = -1
            if f != -1:
                prv[f] = v
            head[b] = v
            inside[v] = True
            if b > maxptr:
                maxptr = b

    n_over = 0
    for p in range(k):
        if pw[p] > ceil_l[p]:
            n_over += 1
    metric = 0.0
    for p in range(k):
        cl = ceil_l[p]
        m = pw[p] / cl if cl else (1.0 if pw[p] > 0 else 0.0)
        if m > metric:
            metric = m
    best_feasible = n_over == 0
    best_cum = 0
    best_len = 0
    best_metric = metric
    cum = 0
    moved: list[int] = []
    moved_from: list[int] = []
    stall = 0
    stall_limit = max(32, int(cfg.fm_early_exit_frac * nverts))

    while True:
        # --------------------------------------------------------- #
        # Selection: best-gain-first, first admissible vertex wins.
        # --------------------------------------------------------- #
        best_v = -1
        # Transit slack only while feasible: a rebalancing pass that
        # overshoots a target past its ceiling would strand the
        # excess on locked vertices (each vertex moves once), so
        # overweight states fill targets strictly.
        sl = slack if n_over == 0 else 0
        while True:  # rescan after any up-refile (see below)
            raised = False
            b = maxptr
            while b >= 0:
                u = head[b]
                if u == -1:
                    # Bucket empty: tighten the cursor — but only if
                    # no up-refile raised it above this scan, else
                    # the refiled vertex would become unreachable.
                    if maxptr == b:
                        maxptr = b - 1
                    b -= 1
                    continue
                while u != -1:
                    s = parts_l[u]
                    if n_over > 0 and pw[s] <= ceil_l[s]:
                        u = nxt[u]  # rebalancing: only overweight
                        continue
                    wu = vw_l[u]
                    t = bto[u]
                    if pw[t] + wu <= ceil_l[t] + sl:
                        best_v = u
                        break
                    # Cached target is full: re-aim at the best
                    # target *with room* (ties lowest id).  Equal
                    # gain selects immediately; a changed gain
                    # refiles the vertex at its exact new key and
                    # the scan carries on — a down-refile is
                    # re-encountered below, an up-refile (possible
                    # once earlier down-refiles broke the argmax
                    # invariant and room has since shifted) is
                    # picked up by the rescan.  Without the re-aim,
                    # a rebalancing pass stalls the moment one
                    # target part fills up.
                    iu = u * k
                    bt2 = -1
                    bc2 = -1
                    for t2 in range(k):
                        if t2 == s:
                            continue
                        if pw[t2] + wu > ceil_l[t2] + sl:
                            continue
                        cval = conn[iu + t2]
                        if cval > bc2:
                            bc2 = cval
                            bt2 = t2
                    if bt2 == -1:
                        u = nxt[u]  # no part has room for u at all
                        continue
                    newg = base[u] + bc2
                    bto[u] = bt2
                    if newg == bgain[u]:
                        best_v = u
                        break
                    if newg > bgain[u]:
                        raised = True
                    unext = nxt[u]
                    maxptr = _baseline_kw_refile(
                        head, nxt, prv, inside, bgain, offset,
                        u, newg, maxptr,
                    )
                    u = unext
                if best_v != -1:
                    break
                b -= 1
            # Rescan only when an up-refile may sit above the
            # descent; each rescan follows a strict key increase, so
            # this terminates.
            if best_v != -1 or not raised:
                break
        if best_v == -1:
            break

        v = best_v
        s = parts_l[v]
        t = bto[v]
        g = bgain[v]
        # Unlink the chosen vertex and lock it.
        p_ = prv[v]
        n2 = nxt[v]
        if p_ != -1:
            nxt[p_] = n2
        else:
            head[g + offset] = n2
        if n2 != -1:
            prv[n2] = p_
        inside[v] = False
        locked[v] = True

        # k-way gain-update rules around the move of v from s to t.
        # Occupancy transitions drive four touch kinds: a net gaining
        # part t (connectivity of every free pin towards t rises), a
        # net whose sole t-pin loses its leave-gain, a net losing
        # part s (connectivity towards s drops; cached bests pointing
        # at s are recomputed), and a net left with a sole s-pin
        # (which gains the leave bonus).
        for n in vnets_l[xnets_l[v]:xnets_l[v + 1]]:
            c = cost_l[n]
            if c == 0:
                continue
            p0, p1 = xpins_l[n], xpins_l[n + 1]
            nk = n * k
            ot = occ[nk + t]
            if ot == 0:
                for u in pins_l[p0:p1]:
                    if locked[u]:
                        continue
                    iu = u * k
                    conn[iu + t] += c
                    bu = bto[u]
                    if bu == t:
                        maxptr = _baseline_kw_refile(
                            head, nxt, prv, inside, bgain, offset,
                            u, bgain[u] + c, maxptr,
                        )
                    else:
                        # No pin of this net sits in t (ot == 0), so
                        # t != parts[u] holds for every free pin.
                        nc = conn[iu + t]
                        bc = conn[iu + bu]
                        if nc > bc:
                            bto[u] = t
                            maxptr = _baseline_kw_refile(
                                head, nxt, prv, inside, bgain, offset,
                                u, bgain[u] + nc - bc, maxptr,
                            )
                        elif nc == bc and t < bu:
                            bto[u] = t  # lowest-id tie discipline
            elif ot == 1:
                for u in pins_l[p0:p1]:
                    if parts_l[u] == t:
                        if not locked[u]:
                            base[u] -= c
                            maxptr = _baseline_kw_refile(
                                head, nxt, prv, inside, bgain, offset,
                                u, bgain[u] - c, maxptr,
                            )
                        break
            occ[nk + s] -= 1
            occ[nk + t] += 1
            ns = occ[nk + s]
            if ns == 0:
                for u in pins_l[p0:p1]:
                    if locked[u]:
                        continue
                    iu = u * k
                    conn[iu + s] -= c
                    if bto[u] == s:
                        # Free pins cannot sit in s (ns == 0), so the
                        # recomputed argmax skips parts[u] correctly.
                        pu = parts_l[u]
                        bt2 = -1
                        bc2 = -1
                        for t2 in range(k):
                            if t2 == pu:
                                continue
                            cval = conn[iu + t2]
                            if cval > bc2:
                                bc2 = cval
                                bt2 = t2
                        bto[u] = bt2
                        newg = base[u] + bc2
                        if newg != bgain[u]:
                            maxptr = _baseline_kw_refile(
                                head, nxt, prv, inside, bgain, offset,
                                u, newg, maxptr,
                            )
            elif ns == 1:
                for u in pins_l[p0:p1]:
                    if u != v and parts_l[u] == s:
                        if not locked[u]:
                            base[u] += c
                            maxptr = _baseline_kw_refile(
                                head, nxt, prv, inside, bgain, offset,
                                u, bgain[u] + c, maxptr,
                            )
                        break

        parts_l[v] = t
        wv = vw_l[v]
        if pw[s] > ceil_l[s] and pw[s] - wv <= ceil_l[s]:
            n_over -= 1
        pw[s] -= wv
        if pw[t] <= ceil_l[t] and pw[t] + wv > ceil_l[t]:
            n_over += 1
        pw[t] += wv
        cum += g
        moved.append(v)
        moved_from.append(s)

        improved = False
        if n_over == 0:
            metric = 0.0
            for p in range(k):
                cl = ceil_l[p]
                m = pw[p] / cl if cl else (1.0 if pw[p] > 0 else 0.0)
                if m > metric:
                    metric = m
            if (
                not best_feasible
                or cum > best_cum
                or (cum == best_cum and metric < best_metric)
            ):
                best_feasible = True
                best_cum = cum
                best_len = len(moved)
                best_metric = metric
                improved = True
        if improved:
            stall = 0
        else:
            stall += 1
            if stall > stall_limit and best_feasible:
                break

    # Roll back to the best prefix (each vertex moved at most once).
    for i in range(best_len, len(moved)):
        parts_l[moved[i]] = moved_from[i]
    parts[:] = parts_l

    if not best_feasible:
        return 0, False
    return best_cum, True


def _baseline_axis_lambdas(
    index: np.ndarray, parts: np.ndarray, extent: int, nparts: int
) -> np.ndarray:
    """Per-line ``lambda`` through a 2-D boolean scatter table, or the
    lexsort + adjacent-pair dedup past the same size rule as the kernel."""
    cells = extent * nparts
    if cells <= 1 << 16 or (cells <= 32 * index.size and cells <= 1 << 26):
        seen = np.zeros((extent, nparts), dtype=bool)
        seen[index, parts] = True
        return seen.sum(axis=1, dtype=np.int64)
    order = np.lexsort((parts, index))
    si, sp = index[order], parts[order]
    keep = np.empty(si.size, dtype=bool)
    keep[0] = True
    keep[1:] = (si[1:] != si[:-1]) | (sp[1:] != sp[:-1])
    return np.bincount(si[keep], minlength=extent).astype(np.int64)


def baseline_communication_volume(matrix, parts: np.ndarray) -> int:
    """Eqn (3) as the sum of ``max(lambda - 1, 0)`` over per-line arrays."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.size == 0:
        return 0
    m, n = matrix.shape
    nparts = int(parts.max()) + 1
    row_l = _baseline_axis_lambdas(matrix.rows, parts, m, nparts)
    col_l = _baseline_axis_lambdas(matrix.cols, parts, n, nparts)
    return int(
        np.maximum(row_l - 1, 0).sum() + np.maximum(col_l - 1, 0).sum()
    )
