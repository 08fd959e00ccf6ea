"""Numba JIT backend: the hot loops on flat int64/float64 arrays.

Every kernel is a statement-for-statement transliteration of the
``"python"`` backend — same LIFO bucket discipline, same cursor
tightening, same tie-breaks, same floating-point accumulation order in
matching scores and balance metrics — so for a fixed hypergraph and seed
the two backends return bit-identical partitions and matchings (the RNG
is consumed *outside* the kernels, by the shared orchestration code).
The first call per signature pays JIT compilation; kernels are cached on
disk (``cache=True``) so subsequent processes start warm.  Every kernel
is also compiled ``nogil=True``: the loops touch only flat arrays, so
they release the GIL and the execution layer's thread backend
(:mod:`repro.utils.executor`) genuinely overlaps independent bisections
in one address space.

When numba is not installed the module still imports — ``njit`` degrades
to an identity decorator — so the flat-array kernels stay testable (the
cross-backend equivalence suite runs them interpreted on small inputs).
The registry only ever *selects* this backend when real numba is
present; without it ``"numba"``/``"auto"`` resolve to ``"python"``.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised implicitly by both environments
    from numba import njit

    NUMBA_JIT = True
except ImportError:  # numba absent: keep kernels importable, interpreted
    NUMBA_JIT = False

    def njit(*args, **kwargs):
        """Identity stand-in for ``numba.njit`` when numba is absent."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


from repro.kernels.base import KernelBackend
from repro.kernels.kway import compute_kway_setup, densify
from repro.kernels.python_backend import merge_identical_nets
from repro.kernels.state import FMPassState, compute_fm_setup, fm_stall_limit

__all__ = ["NumbaBackend", "NUMBA_JIT"]


@njit(cache=True, nogil=True)
def _bucket_insert(head, nxt, prv, inside, maxptr, bgain, offset, u, su):
    """File free vertex ``u`` (on side ``su``) at the head of its bucket."""
    b = bgain[u] + offset
    first = head[su, b]
    nxt[u] = first
    prv[u] = -1
    if first != -1:
        prv[first] = u
    head[su, b] = u
    inside[u] = True
    if b > maxptr[su]:
        maxptr[su] = b


@njit(cache=True, nogil=True)
def _bucket_remove(head, nxt, prv, inside, bgain, offset, u, su):
    """Unlink vertex ``u`` from its bucket on side ``su``."""
    if not inside[u]:
        return
    p = prv[u]
    n2 = nxt[u]
    if p != -1:
        nxt[p] = n2
    else:
        head[su, bgain[u] + offset] = n2
    if n2 != -1:
        prv[n2] = p
    inside[u] = False


@njit(cache=True, nogil=True)
def _gain_touch(
    head, nxt, prv, inside, locked, maxptr, bgain, parts, offset, u, delta
):
    """Apply a gain delta to a free vertex, (re-)filing it in buckets."""
    if inside[u]:
        su = parts[u]
        g = bgain[u]
        p = prv[u]
        n2 = nxt[u]
        if p != -1:
            nxt[p] = n2
        else:
            head[su, g + offset] = n2
        if n2 != -1:
            prv[n2] = p
        g += delta
        b = g + offset
        first = head[su, b]
        nxt[u] = first
        prv[u] = -1
        if first != -1:
            prv[first] = u
        head[su, b] = u
        bgain[u] = g
        if b > maxptr[su]:
            maxptr[su] = b
    else:
        bgain[u] += delta
        if not locked[u]:
            _bucket_insert(
                head, nxt, prv, inside, maxptr, bgain, offset, u, parts[u]
            )


@njit(cache=True, nogil=True)
def _best_movable(head, nxt, maxptr, vwgt, s, room):
    """Highest-gain vertex on side ``s`` with ``vwgt[v] <= room``.

    Scans buckets downward from the side's cursor, tightening the cursor
    past empty buckets exactly like the reference implementation.
    """
    b = maxptr[s]
    while b >= 0:
        v = head[s, b]
        if v == -1:
            maxptr[s] = b - 1
            b -= 1
            continue
        while v != -1:
            if vwgt[v] <= room:
                return v
            v = nxt[v]
        b -= 1
    return -1


@njit(cache=True, nogil=True)
def _balance_metric(w0, w1, maxw0, maxw1):
    """max of the per-side weight/ceiling ratios (ceiling 0 -> 0/1 flag)."""
    if maxw0 != 0:
        m0 = w0 / maxw0
    else:
        m0 = 1.0 if w0 > 0 else 0.0
    if maxw1 != 0:
        m1 = w1 / maxw1
    else:
        m1 = 1.0 if w1 > 0 else 0.0
    return max(m0, m1)


@njit(cache=True, nogil=True)
def _fm_move_loop(
    xpins,
    pins,
    xnets,
    vnets,
    ncost,
    vwgt,
    parts,
    pc0,
    pc1,
    bgain,
    insert_mask,
    insert_order,
    head,
    nxt,
    prv,
    inside,
    locked,
    maxptr,
    moved,
    offset,
    maxw0,
    maxw1,
    slack,
    stall_limit,
    w0_init,
    w1_init,
):
    """The sequential FM move loop; mutates ``parts``/``pc0``/``pc1``.

    Returns ``(best_cum, best_feasible, n_moved)`` with the best-prefix
    rollback already applied to ``parts``; ``n_moved`` counts every move
    tried, rolled back or not.
    """
    nverts = parts.shape[0]
    head[:, :] = -1
    inside[:] = False
    locked[:] = False
    maxptr[0] = -1
    maxptr[1] = -1

    for i in range(nverts):
        v = insert_order[i]
        if insert_mask[v]:
            _bucket_insert(
                head, nxt, prv, inside, maxptr, bgain, offset, v, parts[v]
            )

    w0 = w0_init
    w1 = w1_init
    initially_feasible = w0 <= maxw0 and w1 <= maxw1
    best_feasible = initially_feasible
    best_cum = 0
    best_len = 0
    best_metric = _balance_metric(w0, w1, maxw0, maxw1)
    cum = 0
    n_moved = 0
    stall = 0

    while True:
        overweight0 = w0 > maxw0
        overweight1 = w1 > maxw1
        best_v = -1
        best_side = -1
        best_g = 0
        for s in range(2):
            # While infeasible, only moves off the overweight side help.
            if overweight0 and s != 0:
                continue
            if overweight1 and s != 1:
                continue
            if s == 0:
                room = maxw1 + slack - w1
            else:
                room = maxw0 + slack - w0
            v = _best_movable(head, nxt, maxptr, vwgt, s, room)
            if v == -1:
                continue
            g = bgain[v]
            if best_v == -1:
                best_v = v
                best_side = s
                best_g = g
            elif g > best_g:
                best_v = v
                best_side = s
                best_g = g
            elif g == best_g:
                ws = w0 if s == 0 else w1
                wb = w0 if best_side == 0 else w1
                if ws > wb:
                    best_v = v
                    best_side = s
                    best_g = g
        if best_v == -1:
            break

        v = best_v
        s = best_side
        t = 1 - s
        _bucket_remove(head, nxt, prv, inside, bgain, offset, v, s)
        locked[v] = True

        # Classic FM gain-update rules around the move of v from s to t.
        for idx in range(xnets[v], xnets[v + 1]):
            n = vnets[idx]
            c = ncost[n]
            if c == 0:
                continue
            p0 = xpins[n]
            p1 = xpins[n + 1]
            pcT = pc1[n] if t == 1 else pc0[n]
            if pcT == 0:
                for k in range(p0, p1):
                    u = pins[k]
                    if not locked[u]:
                        _gain_touch(
                            head, nxt, prv, inside, locked, maxptr,
                            bgain, parts, offset, u, c,
                        )
            elif pcT == 1:
                for k in range(p0, p1):
                    u = pins[k]
                    if parts[u] == t:
                        if not locked[u]:
                            _gain_touch(
                                head, nxt, prv, inside, locked, maxptr,
                                bgain, parts, offset, u, -c,
                            )
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
                    u = pins[k]
                    if not locked[u]:
                        _gain_touch(
                            head, nxt, prv, inside, locked, maxptr,
                            bgain, parts, offset, u, -c,
                        )
            elif pcF == 1:
                for k in range(p0, p1):
                    u = pins[k]
                    if u != v and parts[u] == s:
                        if not locked[u]:
                            _gain_touch(
                                head, nxt, prv, inside, locked, maxptr,
                                bgain, parts, offset, u, c,
                            )
                        break

        parts[v] = t
        if s == 0:
            w0 -= vwgt[v]
            w1 += vwgt[v]
        else:
            w1 -= vwgt[v]
            w0 += vwgt[v]
        cum += best_g
        moved[n_moved] = v
        n_moved += 1

        feasible_now = w0 <= maxw0 and w1 <= maxw1
        improved = False
        if feasible_now:
            metric = _balance_metric(w0, w1, maxw0, maxw1)
            if (
                not best_feasible
                or cum > best_cum
                or (cum == best_cum and metric < best_metric)
            ):
                best_feasible = True
                best_cum = cum
                best_len = n_moved
                best_metric = metric
                improved = True
        if improved:
            stall = 0
        else:
            stall += 1
            if stall > stall_limit and best_feasible:
                break

    # Roll back to the best prefix.
    for i in range(best_len, n_moved):
        v = moved[i]
        parts[v] = 1 - parts[v]

    if not best_feasible:
        return 0, False, n_moved
    return best_cum, True, n_moved


@njit(cache=True, nogil=True)
def _kway_refile(head, nxt, prv, inside, bgain, maxptr, offset, u, newg):
    """Re-key free vertex ``u`` to gain ``newg`` in the k-way buckets
    (unlink if filed, else lazy-insert; LIFO at the new bucket head)."""
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
    if b > maxptr[0]:
        maxptr[0] = b


@njit(cache=True, nogil=True)
def _kway_move_loop(
    xpins,
    pins,
    xnets,
    vnets,
    ncost,
    vwgt,
    parts,
    occ,
    conn,
    pw,
    ceilings,
    base,
    bto,
    bgain,
    insert_mask,
    insert_order,
    head,
    nxt,
    prv,
    inside,
    locked,
    moved,
    moved_from,
    offset,
    slack,
    stall_limit,
):
    """The sequential k-way FM move loop; mutates ``parts``/``occ``/
    ``conn``/``pw`` and the cached best moves.

    Statement-for-statement transliteration of
    ``PythonBackend.kway_fm_pass`` (same selection order, same touch
    rules, same tie-breaks); returns ``(best_cum, best_feasible,
    n_moved)`` with the best-prefix rollback already applied to
    ``parts``.
    """
    nverts = parts.shape[0]
    k = pw.shape[0]
    head[:] = -1
    inside[:] = False
    locked[:] = False
    maxptr = np.empty(1, dtype=np.int64)
    maxptr[0] = -1

    for i in range(nverts):
        v = insert_order[i]
        if insert_mask[v]:
            b = bgain[v] + offset
            f = head[b]
            nxt[v] = f
            prv[v] = -1
            if f != -1:
                prv[f] = v
            head[b] = v
            inside[v] = True
            if b > maxptr[0]:
                maxptr[0] = b

    # Per-part overweight flags and balance-metric ratios (a zero
    # ceiling divides by 1, see the reference backend), updated for the
    # two parts of each move only.
    over = np.empty(k, dtype=np.bool_)
    rel = np.empty(k, dtype=np.float64)
    n_over = 0
    for p in range(k):
        over[p] = pw[p] > ceilings[p]
        if over[p]:
            n_over += 1
        rel[p] = pw[p] / max(ceilings[p], 1)
    best_feasible = n_over == 0
    best_cum = 0
    best_len = 0
    best_metric = rel.max()
    cum = 0
    n_moved = 0
    stall = 0

    while True:
        # Selection: best-gain-first, first admissible vertex wins.
        best_v = -1
        # Transit slack only while feasible (see the reference backend).
        if n_over == 0:
            sl = slack
        else:
            sl = 0
        while True:  # rescan after any up-refile (see reference)
            raised = False
            b = maxptr[0]
            while b >= 0:
                u = head[b]
                if u == -1:
                    # Tighten only if no up-refile raised the cursor.
                    if maxptr[0] == b:
                        maxptr[0] = b - 1
                    b -= 1
                    continue
                while u != -1:
                    s = parts[u]
                    if n_over > 0 and not over[s]:
                        u = nxt[u]
                        continue
                    wu = vwgt[u]
                    t = bto[u]
                    if pw[t] + wu <= ceilings[t] + sl:
                        best_v = u
                        break
                    # Cached target is full: re-aim at the best target
                    # with room (see the reference backend).
                    bt2 = -1
                    bc2 = np.int64(-1)
                    for t2 in range(k):
                        if t2 == s:
                            continue
                        if pw[t2] + wu > ceilings[t2] + sl:
                            continue
                        cval = conn[u, t2]
                        if cval > bc2:
                            bc2 = cval
                            bt2 = t2
                    if bt2 == -1:
                        u = nxt[u]
                        continue
                    newg = base[u] + bc2
                    bto[u] = bt2
                    if newg == bgain[u]:
                        best_v = u
                        break
                    if newg > bgain[u]:
                        raised = True
                    unext = nxt[u]
                    _kway_refile(
                        head, nxt, prv, inside, bgain, maxptr,
                        offset, u, newg,
                    )
                    u = unext
                if best_v != -1:
                    break
                b -= 1
            if best_v != -1 or not raised:
                break
        if best_v == -1:
            break

        v = best_v
        s = parts[v]
        t = bto[v]
        g = bgain[v]
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
        for idx in range(xnets[v], xnets[v + 1]):
            n = vnets[idx]
            c = ncost[n]
            if c == 0:
                continue
            p0 = xpins[n]
            p1 = xpins[n + 1]
            ot = occ[n, t]
            if ot == 0:
                for kk in range(p0, p1):
                    u = pins[kk]
                    if locked[u]:
                        continue
                    conn[u, t] += c
                    bu = bto[u]
                    if bu == t:
                        _kway_refile(
                            head, nxt, prv, inside, bgain, maxptr,
                            offset, u, bgain[u] + c,
                        )
                    else:
                        nc = conn[u, t]
                        bc = conn[u, bu]
                        if nc > bc:
                            bto[u] = t
                            _kway_refile(
                                head, nxt, prv, inside, bgain, maxptr,
                                offset, u, bgain[u] + nc - bc,
                            )
                        elif nc == bc and t < bu:
                            bto[u] = t
            elif ot == 1:
                for kk in range(p0, p1):
                    u = pins[kk]
                    if parts[u] == t:
                        if not locked[u]:
                            base[u] -= c
                            _kway_refile(
                                head, nxt, prv, inside, bgain, maxptr,
                                offset, u, bgain[u] - c,
                            )
                        break
            occ[n, s] -= 1
            occ[n, t] += 1
            ns = occ[n, s]
            if ns == 0:
                for kk in range(p0, p1):
                    u = pins[kk]
                    if locked[u]:
                        continue
                    conn[u, s] -= c
                    if bto[u] == s:
                        pu = parts[u]
                        bt2 = -1
                        bc2 = np.int64(-1)
                        for t2 in range(k):
                            if t2 == pu:
                                continue
                            cval = conn[u, t2]
                            if cval > bc2:
                                bc2 = cval
                                bt2 = t2
                        bto[u] = bt2
                        newg = base[u] + bc2
                        if newg != bgain[u]:
                            _kway_refile(
                                head, nxt, prv, inside, bgain, maxptr,
                                offset, u, newg,
                            )
            elif ns == 1:
                for kk in range(p0, p1):
                    u = pins[kk]
                    if u != v and parts[u] == s:
                        if not locked[u]:
                            base[u] += c
                            _kway_refile(
                                head, nxt, prv, inside, bgain, maxptr,
                                offset, u, bgain[u] + c,
                            )
                        break

        parts[v] = t
        wv = vwgt[v]
        pw[s] -= wv
        rel[s] = pw[s] / max(ceilings[s], 1)
        if over[s] and pw[s] <= ceilings[s]:
            over[s] = False
            n_over -= 1
        pw[t] += wv
        rel[t] = pw[t] / max(ceilings[t], 1)
        if not over[t] and pw[t] > ceilings[t]:
            over[t] = True
            n_over += 1
        cum += g
        moved[n_moved] = v
        moved_from[n_moved] = s
        n_moved += 1

        improved = False
        if n_over == 0:
            metric = rel.max()
            if (
                not best_feasible
                or cum > best_cum
                or (cum == best_cum and metric < best_metric)
            ):
                best_feasible = True
                best_cum = cum
                best_len = n_moved
                best_metric = metric
                improved = True
        if improved:
            stall = 0
        else:
            stall += 1
            if stall > stall_limit and best_feasible:
                break

    # Roll back to the best prefix (each vertex moved at most once).
    for i in range(best_len, n_moved):
        parts[moved[i]] = moved_from[i]

    if not best_feasible:
        return 0, False, n_moved
    return best_cum, True, n_moved


@njit(cache=True, nogil=True)
def _match_loop(
    xpins,
    pins,
    xnets,
    vnets,
    ncost,
    vwgt,
    sizes,
    order,
    match,
    score,
    touched,
    absorption,
    max_net,
    max_cluster_weight,
    restrict,
    has_restrict,
):
    """Greedy matching sweep; fills ``match`` with partner ids or -1."""
    nverts = order.shape[0]
    for oi in range(nverts):
        v = order[oi]
        if match[v] != -1:
            continue
        wv = vwgt[v]
        ntouched = 0
        for i in range(xnets[v], xnets[v + 1]):
            n = vnets[i]
            sz = sizes[n]
            if sz < 2 or sz > max_net:
                continue
            c = ncost[n]
            if c == 0:
                continue
            if absorption:
                w = c / (sz - 1)
            else:
                w = float(c)
            for k in range(xpins[n], xpins[n + 1]):
                u = pins[k]
                if u == v or match[u] != -1:
                    continue
                if has_restrict and restrict[u] != restrict[v]:
                    continue
                if wv + vwgt[u] > max_cluster_weight:
                    continue
                if score[u] == 0.0:
                    touched[ntouched] = u
                    ntouched += 1
                score[u] += w
        if ntouched > 0:
            best_u = -1
            best_s = 0.0
            for j in range(ntouched):
                u = touched[j]
                s = score[u]
                # Tie-break towards the lighter candidate: keeps coarse
                # weights even, which preserves partitionability.
                if s > best_s or (
                    s == best_s and best_u != -1 and vwgt[u] < vwgt[best_u]
                ):
                    best_u = u
                    best_s = s
                score[u] = 0.0
            if best_u != -1:
                match[v] = best_u
                match[best_u] = v


@njit(cache=True, nogil=True)
def _greedy_owner_loop(ptr, flat, lines, nparts, owners):
    """Greedy owner assignment over the cut lines, in the given order.

    Transliteration of ``greedy_owners_reference``'s scalar loop: each
    line picks the candidate minimizing the tentative phase bottleneck
    ``max(send + lam - 1, recv)``, first candidate winning ties.
    """
    send = np.zeros(nparts, dtype=np.int64)
    recv = np.zeros(nparts, dtype=np.int64)
    for li in range(lines.shape[0]):
        line = lines[li]
        lo = ptr[line]
        hi = ptr[line + 1]
        k = hi - lo
        best_s = -1
        best_cost = np.int64(0)
        for t in range(lo, hi):
            s = flat[t]
            cost = max(send[s] + k - 1, recv[s])
            if best_s == -1 or cost < best_cost:
                best_s = s
                best_cost = cost
        owners[line] = best_s
        send[best_s] += k - 1
        for t in range(lo, hi):
            s = flat[t]
            if s != best_s:
                recv[s] += 1


class NumbaBackend(KernelBackend):
    """JIT backend on flat arrays; bit-identical to the reference."""

    name = "numba"

    def fm_pass(
        self,
        state: FMPassState,
        parts: np.ndarray,
        maxw: tuple[int, int],
        cfg,
        rng: np.random.Generator,
    ) -> tuple[int, bool, int]:
        """One FM pass through the JIT move loop; mutates ``parts``."""
        h = state.h
        nverts = h.nverts
        if nverts == 0:
            return 0, True, 0
        pc0_np, pc1_np, gain_np, insert_mask = compute_fm_setup(
            h, parts, cfg.boundary_only
        )
        insert_order = rng.permutation(nverts)
        scratch = state.flat_arrays()
        pc0 = scratch["pc0"]
        pc1 = scratch["pc1"]
        bgain = scratch["bgain"]
        pc0[:] = pc0_np
        pc1[:] = pc1_np
        bgain[:] = gain_np
        maxptr = np.empty(2, dtype=np.int64)
        w1 = int(np.dot(parts, h.vwgt))
        stall_limit = fm_stall_limit(cfg.fm_early_exit_frac, nverts)
        delta, feasible, tried = _fm_move_loop(
            h.xpins,
            h.pins,
            h.xnets,
            h.vnets,
            h.ncost,
            h.vwgt,
            parts,
            pc0,
            pc1,
            bgain,
            insert_mask,
            insert_order,
            scratch["head"],
            scratch["nxt"],
            scratch["prv"],
            scratch["inside"],
            scratch["locked"],
            maxptr,
            scratch["moved"],
            state.max_gain,
            int(maxw[0]),
            int(maxw[1]),
            state.slack,
            stall_limit,
            state.total_weight - w1,
            w1,
        )
        return int(delta), bool(feasible), int(tried)

    def kway_fm_pass(
        self,
        state: FMPassState,
        parts: np.ndarray,
        nparts: int,
        ceilings: np.ndarray,
        cfg,
        rng: np.random.Generator,
    ) -> tuple[int, bool, int]:
        """One k-way FM pass through the JIT move loop; mutates ``parts``."""
        h = state.h
        nverts = h.nverts
        k = int(nparts)
        if nverts == 0:
            return 0, True, 0
        occ_np, pw_np, base_np, conn_np, bto_np, bgain_np, mask_np = (
            densify(
                compute_kway_setup(h, parts, k, ceilings, cfg.boundary_only)
            )
        )
        insert_order = rng.permutation(nverts)
        # The setup's arrays belong to this pass (pair tables expanded to
        # dense ones by densify) and the move loop mutates them directly;
        # only the nparts-independent bucket scratch is cached on the
        # state.
        scratch = state.kway_arrays()
        ceil_arr = np.ascontiguousarray(ceilings, dtype=np.int64)
        stall_limit = fm_stall_limit(cfg.fm_early_exit_frac, nverts)
        delta, feasible, tried = _kway_move_loop(
            h.xpins,
            h.pins,
            h.xnets,
            h.vnets,
            h.ncost,
            h.vwgt,
            parts,
            occ_np,
            conn_np,
            pw_np,
            ceil_arr,
            base_np,
            bto_np,
            bgain_np,
            mask_np,
            insert_order,
            scratch["head"],
            scratch["nxt"],
            scratch["prv"],
            scratch["inside"],
            scratch["locked"],
            scratch["moved"],
            scratch["moved_from"],
            state.max_gain,
            state.slack,
            stall_limit,
        )
        return int(delta), bool(feasible), int(tried)

    def match_vertices(
        self,
        state: FMPassState,
        order: np.ndarray,
        absorption: bool,
        max_net: int,
        max_cluster_weight: int,
        restrict_parts: np.ndarray | None,
    ) -> np.ndarray:
        """Greedy matching sweep through the JIT kernel."""
        h = state.h
        scratch = state.flat_arrays()
        match = np.full(h.nverts, -1, dtype=np.int64)
        score = scratch["score"]
        score[:] = 0.0
        if restrict_parts is None:
            restrict = np.empty(0, dtype=np.int64)
            has_restrict = False
        else:
            restrict = np.ascontiguousarray(restrict_parts, dtype=np.int64)
            has_restrict = True
        _match_loop(
            h.xpins,
            h.pins,
            h.xnets,
            h.vnets,
            h.ncost,
            h.vwgt,
            h.net_sizes(),
            order,
            match,
            score,
            scratch["touched"],
            absorption,
            max_net,
            max_cluster_weight,
            restrict,
            has_restrict,
        )
        return match

    def merge_identical(
        self, xpins: np.ndarray, pins: np.ndarray, ncost: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Identical-net merging is already vectorized; shared with
        the reference backend."""
        return merge_identical_nets(xpins, pins, ncost)

    def greedy_owners(
        self,
        ptr: np.ndarray,
        flat: np.ndarray,
        extent: int,
        nparts: int,
        fallback_balance: np.ndarray,
    ) -> np.ndarray:
        """Greedy owner assignment through the JIT loop.

        The vectorized prelude (singleton lines, processing order) is
        shared with the reference; only the sequential cut-line loop is
        compiled.
        """
        from repro.kernels.spmv import _owner_finalize, _owner_setup

        owners, multi = _owner_setup(ptr, flat, extent)
        if multi.size:
            _greedy_owner_loop(
                np.ascontiguousarray(ptr),
                np.ascontiguousarray(flat),
                multi,
                nparts,
                owners,
            )
        return _owner_finalize(owners, fallback_balance, nparts)
