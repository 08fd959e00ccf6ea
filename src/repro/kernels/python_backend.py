"""The python kernels: the one implementation of the hot loops.

This is the seed implementation of the three hot loops, relocated from
``partitioner/fm.py`` and ``partitioner/coarsen.py`` and tightened for
interpreter throughput while keeping results bit-identical:

* the move loop runs on plain Python lists (single-element list reads are
  2–3x faster than NumPy scalar indexing) that are cached on the
  :class:`~repro.kernels.state.FMPassState` instead of rebuilt per call;
* the per-move ``best_movable(side, movable)`` *closures* of the seed are
  gone — bucket scans use the flat ``best_movable(side, room, vw)``
  comparison form, and the gain-update path writes the bucket linked
  lists directly instead of going through three method calls per touched
  vertex;
* identical-net merging is vectorized (group nets by size, then detect
  duplicate rows with one ``np.unique`` per distinct size) instead of
  hashing every net in a Python loop.

Every tie-break — LIFO bucket order, side preference by weight, the
balance-metric prefix tie-break, the bucket-cursor tightening quirk — is
preserved exactly; the golden tests pin this.  The clustering sweep at
``max_members=2`` is the seed's greedy pair matching (checked against
the frozen seed sweep).
"""

from __future__ import annotations

from operator import truediv

import numpy as np

from repro.kernels.base import KernelBackend
from repro.kernels.kway import compute_kway_setup
from repro.kernels.state import (
    FMPassState,
    compute_fm_setup,
    fm_stall_limit,
    seed_buckets,
)
from repro.utils.deadline import Expired

__all__ = ["MATCH_CHUNK", "PythonBackend", "merge_identical_nets"]

#: Visits between two deadline checks of a deadline-bound clustering
#: sweep.  A level-0 visit scores every pin of its nets, 4–40 µs on the
#: perfbench matrices, so a chunk stays under about 2.5 ms.
MATCH_CHUNK = 64


def _kw_refile(head, nxt, prv, inside, bgain, offset, u, newg, maxptr):
    """Re-key free vertex ``u`` to gain ``newg`` in the k-way buckets.

    Unlinks ``u`` if it is filed (lazily inserting it otherwise — the
    ``boundary_only`` discipline), LIFO-inserts it at the new bucket
    head, and returns the updated bucket cursor.  Shared by every gain
    touch of the k-way move loop; the 2-way loop inlines this logic for
    speed, but the k-way branches are too many to duplicate it.
    """
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


def _flat_table(table) -> list:
    """A k-way setup table as the move loop's flat ``row * k + col`` list.

    A dense table is one ``tolist``; a
    :class:`~repro.kernels.kway.PairTable` fills a list of zeros (one
    pointer fill, no per-entry conversion) at its entries only.
    """
    if isinstance(table, np.ndarray):
        return table.ravel().tolist()
    nrows, k = table.shape
    flat = [0] * (nrows * k)
    for key, val in zip(table.keys.tolist(), table.vals.tolist()):
        flat[key] = val
    return flat


def _top_bucket(head: np.ndarray) -> int:
    """Index of the highest non-empty bucket in ``head``, or -1."""
    filled = np.flatnonzero(head != -1)
    return int(filled[-1]) if filled.size else -1


class PythonBackend(KernelBackend):
    """The kernels: list-based scalar loops, vectorized merging."""

    name = "python"

    # ------------------------------------------------------------------ #
    # FM move loop.
    # ------------------------------------------------------------------ #
    def fm_pass(
        self,
        state: FMPassState,
        parts: np.ndarray,
        maxw: tuple[int, int],
        cfg,
        rng: np.random.Generator,
    ) -> tuple[int, bool, int]:
        """One FM pass on Python lists; mutates ``parts`` in place.

        The pass body is deliberately closure-free: nested functions
        would turn every hot local (bucket heads, links, gains, parts)
        into a cell variable, taxing each access in the move loop, so
        the gain-update and balance-metric bodies are written out inline
        at their call sites instead.
        """
        h = state.h
        nverts = h.nverts
        if nverts == 0:
            return 0, True, 0
        mirrors = state.list_mirrors()
        xpins_l: list = mirrors["xpins"]
        pins_l: list = mirrors["pins"]
        xnets_l: list = mirrors["xnets"]
        vnets_l: list = mirrors["vnets"]
        cost_l: list = mirrors["cost"]
        vw_l: list = mirrors["vwgt"]

        # ------------------------------------------------------------- #
        # Vectorized setup, then list mirrors.
        # ------------------------------------------------------------- #
        pc0_np, pc1_np, gain_np, insert_mask = compute_fm_setup(
            h, parts, cfg.boundary_only
        )
        nbuckets = state.nbuckets
        offset = state.max_gain
        bgain = gain_np.tolist()
        insert_order = rng.permutation(nverts)

        parts_l = parts.tolist()
        pc0 = pc0_np.tolist()
        pc1 = pc1_np.tolist()
        locked = [False] * nverts
        w1 = int(np.dot(parts, h.vwgt))
        w0 = state.total_weight - w1
        maxw0, maxw1 = maxw
        # In-pass transit slack: a swap (v out, u in) passes through a
        # state where one side briefly exceeds its ceiling.  Moves may
        # overshoot by at most one maximum vertex weight; only *feasible*
        # prefixes are ever recorded as the pass result.
        slack = state.slack

        # ------------------------------------------------------------- #
        # Bucket seeding, vectorized: both sides' buckets form one key
        # range, side * nbuckets + bucket.
        # ------------------------------------------------------------- #
        seeds = insert_order[insert_mask[insert_order]]
        head_np, nxt_np, prv_np, inside_np = seed_buckets(
            seeds, parts[seeds] * nbuckets + gain_np[seeds] + offset,
            2 * nbuckets, nverts,
        )
        heads0 = head_np[:nbuckets].tolist()
        heads1 = head_np[nbuckets:].tolist()
        nxt = nxt_np.tolist()
        prv = prv_np.tolist()
        inside = inside_np.tolist()
        maxptr = [_top_bucket(head_np[:nbuckets]),
                  _top_bucket(head_np[nbuckets:])]

        # ------------------------------------------------------------- #
        # Best-prefix tracking.
        # ------------------------------------------------------------- #
        best_feasible = w0 <= maxw0 and w1 <= maxw1
        best_cum = 0
        best_len = 0
        best_metric = max(
            w0 / maxw0 if maxw0 else float(w0 > 0),
            w1 / maxw1 if maxw1 else float(w1 > 0),
        )
        cum = 0
        moved: list[int] = []
        moved_append = moved.append
        stall = 0
        stall_limit = fm_stall_limit(cfg.fm_early_exit_frac, nverts)

        # ------------------------------------------------------------- #
        # Move loop.
        # ------------------------------------------------------------- #
        while True:
            best_v = -1
            best_side = -1
            best_g = 0
            # While infeasible, only moves off the overweight side help;
            # the scans below are `GainBuckets.best_movable` written out
            # (same downward walk, same cursor tightening).
            if w1 <= maxw1:  # may move off side 0
                room = maxw1 + slack - w1
                v = -1
                b = maxptr[0]
                while b >= 0:
                    u = heads0[b]
                    if u == -1:
                        maxptr[0] = b - 1  # bucket empty: tighten cursor
                        b -= 1
                        continue
                    while u != -1:
                        if vw_l[u] <= room:
                            v = u
                            break
                        u = nxt[u]
                    if v != -1:
                        break
                    b -= 1
                if v != -1:
                    best_v = v
                    best_side = 0
                    best_g = bgain[v]
            if w0 <= maxw0:  # may move off side 1
                room = maxw0 + slack - w0
                v = -1
                b = maxptr[1]
                while b >= 0:
                    u = heads1[b]
                    if u == -1:
                        maxptr[1] = b - 1
                        b -= 1
                        continue
                    while u != -1:
                        if vw_l[u] <= room:
                            v = u
                            break
                        u = nxt[u]
                    if v != -1:
                        break
                    b -= 1
                if v != -1:
                    g = bgain[v]
                    if (
                        best_v == -1
                        or g > best_g
                        or (g == best_g and w1 > w0)
                    ):
                        best_v = v
                        best_side = 1
                        best_g = g
            if best_v == -1:
                break

            v, s = best_v, best_side
            t = 1 - s
            # Unlink the chosen vertex from its bucket and lock it.
            p = prv[v]
            n2 = nxt[v]
            if p != -1:
                nxt[p] = n2
            else:
                (heads0 if s == 0 else heads1)[bgain[v] + offset] = n2
            if n2 != -1:
                prv[n2] = p
            inside[v] = False
            locked[v] = True

            # Classic FM gain-update rules around the move of v from s to
            # t.  Each ``touch`` block applies a gain delta ``gd`` to a
            # free vertex ``u`` and (re-)files it in the buckets — the
            # former ``gain_touch`` helper written out inline (its locals
            # would otherwise be closure cells taxing the whole loop).
            for n in vnets_l[xnets_l[v]:xnets_l[v + 1]]:
                c = cost_l[n]
                if c == 0:
                    continue
                p0, p1 = xpins_l[n], xpins_l[n + 1]
                pcT = pc1[n] if t == 1 else pc0[n]
                if pcT == 0:
                    for u in pins_l[p0:p1]:
                        if locked[u]:
                            continue
                        if inside[u]:
                            su = parts_l[u]
                            hd = heads0 if su == 0 else heads1
                            g = bgain[u]
                            up = prv[u]
                            un = nxt[u]
                            if up != -1:
                                nxt[up] = un
                            else:
                                hd[g + offset] = un
                            if un != -1:
                                prv[un] = up
                            g += c
                        else:
                            g = bgain[u] + c
                            su = parts_l[u]
                            hd = heads0 if su == 0 else heads1
                            inside[u] = True
                        b = g + offset
                        uf = hd[b]
                        nxt[u] = uf
                        prv[u] = -1
                        if uf != -1:
                            prv[uf] = u
                        hd[b] = u
                        bgain[u] = g
                        if b > maxptr[su]:
                            maxptr[su] = b
                elif pcT == 1:
                    for u in pins_l[p0:p1]:
                        if parts_l[u] == t:
                            if not locked[u]:
                                if inside[u]:
                                    hd = heads0 if t == 0 else heads1
                                    g = bgain[u]
                                    up = prv[u]
                                    un = nxt[u]
                                    if up != -1:
                                        nxt[up] = un
                                    else:
                                        hd[g + offset] = un
                                    if un != -1:
                                        prv[un] = up
                                    g -= c
                                else:
                                    g = bgain[u] - c
                                    hd = heads0 if t == 0 else heads1
                                    inside[u] = True
                                b = g + offset
                                uf = hd[b]
                                nxt[u] = uf
                                prv[u] = -1
                                if uf != -1:
                                    prv[uf] = u
                                hd[b] = u
                                bgain[u] = g
                                if b > maxptr[t]:
                                    maxptr[t] = b
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
                    for u in pins_l[p0:p1]:
                        if locked[u]:
                            continue
                        if inside[u]:
                            su = parts_l[u]
                            hd = heads0 if su == 0 else heads1
                            g = bgain[u]
                            up = prv[u]
                            un = nxt[u]
                            if up != -1:
                                nxt[up] = un
                            else:
                                hd[g + offset] = un
                            if un != -1:
                                prv[un] = up
                            g -= c
                        else:
                            g = bgain[u] - c
                            su = parts_l[u]
                            hd = heads0 if su == 0 else heads1
                            inside[u] = True
                        b = g + offset
                        uf = hd[b]
                        nxt[u] = uf
                        prv[u] = -1
                        if uf != -1:
                            prv[uf] = u
                        hd[b] = u
                        bgain[u] = g
                        if b > maxptr[su]:
                            maxptr[su] = b
                elif pcF == 1:
                    for u in pins_l[p0:p1]:
                        if u != v and parts_l[u] == s:
                            if not locked[u]:
                                if inside[u]:
                                    hd = heads0 if s == 0 else heads1
                                    g = bgain[u]
                                    up = prv[u]
                                    un = nxt[u]
                                    if up != -1:
                                        nxt[up] = un
                                    else:
                                        hd[g + offset] = un
                                    if un != -1:
                                        prv[un] = up
                                    g += c
                                else:
                                    g = bgain[u] + c
                                    hd = heads0 if s == 0 else heads1
                                    inside[u] = True
                                b = g + offset
                                uf = hd[b]
                                nxt[u] = uf
                                prv[u] = -1
                                if uf != -1:
                                    prv[uf] = u
                                hd[b] = u
                                bgain[u] = g
                                if b > maxptr[s]:
                                    maxptr[s] = b
                            break

            parts_l[v] = t
            wv = vw_l[v]
            if s == 0:
                w0 -= wv
                w1 += wv
            else:
                w1 -= wv
                w0 += wv
            cum += best_g
            moved_append(v)

            feasible_now = w0 <= maxw0 and w1 <= maxw1
            improved = False
            if feasible_now:
                m0 = w0 / maxw0 if maxw0 else float(w0 > 0)
                m1 = w1 / maxw1 if maxw1 else float(w1 > 0)
                metric = m0 if m0 > m1 else m1
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

        # ------------------------------------------------------------- #
        # Roll back to the best prefix.
        # ------------------------------------------------------------- #
        for v in moved[best_len:]:
            parts_l[v] = 1 - parts_l[v]
        parts[:] = parts_l

        if not best_feasible:
            # No feasible prefix was found: everything is rolled back
            # (best_len == 0), the cut is unchanged, still infeasible.
            return 0, False, len(moved)
        # best_cum is the exact cut reduction of the applied prefix.
        return best_cum, True, len(moved)

    # ------------------------------------------------------------------ #
    # k-way FM move loop (connectivity-(λ−1) metric).
    # ------------------------------------------------------------------ #
    def kway_fm_pass(
        self,
        state: FMPassState,
        parts: np.ndarray,
        nparts: int,
        ceilings: np.ndarray,
        cfg,
        rng: np.random.Generator,
    ) -> tuple[int, bool, int]:
        """One k-way FM pass on flat Python tables; mutates ``parts``.

        The occupancy and connectivity tables are flat lists indexed
        ``n * k + p`` / ``v * k + p``, converted from dense setup tables
        or filled from pair tables (see :func:`_flat_table` and
        :mod:`repro.kernels.kway`).  Every cached best move is
        kept *exact* after each move, so the single bucket array is
        always keyed by true gains.  Selection walks buckets downward and
        takes the first vertex whose cached target has room (and, while
        some part is overweight, whose own part is overweight — the
        rebalancing discipline of the 2-way pass).  Per-part overweight
        flags and weight ratios are updated for the two parts of each
        move only.
        """
        h = state.h
        nverts = h.nverts
        k = int(nparts)
        if nverts == 0:
            return 0, True, 0
        setup = compute_kway_setup(h, parts, k, ceilings, cfg.boundary_only)
        insert_order = rng.permutation(nverts)

        mirrors = state.list_mirrors()
        xpins_l: list = mirrors["xpins"]
        pins_l: list = mirrors["pins"]
        xnets_l: list = mirrors["xnets"]
        vnets_l: list = mirrors["vnets"]
        cost_l: list = mirrors["cost"]
        vw_l: list = mirrors["vwgt"]

        occ = _flat_table(setup.occ)
        conn = _flat_table(setup.connect)
        pw = setup.pw.tolist()
        ceil_l = [int(c) for c in ceilings]
        over = [w > c for w, c in zip(pw, ceil_l)]
        n_over = sum(over)
        # Balance-metric ratios.  A zero-ceiling part divides by 1: the
        # metric is only read while every part fits (n_over == 0), and then
        # such a part is empty and scores 0.0, as the frozen reference
        # pass's zero-ceiling branch does.
        div_l = [c or 1 for c in ceil_l]
        rel = list(map(truediv, pw, div_l))
        base = setup.base.tolist()
        bto = setup.best_to.tolist()
        bgain = setup.best_gain.tolist()
        parts_l = parts.tolist()
        offset = state.max_gain
        slack = state.slack

        seeds = insert_order[setup.insert_mask[insert_order]]
        head_np, nxt_np, prv_np, inside_np = seed_buckets(
            seeds, setup.best_gain[seeds] + offset, state.nbuckets, nverts
        )
        head = head_np.tolist()
        nxt = nxt_np.tolist()
        prv = prv_np.tolist()
        inside = inside_np.tolist()
        maxptr = _top_bucket(head_np)
        locked = [False] * nverts

        metric = max(rel)
        best_feasible = n_over == 0
        best_cum = 0
        best_len = 0
        best_metric = metric
        cum = 0
        moved: list[int] = []
        moved_from: list[int] = []
        stall = 0
        stall_limit = fm_stall_limit(cfg.fm_early_exit_frac, nverts)

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
                    while True:
                        if n_over:
                            # Rebalancing: only overweight parts move.
                            while u != -1 and not over[parts_l[u]]:
                                u = nxt[u]
                        if u == -1:
                            break
                        s = parts_l[u]
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
                        # target part fills up.  Parts without room
                        # (and u's own) are masked to -1 below every
                        # connect value; list.index takes the lowest id
                        # among ties.
                        iu = u * k
                        row = [
                            c if w + wu <= cl + sl else -1
                            for c, w, cl in zip(conn[iu:iu + k], pw, ceil_l)
                        ]
                        row[s] = -1
                        bc2 = max(row)
                        if bc2 < 0:
                            u = nxt[u]  # no part has room for u at all
                            continue
                        bt2 = row.index(bc2)
                        newg = base[u] + bc2
                        bto[u] = bt2
                        if newg == bgain[u]:
                            best_v = u
                            break
                        if newg > bgain[u]:
                            raised = True
                        unext = nxt[u]
                        maxptr = _kw_refile(
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
                            maxptr = _kw_refile(
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
                                maxptr = _kw_refile(
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
                                maxptr = _kw_refile(
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
                            # Recompute the argmax over t != parts[u]:
                            # the own part is masked to -1 (connect >= 0
                            # and k >= 2, so it never wins) and
                            # list.index takes the lowest id among ties.
                            row = conn[iu:iu + k]
                            row[parts_l[u]] = -1
                            bc2 = max(row)
                            bt2 = row.index(bc2)
                            bto[u] = bt2
                            newg = base[u] + bc2
                            if newg != bgain[u]:
                                maxptr = _kw_refile(
                                    head, nxt, prv, inside, bgain, offset,
                                    u, newg, maxptr,
                                )
                elif ns == 1:
                    for u in pins_l[p0:p1]:
                        if u != v and parts_l[u] == s:
                            if not locked[u]:
                                base[u] += c
                                maxptr = _kw_refile(
                                    head, nxt, prv, inside, bgain, offset,
                                    u, bgain[u] + c, maxptr,
                                )
                            break

            parts_l[v] = t
            wv = vw_l[v]
            w = pw[s] - wv
            pw[s] = w
            rel[s] = w / div_l[s]
            if over[s] and w <= ceil_l[s]:
                over[s] = False
                n_over -= 1
            w = pw[t] + wv
            pw[t] = w
            rel[t] = w / div_l[t]
            if not over[t] and w > ceil_l[t]:
                over[t] = True
                n_over += 1
            cum += g
            moved.append(v)
            moved_from.append(s)

            improved = False
            if n_over == 0:
                metric = max(rel)
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
            return 0, False, len(moved)
        return best_cum, True, len(moved)

    # ------------------------------------------------------------------ #
    # Agglomerative clustering sweep.
    # ------------------------------------------------------------------ #
    def cluster_vertices(
        self,
        state: FMPassState,
        order: np.ndarray,
        absorption: bool,
        max_net: int,
        max_cluster_weight: int,
        max_members: int | None,
        min_clusters: int,
        restrict_parts: np.ndarray | None,
        deadline=None,
    ) -> np.ndarray:
        """Greedy clustering sweep on the cached list mirrors.

        A visited vertex that no cluster holds yet scores the clusters of
        the pins on its nets and joins the best one (see
        :meth:`~repro.kernels.base.KernelBackend.cluster_vertices`).
        Each cluster is keyed by its first vertex, its *root*; the
        returned map holds every vertex's root.  A cluster that has
        reached ``max_members`` is closed by giving it a weight no cap
        admits, so at ``max_members=2`` every candidate is a lone vertex
        and the sweep (with ``min_clusters=0``) is the greedy pair
        matching, visit for visit.  The sweep ends early once only
        ``min_clusters`` clusters are left.

        With a ``deadline`` the visit order runs in chunks of
        :data:`MATCH_CHUNK` visits, checked between chunks; once it has
        expired the sweep raises :class:`~repro.utils.deadline.Expired`
        with the visits made so far.  Without one the order is one
        chunk and nothing is checked.
        """
        mirrors = state.list_mirrors()
        xpins_l: list = mirrors["xpins"]
        pins_l: list = mirrors["pins"]
        xnets_l: list = mirrors["xnets"]
        vnets_l: list = mirrors["vnets"]
        cost_l: list = mirrors["cost"]
        vw_l: list = mirrors["vwgt"]
        sizes_l: list = mirrors["sizes"]
        nverts = state.h.nverts
        if nverts <= min_clusters:
            return np.arange(nverts, dtype=np.int64)

        root = list(range(nverts))
        # Cluster weight and member count, keyed by root.
        cw = list(vw_l)
        members = [1] * nverts
        closed = max_cluster_weight + 1
        joins_left = nverts - min_clusters
        clustered = [False] * nverts
        parts_l = (
            restrict_parts.tolist() if restrict_parts is not None else None
        )
        score = [0.0] * nverts
        visit = order.tolist()
        if deadline is None:
            chunks = [visit]
        else:
            chunks = [
                visit[i:i + MATCH_CHUNK]
                for i in range(0, len(visit), MATCH_CHUNK)
            ]
        for i, chunk in enumerate(chunks):
            if i and deadline.expired():
                raise Expired(i * MATCH_CHUNK)
            for v in chunk:
                if clustered[v]:
                    continue
                # The weight cap rewritten as a bound on the candidate
                # cluster's weight; ``v`` closes its own cluster while
                # it scores, so it never scores itself.  The scoring
                # loops below are specialized on whether coarsening is
                # part-restricted (the checks are side-effect free, so
                # hoisting the restrict test out of the unrestricted
                # sweep cannot change any score).  Every member of a
                # cluster shares its part, so a pin's own part stands
                # for its cluster's.
                wv = vw_l[v]
                cap = max_cluster_weight - wv
                cw[v] = closed
                touched: list[int] = []
                tappend = touched.append
                if parts_l is None:
                    for n in vnets_l[xnets_l[v]:xnets_l[v + 1]]:
                        sz = sizes_l[n]
                        if sz < 2 or sz > max_net:
                            continue
                        c = cost_l[n]
                        if c == 0:
                            continue
                        w = c / (sz - 1) if absorption else float(c)
                        for u in pins_l[xpins_l[n]:xpins_l[n + 1]]:
                            r = root[u]
                            if cw[r] > cap:
                                continue
                            sr = score[r]
                            if sr == 0.0:
                                tappend(r)
                            score[r] = sr + w
                else:
                    pv = parts_l[v]
                    for n in vnets_l[xnets_l[v]:xnets_l[v + 1]]:
                        sz = sizes_l[n]
                        if sz < 2 or sz > max_net:
                            continue
                        c = cost_l[n]
                        if c == 0:
                            continue
                        w = c / (sz - 1) if absorption else float(c)
                        for u in pins_l[xpins_l[n]:xpins_l[n + 1]]:
                            if parts_l[u] != pv:
                                continue
                            r = root[u]
                            if cw[r] > cap:
                                continue
                            sr = score[r]
                            if sr == 0.0:
                                tappend(r)
                            score[r] = sr + w
                cw[v] = wv
                if touched:
                    best = -1
                    best_s = 0.0
                    for r in touched:
                        s = score[r]
                        # Tie-break towards the lighter cluster: keeps
                        # coarse weights even, which preserves
                        # partitionability.
                        if s > best_s or (
                            s == best_s and best != -1 and cw[r] < cw[best]
                        ):
                            best, best_s = r, s
                        score[r] = 0.0
                    if best != -1:
                        root[v] = best
                        clustered[v] = True
                        clustered[best] = True
                        count = members[best] + 1
                        members[best] = count
                        if max_members is not None and count >= max_members:
                            cw[best] = closed
                        else:
                            cw[best] += wv
                        joins_left -= 1
                        if not joins_left:
                            return np.asarray(root, dtype=np.int64)
        return np.asarray(root, dtype=np.int64)


#: Size classes below this many nets, or wider than this many pins, use
#: the per-net hash path: a lexsort there costs more than it saves.
_MERGE_LEXSORT_MIN_NETS = 16
_MERGE_LEXSORT_MAX_SIZE = 64


def merge_identical_nets(
    xpins: np.ndarray, pins: np.ndarray, ncost: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge nets with identical pin sets, summing their costs.

    Pins must be sorted within each net (``contract`` guarantees this), so
    nets are equal iff their pin slices are element-wise identical.  Nets
    of different sizes can never be equal, so nets are grouped by size;
    within a size class, duplicate rows of the ``(k, size)`` pin matrix
    are found with one column-wise ``np.lexsort`` plus an adjacent-row
    comparison — no per-net Python loop on the dominant classes.  (Tiny
    or very wide classes fall back to per-net hashing, where a lexsort
    would cost more than it saves.)  The representative of a duplicate
    group is its lowest net id, and surviving nets keep ascending-id
    order, exactly like the seed's hash-based implementation.
    """
    nnets = xpins.size - 1
    if nnets <= 1:
        return xpins, pins, ncost
    sizes = np.diff(xpins)
    ids = np.arange(nnets, dtype=np.int64)
    rep_of = ids.copy()
    order = np.argsort(sizes, kind="stable")
    sorted_sizes = sizes[order]
    run_starts = np.flatnonzero(
        np.r_[True, sorted_sizes[1:] != sorted_sizes[:-1]]
    )
    run_ends = np.r_[run_starts[1:], sorted_sizes.size]
    for a, b in zip(run_starts.tolist(), run_ends.tolist()):
        if b - a < 2:
            continue  # a size class of one net has nothing to merge
        s = int(sorted_sizes[a])
        nets = order[a:b]
        if s == 0:
            rep_of[nets] = nets.min()
            continue
        if nets.size < _MERGE_LEXSORT_MIN_NETS or s > _MERGE_LEXSORT_MAX_SIZE:
            groups: dict[bytes, int] = {}
            for n in np.sort(nets).tolist():
                key = pins[xpins[n] : xpins[n] + s].tobytes()
                rep_of[n] = groups.setdefault(key, n)
            continue
        rows = pins[xpins[nets][:, None] + np.arange(s, dtype=np.int64)]
        # Row-lexicographic sort, net id as the final tie-break, so the
        # first row of every duplicate group carries the lowest net id.
        keys = (nets,) + tuple(rows[:, j] for j in range(s - 1, -1, -1))
        perm = np.lexsort(keys)
        sr = rows[perm]
        new_group = np.empty(nets.size, dtype=bool)
        new_group[0] = True
        np.any(sr[1:] != sr[:-1], axis=1, out=new_group[1:])
        if new_group.all():
            continue  # all distinct within this size class
        nets_sorted = nets[perm]
        group_first = nets_sorted[new_group]
        rep_of[nets_sorted] = group_first[np.cumsum(new_group) - 1]
    keep = rep_of == ids
    reps = np.flatnonzero(keep)
    if reps.size == nnets:
        return xpins, pins, ncost
    merged_cost = np.zeros(nnets, dtype=np.int64)
    np.add.at(merged_cost, rep_of, ncost)
    new_pins = pins[np.repeat(keep, sizes)]
    new_xpins = np.zeros(reps.size + 1, dtype=np.int64)
    np.cumsum(sizes[reps], out=new_xpins[1:])
    return new_xpins, new_pins, merged_cost[reps]
