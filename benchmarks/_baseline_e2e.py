"""Frozen pre-PR pipeline pieces for the end-to-end benchmark.

``bench_e2e`` measures the *whole* pipeline — split, medium-grain build,
multilevel partitioning, iterative refinement, volume, vector
distribution, verified SpMV simulation — against the state of the
repository before the sweep-engine PR.  The pieces that PR changed are
frozen here verbatim:

* :class:`BaselineBackend` — the FM move loop and greedy-matching sweep
  exactly as PR 1 left them (closure-based gain updates, per-vertex
  bucket seeding loop, index-based pin scans).  Identical-net merging is
  the live code (unchanged by this PR).
* :func:`baseline_distribute_vectors` — lexsort-based incidence lists
  plus the all-lines Python greedy owner loop.
* :func:`baseline_simulate_spmv` — the dict-based fan-out / partial-sum
  / fan-in simulation, including its lexsort-based expected-word and
  phase-load checks.
* :func:`baseline_partition` — the serial recursive bisection exactly as
  the parallel-recursion PR found it: one RNG stream consumed in
  depth-first traversal order (which is why it could not be
  parallelized), depth-first ``_recurse``, frozen kernels underneath.
  Its volumes are *not* expected to match the live ``partition`` — the
  seed discipline intentionally changed — so the p-way benchmark records
  both sides' volumes instead of asserting bit-identity against it.
* :class:`PickledMatrixExecutor` / :func:`baseline_pickled_pool` — the
  pickled-payload process pool the shared-memory store replaced: the
  parent selects each task's submatrix and pickles all of it (rows, cols
  and values) into the worker.  The execution-layer stage measures the
  store against it.

The orchestration around these (split, model build, coarsening,
contraction, recursion) is the *live* code — it was not changed by this
PR.  The two lambda-counting helpers that the orchestration calls
internally (``repro.core.volume`` for eqn (3) inside iterative
refinement, ``repro.hypergraph.metrics`` for the connectivity cut inside
the multilevel engine) *were* changed, so :func:`baseline_lambda_kernels`
swaps the pre-PR lexsort versions in for the duration of a baseline
timing — otherwise the baseline would silently benefit from this PR's
own speedups.

The FM pass is bit-identical to the live kernel by the kernel
contract.  The matching sweep builds pairs only, so it equals the live
clustering kernel at the pair limit (``max_members=2``) alone: the
baseline pipeline's volumes differ from the live ones and ``bench_e2e``
records both.
"""

from __future__ import annotations

import contextlib

import numpy as np

from benchmarks._baseline_kernels import pair_clusters
import repro.core.recursive as _recursive_mod
import repro.core.volume as _volume_mod
import repro.hypergraph.metrics as _metrics_mod
from repro.kernels.base import KernelBackend
from repro.kernels.gains import GainBuckets
from repro.kernels.state import compute_fm_setup
from repro.spmv.vector_dist import VectorDistribution
from repro.utils import faults
from repro.utils.executor import MatrixExecutor


def _lexsort_axis_lambdas(index, parts, extent, nparts=None):
    """Pre-PR connectivity counting: lexsort + adjacent-pair dedup."""
    if index.size == 0:
        return np.zeros(extent, dtype=np.int64)
    order = np.lexsort((parts, index))
    si, sp = index[order], parts[order]
    new_pair = np.empty(si.size, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (si[1:] != si[:-1]) | (sp[1:] != sp[:-1])
    return np.bincount(si[new_pair], minlength=extent).astype(np.int64)


@contextlib.contextmanager
def baseline_lambda_kernels():
    """Temporarily restore the pre-PR lambda kernels inside the live
    orchestration (volume checks in refinement, connectivity cuts in the
    multilevel engine) so baseline timings measure the true pre-PR
    pipeline."""
    saved = (_volume_mod.axis_lambdas, _metrics_mod.axis_lambdas)
    _volume_mod.axis_lambdas = _lexsort_axis_lambdas
    _metrics_mod.axis_lambdas = _lexsort_axis_lambdas
    try:
        yield
    finally:
        _volume_mod.axis_lambdas, _metrics_mod.axis_lambdas = saved


class BaselineBackend(KernelBackend):
    """The PR-1 pure-Python kernels, frozen for benchmarking."""

    name = "baseline-e2e"

    # ------------------------------------------------------------------ #
    # FM move loop (pre-PR: closure-based gain updates, scalar seeding).
    # ------------------------------------------------------------------ #
    def fm_pass(self, state, parts, maxw, cfg, rng):
        # Returns the live contract's ``(delta, feasible, tried)``; the
        # pass itself (uncapped stall window included) is as frozen.
        h = state.h
        nverts = h.nverts
        if nverts == 0:
            return 0, True, 0
        mirrors = state.list_mirrors()
        xpins_l = mirrors["xpins"]
        pins_l = mirrors["pins"]
        xnets_l = mirrors["xnets"]
        vnets_l = mirrors["vnets"]
        cost_l = mirrors["cost"]
        vw_l = mirrors["vwgt"]

        pc0_np, pc1_np, gain_np, insert_mask = compute_fm_setup(
            h, parts, cfg.boundary_only
        )
        buckets = GainBuckets(nverts, state.max_gain)
        bgain = gain_np.tolist()
        buckets.gain = bgain
        insert_order = rng.permutation(nverts)

        parts_l = parts.tolist()
        pc0 = pc0_np.tolist()
        pc1 = pc1_np.tolist()
        locked = [False] * nverts
        w1 = int(np.dot(parts, h.vwgt))
        weights = [state.total_weight - w1, w1]
        maxw0, maxw1 = maxw
        slack = state.slack

        heads = buckets.head
        heads0 = heads[0]
        heads1 = heads[1]
        nxt = buckets.nxt
        prv = buckets.prv
        inside = buckets.inside
        maxptr = buckets.maxptr
        offset = buckets.offset

        mask_l = insert_mask.tolist()
        for v in insert_order.tolist():
            if mask_l[v]:
                sv = parts_l[v]
                b = bgain[v] + offset
                hd = heads0 if sv == 0 else heads1
                first = hd[b]
                nxt[v] = first
                prv[v] = -1
                if first != -1:
                    prv[first] = v
                hd[b] = v
                inside[v] = True
                if b > maxptr[sv]:
                    maxptr[sv] = b

        w0, w1 = weights

        def balance_metric() -> float:
            return max(
                w0 / maxw0 if maxw0 else float(w0 > 0),
                w1 / maxw1 if maxw1 else float(w1 > 0),
            )

        best_feasible = w0 <= maxw0 and w1 <= maxw1
        best_cum = 0
        best_len = 0
        best_metric = balance_metric()
        cum = 0
        moved = []
        moved_append = moved.append
        stall = 0
        stall_limit = max(32, int(cfg.fm_early_exit_frac * nverts))

        def gain_touch(u: int, delta: int) -> None:
            if inside[u]:
                su = parts_l[u]
                hd = heads0 if su == 0 else heads1
                g = bgain[u]
                p = prv[u]
                n2 = nxt[u]
                if p != -1:
                    nxt[p] = n2
                else:
                    hd[g + offset] = n2
                if n2 != -1:
                    prv[n2] = p
                g += delta
                b = g + offset
                first = hd[b]
                nxt[u] = first
                prv[u] = -1
                if first != -1:
                    prv[first] = u
                hd[b] = u
                bgain[u] = g
                if b > maxptr[su]:
                    maxptr[su] = b
            else:
                g = bgain[u] + delta
                bgain[u] = g
                if not locked[u]:
                    su = parts_l[u]
                    b = g + offset
                    hd = heads0 if su == 0 else heads1
                    first = hd[b]
                    nxt[u] = first
                    prv[u] = -1
                    if first != -1:
                        prv[first] = u
                    hd[b] = u
                    inside[u] = True
                    if b > maxptr[su]:
                        maxptr[su] = b

        while True:
            best_v = -1
            best_side = -1
            best_g = 0
            if w1 <= maxw1:
                room = maxw1 + slack - w1
                v = -1
                b = maxptr[0]
                while b >= 0:
                    u = heads0[b]
                    if u == -1:
                        maxptr[0] = b - 1
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
            if w0 <= maxw0:
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
            return 0, False, len(moved)
        return best_cum, True, len(moved)

    # ------------------------------------------------------------------ #
    # Greedy matching (pre-PR: single loop, index-based pin scans).
    # ------------------------------------------------------------------ #
    def match_vertices(
        self, state, order, absorption, max_net, max_cluster_weight,
        restrict_parts,
    ):
        mirrors = state.list_mirrors()
        xpins_l = mirrors["xpins"]
        pins_l = mirrors["pins"]
        xnets_l = mirrors["xnets"]
        vnets_l = mirrors["vnets"]
        cost_l = mirrors["cost"]
        vw_l = mirrors["vwgt"]
        sizes_l = mirrors["sizes"]
        nverts = state.h.nverts

        match = [-1] * nverts
        parts_l = (
            restrict_parts.tolist() if restrict_parts is not None else None
        )
        score = [0.0] * nverts
        for v in order.tolist():
            if match[v] != -1:
                continue
            wv = vw_l[v]
            touched = []
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

    def cluster_vertices(
        self, state, order, absorption, max_net, max_cluster_weight,
        max_members, min_clusters, restrict_parts,
    ):
        """The frozen pair sweep behind the clustering interface: it
        builds pairs and sweeps the whole order whatever ``max_members``
        and ``min_clusters`` say, so it equals the live kernel only at
        ``max_members=2`` and ``min_clusters=0``."""
        return pair_clusters(self.match_vertices(
            state, order, absorption, max_net, max_cluster_weight,
            restrict_parts,
        ))


BASELINE_BACKEND = BaselineBackend()


# --------------------------------------------------------------------- #
# Pre-store execution layer: every task ships its whole submatrix.
# --------------------------------------------------------------------- #
def _pickle_task(arg):
    """Process worker: the submatrix arrived pickled."""
    fn, sub, extra = arg
    faults.fault_point("executor.task")
    return faults.fault_point("executor.result", fn(sub, extra))


#: The label ``BENCH_e2e.json`` records for this pool: its name when it
#: was the ``exec_backend="process-pickle"`` option.
PICKLED_POOL = "process-pickle"


class PickledMatrixExecutor(MatrixExecutor):
    """:class:`~repro.utils.executor.MatrixExecutor` whose process pool
    pickles each selected submatrix instead of shipping a shared-memory
    handle plus indices.  Inline delivery (``jobs <= 1``) is
    unchanged."""

    def _process_items(self, fn, tasks):
        return _pickle_task, [
            (fn, self.matrix if idx is None else self.matrix.select(idx),
             extra)
            for idx, extra in tasks
        ]


@contextlib.contextmanager
def baseline_pickled_pool():
    """Run recursive bisection's worker pool on the pickled payloads:
    inside the block, ``partition(..., jobs=N)`` with ``N >= 2`` ships
    whole submatrices as the pre-store layer did."""
    saved = _recursive_mod.MatrixExecutor
    _recursive_mod.MatrixExecutor = PickledMatrixExecutor
    try:
        yield
    finally:
        _recursive_mod.MatrixExecutor = saved


# --------------------------------------------------------------------- #
# Pre-PR recursive bisection: traversal-order seed stream, serial only.
# --------------------------------------------------------------------- #
def _baseline_recurse(
    matrix, indices, first_part, nparts, ceiling, eps, method, refine,
    cfg, rng, out, volumes,
):
    """The pre-PR ``_recurse`` verbatim: the single ``rng`` is threaded
    through the depth-first walk, so every bisection's randomness depends
    on how many draws earlier subtrees consumed."""
    import numpy as np

    from repro.core.methods import bipartition
    from repro.utils.balance import max_allowed_part_size

    if nparts == 1:
        out[indices] = first_part
        return
    q0 = nparts // 2
    q1 = nparts - q0
    sub = matrix.select(indices)
    cap0, cap1 = ceiling * q0, ceiling * q1
    if indices.size > cap0 + cap1:
        relaxed = max_allowed_part_size(indices.size, nparts, eps)
        cap0 = max(cap0, relaxed * q0)
        cap1 = max(cap1, relaxed * q1)
    result = bipartition(
        sub, method=method, refine=refine, config=cfg, seed=rng,
        max_weights=(cap0, cap1),
    )
    volumes.append(result.volume)
    left = indices[result.parts == 0]
    right = indices[result.parts == 1]
    _baseline_recurse(
        matrix, left, first_part, q0, ceiling, eps, method, refine, cfg,
        rng, out, volumes,
    )
    _baseline_recurse(
        matrix, right, first_part + q0, q1, ceiling, eps, method, refine,
        cfg, rng, out, volumes,
    )


def baseline_partition(
    matrix, nparts, method="mediumgrain", eps=0.03, refine=False, seed=None
):
    """Pre-PR serial p-way partitioning over the frozen kernels.

    Returns ``(parts, volume)``.  Runs the frozen traversal-order
    recursion with the frozen backend and lambda kernels, i.e. the whole
    pre-PR p-way pipeline the parallel-recursion benchmark compares
    against.
    """
    import dataclasses

    import numpy as np

    from repro.core.volume import communication_volume
    from repro.partitioner.config import get_config
    from repro.utils.balance import max_allowed_part_size
    from repro.utils.rng import as_generator

    cfg = dataclasses.replace(
        get_config("mondriaan"), kernel_backend=BASELINE_BACKEND
    )
    rng = as_generator(seed)
    n = matrix.nnz
    parts = np.zeros(n, dtype=np.int64)
    ceiling = max_allowed_part_size(n, nparts, eps)
    with baseline_lambda_kernels():
        if nparts > 1:
            _baseline_recurse(
                matrix, np.arange(n, dtype=np.int64), 0, nparts, ceiling,
                eps, method, refine, cfg, rng, parts, [],
            )
        volume = communication_volume(matrix, parts)
    return parts, volume


# --------------------------------------------------------------------- #
# Pre-PR SpMV side: lexsort incidences, all-lines greedy, dict simulate.
# --------------------------------------------------------------------- #
def _axis_part_sets(index, parts, extent):
    if index.size == 0:
        return np.zeros(extent + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.lexsort((parts, index))
    si, sp = index[order], parts[order]
    keep = np.empty(si.size, dtype=bool)
    keep[0] = True
    keep[1:] = (si[1:] != si[:-1]) | (sp[1:] != sp[:-1])
    si, sp = si[keep], sp[keep]
    counts = np.bincount(si, minlength=extent)
    ptr = np.zeros(extent + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, sp


def _greedy_owners(ptr, flat, extent, nparts, fallback_balance):
    owners = np.full(extent, -1, dtype=np.int64)
    lam = np.diff(ptr)
    send = [0] * nparts
    recv = [0] * nparts
    ptr_l = ptr.tolist()
    flat_l = flat.tolist()
    order = np.argsort(-lam, kind="stable").tolist()
    for line in order:
        lo, hi = ptr_l[line], ptr_l[line + 1]
        k = hi - lo
        if k == 0:
            continue
        if k == 1:
            owners[line] = flat_l[lo]
            continue
        best_s = -1
        best_cost = None
        for t in range(lo, hi):
            s = flat_l[t]
            cost = max(send[s] + k - 1, recv[s])
            if best_cost is None or cost < best_cost:
                best_s, best_cost = s, cost
        owners[line] = best_s
        send[best_s] += k - 1
        for t in range(lo, hi):
            s = flat_l[t]
            if s != best_s:
                recv[s] += 1
    empty = owners < 0
    if empty.any():
        idx = np.flatnonzero(empty)
        owners[idx] = fallback_balance[np.arange(idx.size) % nparts]
    return owners


def baseline_distribute_vectors(matrix, parts, nparts):
    """Pre-PR greedy vector distribution (lexsort + all-lines loop)."""
    m, n = matrix.shape
    col_ptr, col_parts = _axis_part_sets(matrix.cols, parts, n)
    row_ptr, row_parts = _axis_part_sets(matrix.rows, parts, m)
    fallback = np.arange(nparts, dtype=np.int64)
    return VectorDistribution(
        input_owner=_greedy_owners(col_ptr, col_parts, n, nparts, fallback),
        output_owner=_greedy_owners(row_ptr, row_parts, m, nparts, fallback),
        nparts=nparts,
    )


def _expected_phase_words(matrix, parts, dist):
    m, n = matrix.shape
    totals = []
    for index, owner, extent in (
        (matrix.cols, dist.input_owner, n),
        (matrix.rows, dist.output_owner, m),
    ):
        ptr, flat = _axis_part_sets(index, parts, extent)
        line_of = np.repeat(np.arange(extent), np.diff(ptr))
        foreign = flat != owner[line_of]
        totals.append(int(np.count_nonzero(foreign)))
    return totals[0], totals[1]


def _baseline_phase_loads(matrix, parts, nparts, dist):
    """Pre-PR BSP phase loads (lexsort-based incidence detection)."""
    m, n = matrix.shape
    fanout_send = np.zeros(nparts, dtype=np.int64)
    fanout_recv = np.zeros(nparts, dtype=np.int64)
    fanin_send = np.zeros(nparts, dtype=np.int64)
    fanin_recv = np.zeros(nparts, dtype=np.int64)
    for axis, owner, send, recv in (
        ("col", dist.input_owner, fanout_send, fanout_recv),
        ("row", dist.output_owner, fanin_send, fanin_recv),
    ):
        index = matrix.cols if axis == "col" else matrix.rows
        if index.size == 0:
            continue
        order = np.lexsort((parts, index))
        si, sp = index[order], parts[order]
        keep = np.empty(si.size, dtype=bool)
        keep[0] = True
        keep[1:] = (si[1:] != si[:-1]) | (sp[1:] != sp[:-1])
        li, lp = si[keep], sp[keep]
        own = owner[li]
        foreign = lp != own
        if axis == "col":
            np.add.at(send, own[foreign], 1)
            np.add.at(recv, lp[foreign], 1)
        else:
            np.add.at(send, lp[foreign], 1)
            np.add.at(recv, own[foreign], 1)
    return fanout_send, fanin_send


def baseline_simulate_spmv(matrix, parts, nparts, dist):
    """Pre-PR dict-based verified SpMV simulation.

    Returns ``(u, words_fanout, words_fanin)`` after running the same
    verification the pre-PR simulator performed (result vs. sequential
    product, words vs. the distribution-implied counts, eqn-(3) lower
    bound, BSP phase loads).
    """
    m, n = matrix.shape
    v = (np.arange(1, n + 1, dtype=np.float64)) / n
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals

    need_pairs = np.unique(np.stack([parts, cols], axis=1), axis=0)
    need_owner = dist.input_owner[need_pairs[:, 1]]
    foreign_in = need_pairs[need_owner != need_pairs[:, 0]]
    vlocal = [dict() for _ in range(nparts)]
    for j, owner in enumerate(dist.input_owner.tolist()):
        vlocal[owner][j] = v[j]
    words_fanout = int(foreign_in.shape[0])
    for s, j in foreign_in.tolist():
        owner = int(dist.input_owner[j])
        vlocal[s][j] = vlocal[owner][j]

    partials = [dict() for _ in range(nparts)]
    for k in range(matrix.nnz):
        s = int(parts[k])
        i = int(rows[k])
        j = int(cols[k])
        vj = vlocal[s][j]
        acc = partials[s]
        acc[i] = acc.get(i, 0.0) + vals[k] * vj

    u = np.zeros(m, dtype=np.float64)
    words_fanin = 0
    for s in range(nparts):
        for i, val in partials[s].items():
            owner = int(dist.output_owner[i])
            if owner != s:
                words_fanin += 1
            u[i] += val

    reference = matrix.matvec(v)
    if not np.allclose(u, reference, rtol=1e-9, atol=1e-9):
        raise AssertionError("baseline simulation drifted from A @ v")
    expected_out, expected_in = _expected_phase_words(matrix, parts, dist)
    if words_fanout != expected_out or words_fanin != expected_in:
        raise AssertionError("baseline word counts drifted")
    row_l = _lexsort_axis_lambdas(matrix.rows, parts, m)
    col_l = _lexsort_axis_lambdas(matrix.cols, parts, n)
    fanin_lb = int(np.maximum(row_l - 1, 0).sum())
    fanout_lb = int(np.maximum(col_l - 1, 0).sum())
    if words_fanout < fanout_lb or words_fanin < fanin_lb:
        raise AssertionError("baseline words below the eqn-(3) bound")
    fanout_send, fanin_send = _baseline_phase_loads(
        matrix, parts, nparts, dist
    )
    if int(fanout_send.sum()) != words_fanout or (
        int(fanin_send.sum()) != words_fanin
    ):
        raise AssertionError("baseline BSP loads disagree with simulation")
    return u, words_fanout, words_fanin
