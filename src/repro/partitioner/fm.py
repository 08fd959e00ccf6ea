"""Fiduccia–Mattheyses bipartition refinement with gain buckets.

This is the Kernighan–Lin-style engine every partitioner in the paper shares
(Section II): repeated *passes* in which each free vertex may move across
the cut at most once, in best-gain-first order subject to the balance
constraint; the pass is then rolled back to its best prefix, which is never
worse than the starting point — the monotonicity the paper's Algorithm 2
relies on.

Metric: cut-net cost, which for two parts equals the connectivity-1 metric
used throughout the paper.  Balance: *asymmetric* per-side weight ceilings
``(maxW0, maxW1)`` so recursive bisection can pass down Mondriaan-style
budgets; if the incoming partitioning violates a ceiling, the pass first
drives it feasible (forced moves off the overweight side) and only tracks
best prefixes at feasible states.

The pass itself — vectorized setup plus the sequential move loop — lives
in :mod:`repro.kernels`: this module validates inputs, orchestrates the
pass schedule, and delegates each pass to the kernels, reusing one
:class:`~repro.kernels.state.FMPassState` per hypergraph so repeated
refinement calls pay the array-to-list conversions only once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.kernels import FMPassState, kernels_for
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.partitioner.config import PartitionerConfig, get_config
from repro.utils.deadline import Deadline, Degraded
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "fm_refine",
    "FMResult",
    "kway_refine",
    "kway_rebalance",
]

# Observability: plain process-local counters, never read by the
# algorithm (see docs/observability.md for the catalog).  ``kind`` is
# "bi" for 2-way passes, "kway" for direct k-way passes.
_FM_PASSES = _metrics.counter(
    "repro_fm_passes_total", "FM refinement passes executed", ("kind",)
)
_FM_MOVES = _metrics.counter(
    "repro_fm_moves_total",
    "Vertices left in a moved position by an FM pass's best prefix",
    ("kind",),
)
_FM_TRIED = _metrics.counter(
    "repro_fm_moves_tried_total",
    "Moves an FM pass made before rolling back to its best prefix",
    ("kind",),
)
_FM_GAIN = _metrics.counter(
    "repro_fm_gain_total",
    "Total cut reduction achieved by improving FM passes",
    ("kind",),
)
# Label children bound once: every pass would otherwise pay a locked
# ``.labels()`` lookup per counter.
_FM_PASSES_BI = _FM_PASSES.labels(kind="bi")
_FM_MOVES_BI = _FM_MOVES.labels(kind="bi")
_FM_TRIED_BI = _FM_TRIED.labels(kind="bi")
_FM_GAIN_BI = _FM_GAIN.labels(kind="bi")
_FM_PASSES_KWAY = _FM_PASSES.labels(kind="kway")
_FM_MOVES_KWAY = _FM_MOVES.labels(kind="kway")
_FM_TRIED_KWAY = _FM_TRIED.labels(kind="kway")
_FM_GAIN_KWAY = _FM_GAIN.labels(kind="kway")


@dataclass
class FMResult:
    """Outcome of an FM refinement call, 2-way or k-way.

    Attributes
    ----------
    parts:
        Refined part vector (int64 part ids).
    cut:
        Connectivity-(λ−1) cost of ``parts`` (the cut-net cost for two
        parts).
    feasible:
        Whether ``parts`` satisfies the weight ceilings.
    passes:
        Number of passes executed.
    improvement:
        Total cut reduction over the call (>= 0 whenever the input was
        feasible).
    degraded:
        A :class:`~repro.utils.deadline.Degraded` record when a deadline
        cut the pass schedule short, else ``None``.
    """

    parts: np.ndarray
    cut: int
    feasible: bool
    passes: int
    improvement: int
    degraded: Degraded | None = None


def fm_refine(
    h: Hypergraph,
    parts: np.ndarray,
    max_weights: tuple[int, int],
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    max_passes: int | None = None,
    *,
    state: FMPassState | None = None,
    deadline: Deadline | None = None,
) -> FMResult:
    """Refine a bipartitioning of ``h`` with repeated FM passes.

    Parameters
    ----------
    h:
        The hypergraph.
    parts:
        Initial part vector (0/1 per vertex); not modified.
    max_weights:
        Per-side weight ceilings ``(maxW0, maxW1)``.
    config:
        Preset name or :class:`PartitionerConfig` (controls pass count,
        early exit, boundary-only seeding).
    seed:
        RNG for tie-breaking insertion order.
    max_passes:
        Overrides ``config.fm_max_passes`` when given.
    state:
        Explicit reusable pass state for ``h``.  Defaults to the state
        cached on the hypergraph; results are identical either way.
    deadline:
        Optional cooperative deadline, checked **between** passes only
        (each pass rolls back to its best prefix, so the incumbent is
        valid at every boundary).  When it expires the remaining passes
        are skipped and the result carries a ``degraded`` record.

    Returns
    -------
    FMResult
        With ``parts`` a fresh array; the cut never exceeds the input cut
        when the input is feasible.
    """
    cfg = get_config(config)
    kb = kernels_for(cfg)
    parts = np.asarray(parts)
    if parts.shape != (h.nverts,):
        raise PartitioningError(
            f"parts must have shape ({h.nverts},), got {parts.shape}"
        )
    if state is None:
        state = kb.fm_state(h)
    elif state.h is not h:
        raise PartitioningError(
            "FMPassState belongs to a different hypergraph"
        )
    rng = as_generator(seed)
    parts = parts.astype(np.int64, copy=True)
    if h.nverts and (parts.min() < 0 or parts.max() > 1):
        raise PartitioningError("fm_refine expects a 0/1 part vector")
    maxw = (int(max_weights[0]), int(max_weights[1]))
    if h.total_weight() > maxw[0] + maxw[1]:
        raise PartitioningError(
            f"total weight {h.total_weight()} exceeds combined ceilings "
            f"{maxw[0]} + {maxw[1]}: no feasible bipartitioning exists"
        )

    passes_budget = max_passes if max_passes is not None else cfg.fm_max_passes
    cut = connectivity_volume(h, parts)
    total_delta = 0
    passes_run = 0
    feasible = _is_feasible(h, parts, maxw)
    degraded = None
    for _ in range(passes_budget):
        if deadline is not None and deadline.expired():
            degraded = Degraded(
                "fm", completed=passes_run,
                skipped=passes_budget - passes_run,
            )
            _trace.event("deadline", where="fm", completed=passes_run)
            break
        started_feasible = feasible
        before = parts.copy()
        with _trace.span("fm.pass") as sp:
            delta, feasible, tried = kb.fm_pass(
                state, parts, maxw, cfg, rng
            )
            moved = int(np.count_nonzero(parts != before))
            sp.set(delta=delta, moved=moved, tried=tried, nverts=h.nverts)
        passes_run += 1
        total_delta += delta
        _FM_PASSES_BI.inc()
        _FM_MOVES_BI.inc(moved)
        _FM_TRIED_BI.inc(tried)
        if delta > 0:
            _FM_GAIN_BI.inc(delta)
        # Stop once a pass that started from a feasible state no longer
        # reduces the cut; a rebalancing pass (infeasible start) may have
        # delta <= 0 yet unlock further improvement, so it never stops us.
        if started_feasible and delta <= 0:
            break
    return FMResult(
        parts=parts,
        cut=cut - total_delta,
        feasible=feasible,
        passes=passes_run,
        improvement=total_delta,
        degraded=degraded,
    )


def _is_feasible(h: Hypergraph, parts: np.ndarray, maxw: tuple[int, int]) -> bool:
    w1 = int(np.dot(parts, h.vwgt))
    w0 = h.total_weight() - w1
    return w0 <= maxw[0] and w1 <= maxw[1]


def kway_refine(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    max_passes: int | None = None,
    *,
    state: FMPassState | None = None,
    deadline: Deadline | None = None,
) -> FMResult:
    """Refine a k-way partitioning of ``h`` with repeated k-way FM passes.

    The direct k-way counterpart of :func:`fm_refine`: each pass
    (:meth:`~repro.kernels.base.KernelBackend.kway_fm_pass`) maintains
    per-net part-occupancy counts and exact connectivity-λ gains instead
    of two-sided cut gains, moves vertices best-gain-first under per-part
    weight ``ceilings`` (length ``nparts``), and rolls back to its best
    feasible prefix.  An
    infeasible input is first driven feasible by forced moves off
    overweight parts, exactly like the 2-way pass.

    Parameters mirror :func:`fm_refine`; ``parts`` holds ids in
    ``[0, nparts)`` and is not modified.  Requires ``nparts >= 2``.
    """
    cfg = get_config(config)
    kb = kernels_for(cfg)
    nparts = int(nparts)
    if nparts < 2:
        raise PartitioningError(
            f"kway_refine needs nparts >= 2, got {nparts}"
        )
    parts = np.asarray(parts)
    if parts.shape != (h.nverts,):
        raise PartitioningError(
            f"parts must have shape ({h.nverts},), got {parts.shape}"
        )
    if state is None:
        state = kb.fm_state(h)
    elif state.h is not h:
        raise PartitioningError(
            "FMPassState belongs to a different hypergraph"
        )
    rng = as_generator(seed)
    parts = parts.astype(np.int64, copy=True)
    if h.nverts and (parts.min() < 0 or parts.max() >= nparts):
        raise PartitioningError(
            f"kway_refine expects part ids in [0, {nparts})"
        )
    ceilings = np.ascontiguousarray(ceilings, dtype=np.int64)
    if ceilings.shape != (nparts,):
        raise PartitioningError(
            f"ceilings must have shape ({nparts},), got {ceilings.shape}"
        )
    if ceilings.size and int(ceilings.min()) < 0:
        raise PartitioningError("ceilings must be non-negative")
    if h.total_weight() > int(ceilings.sum()):
        raise PartitioningError(
            f"total weight {h.total_weight()} exceeds combined ceilings "
            f"{int(ceilings.sum())}: no feasible partitioning exists"
        )

    passes_budget = max_passes if max_passes is not None else cfg.fm_max_passes
    cut = connectivity_volume(h, parts)
    total_delta = 0
    passes_run = 0
    feasible = bool(np.all(part_weights(h, parts, nparts) <= ceilings))
    if not feasible:
        # The FM pass rebalances with *single* forced moves; when every
        # single move off an overweight part would blow another ceiling
        # (coarse V-cycle levels: few, heavy vertices against snug
        # ceilings) the pass cannot make progress.  The swap-capable
        # rebalancer covers exactly that case — and it never touches a
        # feasible input, so the fast path is unchanged.
        kway_rebalance(h, parts, nparts, ceilings)
        cut = connectivity_volume(h, parts)
        feasible = bool(np.all(part_weights(h, parts, nparts) <= ceilings))
    degraded = None
    for _ in range(passes_budget):
        if deadline is not None and deadline.expired():
            degraded = Degraded(
                "kway-fm", completed=passes_run,
                skipped=passes_budget - passes_run,
            )
            _trace.event("deadline", where="kway-fm", completed=passes_run)
            break
        started_feasible = feasible
        before = parts.copy()
        with _trace.span("kway_fm.pass") as sp:
            delta, feasible, tried = kb.kway_fm_pass(
                state, parts, nparts, ceilings, cfg, rng
            )
            moved = int(np.count_nonzero(parts != before))
            sp.set(
                delta=delta, moved=moved, tried=tried, nverts=h.nverts,
                k=nparts,
            )
        passes_run += 1
        total_delta += delta
        _FM_PASSES_KWAY.inc()
        _FM_MOVES_KWAY.inc(moved)
        _FM_TRIED_KWAY.inc(tried)
        if delta > 0:
            _FM_GAIN_KWAY.inc(delta)
        # Same stopping rule as fm_refine: a feasible-start pass that no
        # longer reduces the cut ends the call; a rebalancing pass never
        # does.
        if started_feasible and delta <= 0:
            break
    return FMResult(
        parts=parts,
        cut=cut - total_delta,
        feasible=feasible,
        passes=passes_run,
        improvement=total_delta,
        degraded=degraded,
    )


def kway_rebalance(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
) -> bool:
    """Weight-only repair of an infeasible k-way partitioning, in place.

    The k-way FM pass drives infeasible states feasible with forced
    *single* moves; this is its fallback for the states single moves
    cannot fix — e.g. a projected V-cycle level whose coarse vertices
    are so heavy that any move off the overweight part would overload
    the target.  Two escalating repairs, both deterministic (lowest-id
    tie-breaks, no RNG, pure NumPy — trivially backend-independent):

    1. **single move** — the heaviest vertex of the most-overweight part
       that fits the slack of the roomiest other part;
    2. **pairwise swap** — a vertex of the overweight part exchanged
       with a lighter vertex of another part, chosen (via one
       ``searchsorted`` per candidate part) to shed the most weight the
       target's slack allows.

    Every applied repair strictly reduces the total overshoot
    ``sum(max(w_k - ceil_k, 0))`` (an integer), so the loop terminates.
    Cut quality is ignored — the caller follows with a k-way FM pass
    that re-optimizes the cut from the repaired, feasible state.

    Returns ``True`` when the result satisfies every ceiling.  A
    feasible input returns immediately, untouched.
    """
    ceil = np.ascontiguousarray(ceilings, dtype=np.int64)
    vw = np.asarray(h.vwgt, dtype=np.int64)
    pw = np.bincount(parts, weights=vw, minlength=nparts).astype(np.int64)
    if bool(np.all(pw <= ceil)):
        return True
    while True:
        over = pw - ceil
        s = int(np.argmax(over))
        if over[s] <= 0:
            return True
        members = np.flatnonzero(parts == s)
        mw = vw[members]
        heavy_order = np.argsort(-mw, kind="stable")  # heaviest first
        slack = ceil - pw
        slack[s] = np.iinfo(np.int64).min
        # 1. Single move: heaviest member that fits the roomiest target.
        t = int(np.argmax(slack))
        moved = False
        if slack[t] > 0:
            fits = heavy_order[
                (mw[heavy_order] <= slack[t]) & (mw[heavy_order] > 0)
            ]
            if fits.size:
                v = int(members[fits[0]])
                parts[v] = t
                pw[s] -= vw[v]
                pw[t] += vw[v]
                moved = True
        if moved:
            continue
        # 2. Pairwise swap: for each candidate target, pair the heaviest
        # donors with the lightest counter-weights that keep the target
        # under its ceiling; keep the swap shedding the most weight.
        best = None  # (shed, t, v, u) — maximize shed, tie to low ids
        for t in range(nparts):
            if t == s:
                continue
            others = np.flatnonzero(parts == t)
            if not others.size:
                continue
            ow = vw[others]
            asc = np.argsort(ow, kind="stable")
            others, ow = others[asc], ow[asc]
            # Donor v (weight wv) swaps with counter u (weight wu < wv)
            # needing wv - wu <= slack_t; the lightest such u maximizes
            # the shed.  Equal-weight donors shed identically, so only
            # the first (lowest-id) of each weight is considered.
            room = int(ceil[t] - pw[t])
            prev_wv = -1
            for i in heavy_order.tolist():
                wv = int(mw[i])
                if wv == prev_wv:
                    continue
                prev_wv = wv
                lo = int(np.searchsorted(ow, wv - room, side="left"))
                if lo >= ow.size:
                    continue
                wu = int(ow[lo])
                shed = wv - wu
                if shed <= 0:
                    continue
                cand = (shed, -t, -int(members[i]), -int(others[lo]))
                if best is None or cand > best:
                    best = cand
        if best is None:
            return False  # no repair strictly reduces the overshoot
        _, t, v, u = best
        t, v, u = -t, -v, -u
        parts[v], parts[u] = t, s
        dw = vw[v] - vw[u]
        pw[s] -= dw
        pw[t] += dw
