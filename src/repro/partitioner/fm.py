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
in :mod:`repro.kernels`: this module validates inputs, runs the pass
schedule, and delegates each pass to the kernels, reusing the
:class:`~repro.kernels.state.FMPassState` cached on each hypergraph so
repeated refinement calls pay the array-to-list conversions only once.
Both arities share the input checks (:func:`_checked`) and the pass
schedule (:func:`_run_passes`); only the kernel call, the initial
feasibility test and k-way's :func:`kway_rebalance` repair differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume
from repro.kernels import kernels_for
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
        Per-side weight ceilings ``(maxW0, maxW1)``, non-negative.
    config:
        Preset name or :class:`PartitionerConfig` (controls pass count,
        early exit, boundary-only seeding).
    seed:
        RNG for tie-breaking insertion order.
    max_passes:
        Overrides ``config.fm_max_passes`` when given.
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
    cfg, parts, ceilings = _checked(h, parts, 2, max_weights, config)
    kb = kernels_for(cfg)
    state, rng = kb.fm_state(h), as_generator(seed)
    maxw = (int(ceilings[0]), int(ceilings[1]))
    w1 = int(np.dot(parts, h.vwgt))
    feasible = h.total_weight() - w1 <= maxw[0] and w1 <= maxw[1]
    return _run_passes(
        h, parts, feasible, cfg, max_passes, deadline, _BI,
        lambda p: kb.fm_pass(state, p, maxw, cfg, rng),
    )


def kway_refine(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    max_passes: int | None = None,
    *,
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
    nparts = int(nparts)
    if nparts < 2:
        raise PartitioningError(
            f"kway_refine needs nparts >= 2, got {nparts}"
        )
    cfg, parts, ceilings = _checked(h, parts, nparts, ceilings, config)
    kb = kernels_for(cfg)
    state, rng = kb.fm_state(h), as_generator(seed)
    # The FM pass rebalances with *single* forced moves; when every
    # single move off an overweight part would blow another ceiling
    # (coarse V-cycle levels: few, heavy vertices against snug
    # ceilings) the pass cannot make progress.  The swap-capable
    # rebalancer covers exactly that case — and it never touches a
    # feasible input, so the fast path is unchanged.
    feasible = kway_rebalance(h, parts, nparts, ceilings)
    return _run_passes(
        h, parts, feasible, cfg, max_passes, deadline, _KWAY,
        lambda p: kb.kway_fm_pass(state, p, nparts, ceilings, cfg, rng),
        k=nparts,
    )


def _checked(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings,
    config: PartitionerConfig | str,
) -> tuple[PartitionerConfig, np.ndarray, np.ndarray]:
    """The input checks both refiners share.  Returns the resolved
    config, a fresh int64 copy of ``parts`` and the ceilings as an int64
    array; raises :class:`PartitioningError` on a wrong shape, a part id
    outside ``[0, nparts)``, a negative ceiling, or a total weight no
    partitioning can fit."""
    cfg = get_config(config)
    parts = np.asarray(parts)
    if parts.shape != (h.nverts,):
        raise PartitioningError(
            f"parts must have shape ({h.nverts},), got {parts.shape}"
        )
    parts = parts.astype(np.int64, copy=True)
    if h.nverts and (parts.min() < 0 or parts.max() >= nparts):
        want = "a 0/1 part vector" if nparts == 2 else (
            f"part ids in [0, {nparts})"
        )
        raise PartitioningError(f"FM refinement expects {want}")
    ceilings = np.ascontiguousarray(ceilings, dtype=np.int64)
    if ceilings.shape != (nparts,):
        raise PartitioningError(
            f"ceilings must have shape ({nparts},), got {ceilings.shape}"
        )
    if int(ceilings.min()) < 0:
        raise PartitioningError("ceilings must be non-negative")
    if h.total_weight() > int(ceilings.sum()):
        raise PartitioningError(
            f"total weight {h.total_weight()} exceeds combined ceilings "
            f"{int(ceilings.sum())}: no feasible partitioning exists"
        )
    return cfg, parts, ceilings


@dataclass(frozen=True)
class _Arity:
    """What tells 2-way and k-way passes apart in the trace and the
    metrics: the deadline boundary name, the pass span, and the
    counters' label children (bound once: every pass would otherwise
    pay a locked ``.labels()`` lookup per counter)."""

    where: str
    span: str
    passes: _metrics.Counter
    moves: _metrics.Counter
    tried: _metrics.Counter
    gain: _metrics.Counter

    @classmethod
    def of(cls, where: str, span: str, kind: str) -> "_Arity":
        return cls(where, span, *(
            c.labels(kind=kind)
            for c in (_FM_PASSES, _FM_MOVES, _FM_TRIED, _FM_GAIN)
        ))


_BI = _Arity.of("fm", "fm.pass", "bi")
_KWAY = _Arity.of("kway-fm", "kway_fm.pass", "kway")


def _run_passes(
    h: Hypergraph,
    parts: np.ndarray,
    feasible: bool,
    cfg: PartitionerConfig,
    max_passes: int | None,
    deadline: Deadline | None,
    arity: _Arity,
    fm_pass: Callable[[np.ndarray], tuple[int, bool, int]],
    **span_attrs,
) -> FMResult:
    """The pass schedule of both refiners: run ``fm_pass(parts)`` (one
    kernel pass, in place, returning ``(delta, feasible, tried)``) until
    the budget is spent, the ``deadline`` expires between two passes,
    or a pass that started feasible does not reduce the cut.  A
    rebalancing pass (infeasible start) may have ``delta <= 0`` yet
    unlock further improvement, so it never stops the schedule."""
    passes_budget = max_passes if max_passes is not None else cfg.fm_max_passes
    cut = connectivity_volume(h, parts)
    total_delta = 0
    passes_run = 0
    degraded = None
    for _ in range(passes_budget):
        if deadline is not None and deadline.expired():
            degraded = Degraded(
                arity.where, completed=passes_run,
                skipped=passes_budget - passes_run,
            )
            _trace.event("deadline", where=arity.where, completed=passes_run)
            break
        started_feasible = feasible
        before = parts.copy()
        with _trace.span(arity.span) as sp:
            delta, feasible, tried = fm_pass(parts)
            moved = int(np.count_nonzero(parts != before))
            sp.set(
                delta=delta, moved=moved, tried=tried, nverts=h.nverts,
                **span_attrs,
            )
        passes_run += 1
        total_delta += delta
        arity.passes.inc()
        arity.moves.inc(moved)
        arity.tried.inc(tried)
        if delta > 0:
            arity.gain.inc(delta)
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
