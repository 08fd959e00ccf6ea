"""Reusable per-hypergraph state for the FM / clustering kernels.

:class:`FMPassState` owns every buffer an FM pass (or a clustering sweep)
needs beyond the partition vector itself: the Python-list mirrors of the
CSR arrays the move loops read, and the derived scalars (gain bound,
bucket count, transit slack, total weight).

The state is keyed on the hypergraph and cached in ``Hypergraph._cache``
— hypergraphs are immutable, so the state is **never invalidated**.  The
contract for callers:

* a state object may be reused across any number of FM passes, refinement
  calls, and clustering sweeps on *the same hypergraph*;
* the topology mirrors are read-only; the scratch buffers are reset at
  the start of every pass, so concurrent passes on one state are not
  allowed (the partitioner is sequential, as is the paper's);
* results are bit-identical whether a state is fresh or reused — the
  equivalence is pinned by ``tests/kernels/test_state.py``.

Repeated refinement (multilevel per-level calls, V-cycles, Algorithm-2
iterations, both FM-refined candidates at the coarsest level) therefore pays
the ``tolist()`` conversions and the ``net_ids`` expansion once per
hypergraph instead of once per call.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "FMPassState", "FM_STALL_CAP", "compute_fm_setup", "fm_stall_limit",
    "seed_buckets",
]

_STATE_KEY = "fm_pass_state"

#: Upper bound on an FM pass's stall window.  On the benchmark workloads
#: improving moves came at most 428 non-improving moves apart, so past
#: that a ``frac * nverts`` window only tries moves the rollback undoes;
#: a 256 cap changed benchmark answers, 512 changes none.  Arrow matrices
#: are the known exception, with improvements up to 1,362 moves apart
#: (see docs/performance.md, "FM stall window").
FM_STALL_CAP = 512


class FMPassState:
    """Persistent kernel buffers for one hypergraph + backend pair.

    Use :meth:`for_hypergraph` (or ``backend.fm_state(h)``) rather than
    the constructor; both return the cached instance when one exists.
    """

    __slots__ = (
        "_h",
        "backend_name",
        "max_gain",
        "nbuckets",
        "slack",
        "total_weight",
        "lists",
    )

    def __init__(self, h: Hypergraph, backend_name: str) -> None:
        self._h = weakref.ref(h)
        self.backend_name = backend_name
        self.max_gain = h.max_vertex_net_cost()
        self.nbuckets = 2 * self.max_gain + 1
        self.slack = int(h.vwgt.max(initial=0))
        self.total_weight = h.total_weight()
        #: Python-list mirrors (built on demand, see :meth:`list_mirrors`).
        self.lists: dict | None = None

    @property
    def h(self) -> Hypergraph:
        """The hypergraph, held weakly.

        The state lives in the hypergraph's cache; a strong reference
        back would make each hypergraph with a state a cycle that only
        the cyclic garbage collector frees, so dropped hypergraphs and
        their list mirrors would linger for as long as it waits.
        """
        return self._h()

    # ------------------------------------------------------------------ #
    @classmethod
    def for_hypergraph(cls, h: Hypergraph, backend_name: str) -> "FMPassState":
        """Cached state for ``h`` under the named backend."""
        cached = h._cache.get((_STATE_KEY, backend_name))
        if cached is None:
            cached = cls(h, backend_name)
            h._cache[(_STATE_KEY, backend_name)] = cached
        return cached

    # ------------------------------------------------------------------ #
    def list_mirrors(self) -> dict:
        """Python-list mirrors of the CSR topology (built once, reused).

        Single-element reads on plain lists are 2–3x faster than NumPy
        scalar indexing, which is what the scalar move loop does millions
        of times; the conversion cost is paid once per hypergraph.
        """
        if self.lists is None:
            h = self.h
            self.lists = {
                "xpins": h.xpins.tolist(),
                "pins": h.pins.tolist(),
                "xnets": h.xnets.tolist(),
                "vnets": h.vnets.tolist(),
                "cost": h.ncost.tolist(),
                "vwgt": h.vwgt.tolist(),
                "sizes": h.net_sizes().tolist(),
            }
        return self.lists


def fm_stall_limit(frac: float, nverts: int) -> int:
    """Non-improving moves an FM pass makes before it gives up.

    ``max(32, min(int(frac * nverts), FM_STALL_CAP))``: the 2-way and
    k-way passes share this one rule.  ``frac`` is ``PartitionerConfig.fm_early_exit_frac``.
    """
    return max(32, min(int(frac * nverts), FM_STALL_CAP))


def compute_fm_setup(
    h: Hypergraph, parts: np.ndarray, boundary_only: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-pass FM setup.

    Returns ``(pc0, pc1, gain, insert_mask)``: per-net pin counts on each
    side, the initial move gain per vertex, and the bucket-seeding mask
    (all vertices, or only boundary vertices when ``boundary_only``).
    The frozen benchmark baselines share it with the python pass, so
    only their sequential move loops differ.
    """
    net_ids = h.net_ids()
    nnets = h.nnets
    pin_parts = parts[h.pins]
    pc1 = np.zeros(nnets, dtype=np.int64)
    np.add.at(pc1, net_ids, pin_parts)
    pc0 = h.net_sizes() - pc1
    # A pin's gain term depends only on its net and its side: +cost when
    # it is its side's only pin, -cost when the other side is empty.
    # Tabulate the term per (side, net) and gather it once per pin.
    term = np.empty(2 * nnets, dtype=np.int64)
    np.multiply(
        h.ncost, (pc0 == 1).astype(np.int64) - (pc1 == 0), out=term[:nnets]
    )
    np.multiply(
        h.ncost, (pc1 == 1).astype(np.int64) - (pc0 == 0), out=term[nnets:]
    )
    gain = np.zeros(h.nverts, dtype=np.int64)
    np.add.at(gain, h.pins, term[pin_parts * nnets + net_ids])
    if boundary_only:
        cut_net = (pc0 > 0) & (pc1 > 0)
        insert_mask = np.zeros(h.nverts, dtype=bool)
        insert_mask[h.pins[cut_net[net_ids]]] = True
    else:
        insert_mask = np.ones(h.nverts, dtype=bool)
    return pc0, pc1, gain, insert_mask


def seed_buckets(
    seeds: np.ndarray, keys: np.ndarray, nkeys: int, nverts: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gain-bucket chains after LIFO-inserting ``seeds`` in order.

    Vertex ``seeds[i]`` goes to the head of bucket ``keys[i]`` (each
    key below ``nkeys``).  Returns ``(head, nxt, prv, inside)``: the
    chains as ``int64`` arrays (``-1`` for "none"), exactly as that
    insertion loop leaves them, and the filed-vertex flags.  The loop
    leaves every bucket holding its vertices in *reverse* visit order,
    so the chains come from one stable sort of the keys over the
    reversed visit sequence.  In the narrowest unsigned type that holds
    the keys (8 or 16 bits on most levels) numpy's stable sort is a
    radix sort, with the same order.  Both FM passes seed their
    buckets through this.
    """
    head = np.full(nkeys, -1, dtype=np.int64)
    nxt = np.full(nverts, -1, dtype=np.int64)
    prv = np.full(nverts, -1, dtype=np.int64)
    inside = np.zeros(nverts, dtype=bool)
    if seeds.size == 0:
        return head, nxt, prv, inside
    inside[seeds] = True
    rev = seeds[::-1]
    rkey = keys[::-1].astype(np.min_scalar_type(nkeys))
    perm = np.argsort(rkey, kind="stable")
    seq = rev[perm]
    kseq = rkey[perm]
    same = kseq[1:] == kseq[:-1]
    nxt[seq[:-1][same]] = seq[1:][same]
    prv[seq[1:][same]] = seq[:-1][same]
    first = np.empty(seq.size, dtype=bool)
    first[0] = True
    np.logical_not(same, out=first[1:])
    head[kseq[first]] = seq[first]
    return head, nxt, prv, inside
