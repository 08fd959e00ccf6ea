"""Flat-array kernels for the SpMV/volume side of the pipeline.

The partitioner's scalar hot loops live in :mod:`repro.kernels`; this
module holds the kernels of everything downstream of a partitioning — connectivity-``lambda`` counting, the distinct
``(line, part)`` incidence lists that drive vector distribution and BSP
phase loads, the greedy vector-owner assignment, and the per-part partial
sums of the SpMV simulator.

The central primitive is a *group-by on (line, part)*: most SpMV-side
quantities reduce to "which distinct parts touch each row/column".  The
seed computed it with a fresh ``np.lexsort((parts, index))`` per call;
here it is a boolean scatter (one ``(extent, nparts)`` table, one
``np.nonzero``) that does no sorting at all, with the lexsort kept as a
fallback for pathologically large ``extent * nparts`` products.  Both
paths return identical arrays (parts ascending within each line).

The one genuinely sequential loop — greedy vector-owner assignment,
where every choice updates the running send/receive loads — is
:func:`greedy_owners_reference`: a scalar loop over the cut lines only
(singleton lines are assigned vectorized).

Float contract: partial sums are accumulated by NumPy code
(``np.add.reduceat`` over a fixed ``(part, row)`` grouping), so the
simulated SpMV result is deterministic.

:class:`SpMVState` mirrors the ``FMPassState`` pattern from PR 1 on the
matrix side: per-matrix buffers (the default input vector, its reference
product, reusable scratch) cached on the immutable ``SparseMatrix`` so
repeated evaluation of the same matrix — exactly what an
(instance x method x seed) sweep does — stops rebuilding them per call.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.matrix import SparseMatrix

__all__ = [
    "SpMVState",
    "axis_incidences",
    "axis_lambdas",
    "greedy_owners_reference",
    "partial_sums",
]

_STATE_KEY = "spmv_state"

#: Scatter-table sizing: the boolean table costs O(extent * nparts) to
#: zero and scan, the lexsort fallback O(nnz log nnz).  Small tables are
#: always worth it (below the floor); past that the table may cost at
#: most this many cells per nonzero, and never more than the hard cap
#: (64 MB of bools), before the sort-based path takes over.
_SCATTER_CELL_FLOOR = 1 << 16
_SCATTER_CELLS_PER_NNZ = 32
_SCATTER_CELL_CAP = 1 << 26


def _use_scatter(extent: int, nparts: int, nnz: int) -> bool:
    """Whether the boolean-scatter table beats the sort-based fallback."""
    cells = extent * nparts
    if cells <= _SCATTER_CELL_FLOOR:
        return True
    return cells <= _SCATTER_CELLS_PER_NNZ * nnz and cells <= _SCATTER_CELL_CAP


class SpMVState:
    """Persistent per-matrix buffers for SpMV/volume evaluation.

    Cached on the (immutable) matrix like ``FMPassState`` is on its
    hypergraph, and never invalidated.  Holds whatever repeated
    evaluation of one matrix keeps re-deriving: the simulator's default
    input vector and its sequential reference product, plus reusable
    int64/float64 scratch arrays sized to the nonzero count.
    """

    __slots__ = ("matrix", "_default_v", "_reference_u", "_scratch")

    def __init__(self, matrix: SparseMatrix) -> None:
        self.matrix = matrix
        self._default_v: np.ndarray | None = None
        self._reference_u: np.ndarray | None = None
        self._scratch: dict = {}

    @classmethod
    def for_matrix(cls, matrix: SparseMatrix) -> "SpMVState":
        """The cached state for ``matrix`` (created on first use)."""
        cached = matrix._cache.get(_STATE_KEY)
        if cached is None:
            cached = cls(matrix)
            matrix._cache[_STATE_KEY] = cached
        return cached

    def default_vector(self) -> np.ndarray:
        """The simulator's default input ``(1, 2, ..., n) / n`` (read-only)."""
        if self._default_v is None:
            n = self.matrix.ncols
            v = np.arange(1, n + 1, dtype=np.float64) / n
            v.flags.writeable = False
            self._default_v = v
        return self._default_v

    def reference_result(self) -> np.ndarray:
        """Sequential ``A @ default_vector()`` (computed once, read-only)."""
        if self._reference_u is None:
            u = self.matrix.matvec(self.default_vector())
            u.flags.writeable = False
            self._reference_u = u
        return self._reference_u

    def scratch(self, name: str, size: int, dtype) -> np.ndarray:
        """A reusable uninitialized scratch array (grown, never shrunk)."""
        buf = self._scratch.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(size, dtype=dtype)
            self._scratch[name] = buf
        return buf[:size]


# --------------------------------------------------------------------- #
# Distinct (line, part) incidences — the shared group-by primitive.
# --------------------------------------------------------------------- #
def _incidences_sorted(
    index: np.ndarray, parts: np.ndarray, extent: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort-based fallback: the seed's lexsort + adjacent-pair dedup."""
    order = np.lexsort((parts, index))
    si, sp = index[order], parts[order]
    keep = np.empty(si.size, dtype=bool)
    keep[0] = True
    keep[1:] = (si[1:] != si[:-1]) | (sp[1:] != sp[:-1])
    lines, flat = si[keep], sp[keep]
    counts = np.bincount(lines, minlength=extent)
    return counts, flat


def axis_incidences(
    index: np.ndarray,
    parts: np.ndarray,
    extent: int,
    nparts: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR list of the distinct parts touching each line of one axis.

    Returns ``(ptr, flat)`` with the parts of line ``i`` in
    ``flat[ptr[i] : ptr[i+1]]``, ascending within each line.  ``index``
    is the row (or column) index of every nonzero and ``parts`` its part;
    neither needs to be pre-sorted — the default path is a boolean
    scatter, not a sort.
    """
    ptr = np.zeros(extent + 1, dtype=np.int64)
    if index.size == 0:
        return ptr, np.empty(0, dtype=np.int64)
    if nparts is None:
        nparts = int(parts.max()) + 1
    if _use_scatter(extent, nparts, index.size):
        seen = np.zeros((extent, nparts), dtype=bool)
        seen[index, parts] = True
        lines, flat = np.nonzero(seen)
        counts = np.bincount(lines, minlength=extent)
        flat = flat.astype(np.int64, copy=False)
    else:
        counts, flat = _incidences_sorted(index, parts, extent)
    np.cumsum(counts, out=ptr[1:])
    return ptr, flat


def axis_lambdas(
    index: np.ndarray,
    parts: np.ndarray,
    extent: int,
    nparts: int | None = None,
) -> np.ndarray:
    """Connectivity ``lambda`` per line: distinct parts touching it.

    Equivalent to ``np.diff(axis_incidences(...)[0])`` but skips
    materializing the incidence list when only the counts are needed
    (eqns (2)–(3): a line touched by ``lambda`` parts costs
    ``lambda - 1`` words).
    """
    if index.size == 0:
        return np.zeros(extent, dtype=np.int64)
    if nparts is None:
        nparts = int(parts.max()) + 1
    if _use_scatter(extent, nparts, index.size):
        seen = np.zeros((extent, nparts), dtype=bool)
        seen[index, parts] = True
        return seen.sum(axis=1, dtype=np.int64)
    counts, _ = _incidences_sorted(index, parts, extent)
    return counts.astype(np.int64)


# --------------------------------------------------------------------- #
# Greedy vector-owner assignment (the sequential kernel).
# --------------------------------------------------------------------- #
def greedy_owners_reference(
    ptr: np.ndarray,
    flat: np.ndarray,
    extent: int,
    nparts: int,
    fallback_balance: np.ndarray,
) -> np.ndarray:
    """Reference greedy owner assignment for one phase.

    The owner of a component with candidate set ``P`` (size ``lam``)
    sends ``lam - 1`` words; every other member receives one word.  Cut
    lines are processed in decreasing ``lam``; each picks the candidate
    whose tentative ``max(send, recv)`` after the assignment is smallest.
    Empty lines round-robin over ``fallback_balance`` — they cause no
    traffic, only storage.
    """
    owners = np.full(extent, -1, dtype=np.int64)
    lam = np.diff(ptr)
    # Singleton lines: their only touching part must own them; they move
    # no words, so order does not matter.
    single = lam == 1
    if single.any():
        owners[single] = flat[ptr[:-1][single]]
    # Cut lines in the seed's order: decreasing connectivity, stable in
    # the line index (``np.argsort(-lam, kind="stable")``).
    multi = np.flatnonzero(lam >= 2)
    if multi.size:
        multi = multi[np.argsort(-lam[multi], kind="stable")]
        send = [0] * nparts
        recv = [0] * nparts
        ptr_l = ptr.tolist()
        flat_l = flat.tolist()
        for line in multi.tolist():
            lo, hi = ptr_l[line], ptr_l[line + 1]
            k = hi - lo
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


# --------------------------------------------------------------------- #
# Per-(part, row) partial sums for the SpMV simulator.
# --------------------------------------------------------------------- #
def partial_sums(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    parts: np.ndarray,
    v: np.ndarray,
    m: int,
    state: SpMVState | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local-multiply partial sums, grouped by ``(part, row)``.

    Returns ``(group_parts, group_rows, group_sums)`` sorted by part then
    row — each group is one partial sum some part computes for some
    output row, i.e. one candidate fan-in message.  Sums accumulate in
    flat float64 arrays (``np.add.reduceat`` over the stable
    ``(part, row)`` grouping, canonical nonzero order within a group) —
    no per-part Python dicts on any path.
    """
    nnz = rows.size
    if nnz == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)
    key = parts * np.int64(m) + rows
    order = np.argsort(key, kind="stable")
    if state is not None:
        products = state.scratch("products", nnz, np.float64)
        np.multiply(vals, v[cols], out=products)
    else:
        products = vals * v[cols]
    skey = key[order]
    starts = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
    sums = np.add.reduceat(products[order], starts)
    gkey = skey[starts]
    gparts = gkey // m
    grows = gkey - gparts * m
    return gparts, grows, sums
