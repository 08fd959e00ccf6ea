"""The contiguous floor: the free split every degraded answer must beat.

Cutting the canonical (row-major) nonzero order, or the column-major
order, into consecutive chunks sized in proportion to the per-part
ceilings needs no hypergraph and costs one volume evaluation per order
(0.2–0.6 ms each on a 30k-nonzero matrix).  Zee's ``CyclicPartitioner`` is
the same split.  On banded and grid-like matrices it is often close to
a real partitioning; in general it is weak, but it is always feasible.

An anytime run that was cut short returns :func:`keep_best` of its own
answer and the two contiguous splits, so an expired deadline can cost
quality down to this floor but never below it.
"""

from __future__ import annotations

import numpy as np

from repro.core.volume import communication_volume
from repro.sparse.matrix import SparseMatrix

__all__ = ["contiguous_splits", "floor_split", "floor_volume", "keep_best"]


def contiguous_splits(
    matrix: SparseMatrix, ceilings
) -> tuple[np.ndarray, np.ndarray]:
    """The row-major and the column-major contiguous split.

    Part ``k`` takes the nonzeros at positions ``[b_{k-1}, b_k)`` of the
    order, with ``b_k = floor(n * C_k / C)`` for ``C_k`` the sum of the
    first ``k + 1`` ceilings and ``C`` their total.  Part ``k`` then holds
    at most ``ceil(n * c_k / C)`` nonzeros, which is at most ``c_k``
    whenever ``n <= C``: the split fits every ceiling.
    """
    ceilings = np.asarray(ceilings, dtype=np.int64)
    n = matrix.nnz
    bounds = n * np.cumsum(ceilings) // max(int(ceilings.sum()), 1)
    row_major = np.searchsorted(
        bounds, np.arange(n, dtype=np.int64), side="right"
    ).astype(np.int64)
    col_major = np.empty(n, dtype=np.int64)
    col_major[matrix.col_order()] = row_major
    return row_major, col_major


def floor_split(matrix: SparseMatrix, ceilings) -> tuple[np.ndarray, int]:
    """The better of the two :func:`contiguous_splits` and its volume.

    Both splits have the same part sizes, so they rank by volume alone;
    a tie keeps the row-major split.
    """
    return min(
        (
            (split, int(communication_volume(matrix, split)))
            for split in contiguous_splits(matrix, ceilings)
        ),
        key=lambda pair: pair[1],
    )


def floor_volume(matrix: SparseMatrix, ceilings) -> int:
    """The volume every degraded answer under ``ceilings`` must beat."""
    return floor_split(matrix, ceilings)[1]


def keep_best(
    matrix: SparseMatrix,
    parts: np.ndarray,
    ceilings,
    volume: int | None = None,
    feasible: bool | None = None,
) -> tuple[np.ndarray, int]:
    """The better of ``parts`` and the :func:`floor_split`.

    Ranked by feasibility under ``ceilings`` (one per part), then by
    communication volume; a tie keeps ``parts``.  ``volume`` is the
    volume of ``parts`` and ``feasible`` whether it honours
    ``ceilings``, when the caller already knows them.  Returns the
    chosen part vector and its volume.
    """
    ceilings = np.asarray(ceilings, dtype=np.int64)

    def infeasible(cand: np.ndarray) -> bool:
        sizes = np.bincount(cand, minlength=ceilings.size)
        return bool((sizes > ceilings).any())

    if volume is None:
        volume = communication_volume(matrix, parts)
    key = (infeasible(parts) if feasible is None else not feasible,
           int(volume))
    split, split_volume = floor_split(matrix, ceilings)
    if (infeasible(split), split_volume) < key:
        return split, split_volume
    return parts, int(volume)
