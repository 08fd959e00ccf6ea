"""Communication volume and load-balance metrics (paper eqns (1)–(3)).

A *nonzero partitioning* assigns every canonical nonzero of a matrix to one
of ``p`` parts.  During parallel SpMV, a row or column touched by
``lambda`` distinct parts costs ``lambda - 1`` communicated words (eqn (2));
the total communication volume is the sum over all rows and columns
(eqn (3)).  The load-imbalance constraint is
``max_k |A_k| <= (1 + eps) * N / p`` (eqn (1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitioningError
from repro.kernels.spmv import axis_lambdas, axis_pair_count
from repro.sparse.matrix import SparseMatrix
from repro.utils.balance import max_allowed_part_size as _max_allowed
from repro.utils.validation import check_pos_int

__all__ = [
    "check_nonzero_parts",
    "row_col_lambdas",
    "communication_volume",
    "volume_breakdown",
    "part_sizes",
    "max_part_size",
    "imbalance",
    "load_balance",
    "max_allowed_part_size",
    "satisfies_balance",
]


def check_nonzero_parts(
    matrix: SparseMatrix, parts: np.ndarray, nparts: int | None = None
) -> np.ndarray:
    """Validate a nonzero part vector and return it as ``int64``."""
    parts = np.asarray(parts)
    if parts.shape != (matrix.nnz,):
        raise PartitioningError(
            f"parts must have shape ({matrix.nnz},), got {parts.shape}"
        )
    parts = parts.astype(np.int64, copy=False)
    if parts.size:
        if int(parts.min()) < 0:
            raise PartitioningError("negative part id in nonzero partitioning")
        if nparts is not None and int(parts.max()) >= nparts:
            raise PartitioningError(
                f"part id {int(parts.max())} out of range for nparts={nparts}"
            )
    return parts


def _axis_lambdas(index: np.ndarray, parts: np.ndarray, extent: int) -> np.ndarray:
    """Number of distinct parts touching each row (or column) index.

    Delegates to the flat-array group-by kernel (boolean scatter — no
    per-call sorting; see :func:`repro.kernels.spmv.axis_lambdas`).
    """
    return axis_lambdas(index, parts, extent)


def row_col_lambdas(
    matrix: SparseMatrix, parts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row and per-column connectivity ``lambda`` (0 for empty lines)."""
    parts = check_nonzero_parts(matrix, parts)
    m, n = matrix.shape
    return (
        _axis_lambdas(matrix.rows, parts, m),
        _axis_lambdas(matrix.cols, parts, n),
    )


def communication_volume(matrix: SparseMatrix, parts: np.ndarray) -> int:
    """Total SpMV communication volume ``V`` of a nonzero partitioning
    (paper eqn (3)): ``sum_i (lambda_row_i - 1) + sum_j (lambda_col_j - 1)``
    over non-empty rows and columns.

    Every non-empty line has ``lambda >= 1``, so ``V`` is the number of
    distinct ``(row, part)`` and ``(column, part)`` pairs minus the
    number of non-empty rows and columns: two pair counts
    (:func:`repro.kernels.spmv.axis_pair_count`), with no per-line
    ``lambda`` array.
    """
    parts = check_nonzero_parts(matrix, parts)
    if parts.size == 0:
        return 0
    m, n = matrix.shape
    nparts = int(parts.max()) + 1
    pairs = axis_pair_count(matrix.rows, parts, m, nparts) + axis_pair_count(
        matrix.cols, parts, n, nparts
    )
    nonempty = np.count_nonzero(matrix.nnz_per_row()) + np.count_nonzero(
        matrix.nnz_per_col()
    )
    return pairs - int(nonempty)


@dataclass(frozen=True)
class VolumeBreakdown:
    """Communication volume split by phase.

    ``fanin`` is the row contribution (partial sums), ``fanout`` the column
    contribution (input vector words); ``total = fanin + fanout``.
    """

    fanin: int
    fanout: int

    @property
    def total(self) -> int:
        return self.fanin + self.fanout


def volume_breakdown(matrix: SparseMatrix, parts: np.ndarray) -> VolumeBreakdown:
    """Fan-in (rows) / fan-out (columns) decomposition of the volume."""
    row_l, col_l = row_col_lambdas(matrix, parts)
    return VolumeBreakdown(
        fanin=int(np.maximum(row_l - 1, 0).sum()),
        fanout=int(np.maximum(col_l - 1, 0).sum()),
    )


def part_sizes(matrix: SparseMatrix, parts: np.ndarray, nparts: int) -> np.ndarray:
    """Nonzeros assigned to each part (length ``nparts``)."""
    nparts = check_pos_int(nparts, "nparts")
    parts = check_nonzero_parts(matrix, parts, nparts)
    return np.bincount(parts, minlength=nparts).astype(np.int64)


def max_part_size(matrix: SparseMatrix, parts: np.ndarray, nparts: int) -> int:
    """``max_k |A_k|``, the parallel multiplication bottleneck."""
    return int(part_sizes(matrix, parts, nparts).max(initial=0))


def imbalance(matrix: SparseMatrix, parts: np.ndarray, nparts: int) -> float:
    """Achieved load imbalance ``max_k |A_k| / (N / p) - 1``.

    Zero means perfect balance; the constraint of eqn (1) is
    ``imbalance <= eps``.
    """
    if matrix.nnz == 0:
        return 0.0
    return load_balance(part_sizes(matrix, parts, nparts), matrix.nnz)[1]


def load_balance(sizes: np.ndarray, nnz: int) -> tuple[int, float]:
    """``max_k |A_k|`` and the :func:`imbalance` of the per-part
    ``sizes`` (a :func:`part_sizes` vector over ``nnz`` nonzeros), so a
    caller that needs both pays one :func:`part_sizes` call."""
    biggest = int(sizes.max(initial=0))
    if nnz == 0:
        return biggest, 0.0
    return biggest, biggest / (nnz / sizes.size) - 1.0


def max_allowed_part_size(nnz: int, nparts: int, eps: float) -> int:
    """The integer load ceiling implied by eqn (1).

    ``floor((1 + eps) * N / p)``, clamped from below by ``ceil(N / p)`` so
    the constraint is always satisfiable (a perfectly balanced integer
    partitioning must be legal — the same clamp Mondriaan applies).

    Thin alias of :func:`repro.utils.balance.max_allowed_part_size`,
    re-exported here because eqn (1) is a matrix-level concept.
    """
    return _max_allowed(nnz, nparts, eps)


def satisfies_balance(
    matrix: SparseMatrix, parts: np.ndarray, nparts: int, eps: float
) -> bool:
    """Whether the partitioning satisfies the eqn-(1) constraint (with the
    integer clamp of :func:`max_allowed_part_size`)."""
    return max_part_size(matrix, parts, nparts) <= max_allowed_part_size(
        matrix.nnz, nparts, eps
    )
