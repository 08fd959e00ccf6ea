"""Input/output vector distribution for parallel SpMV.

After the nonzeros are partitioned, every input component ``v_j`` and
output component ``u_i`` needs an owner processor.  The total volume is
fixed by the matrix partitioning as long as each owner is chosen *inside*
the set of parts touching that column/row (then column ``j`` costs exactly
``lambda_j - 1`` fan-out words and row ``i`` costs ``lambda_i - 1`` fan-in
words — eqn (2)).  The freedom that remains is *which* member of the set
owns the component, which only affects the per-processor (BSP) balance of
Table II.

:func:`distribute_vectors` implements a greedy balancer: components are
processed in decreasing connectivity order and each is assigned to the
candidate part that minimizes the phase's tentative bottleneck — the
standard greedy used for Mondriaan-style vector distribution.

The incidence lists and the greedy loop itself run through
:mod:`repro.kernels.spmv`: incidences come from the boolean-scatter
group-by (no per-call lexsort), singleton lines are assigned vectorized,
and only the cut lines go through the sequential greedy kernel.  The
``equal=True`` path applies the same split: forced zero-cost indices are
assigned vectorized and only contended indices run through its greedy
loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.volume import check_nonzero_parts
from repro.errors import SimulationError
from repro.kernels.spmv import axis_incidences, greedy_owners_reference
from repro.sparse.matrix import SparseMatrix
from repro.utils.validation import check_pos_int

__all__ = ["VectorDistribution", "distribute_vectors"]


@dataclass(frozen=True)
class VectorDistribution:
    """Owners of the vector components.

    Attributes
    ----------
    input_owner:
        Part owning ``v_j`` for each column ``j`` (length ``n``).
    output_owner:
        Part owning ``u_i`` for each row ``i`` (length ``m``).
    nparts:
        Number of parts.
    """

    input_owner: np.ndarray
    output_owner: np.ndarray
    nparts: int

    def validate_against(self, matrix: SparseMatrix) -> None:
        """Sanity-check array lengths and part ranges for ``matrix``."""
        m, n = matrix.shape
        if self.input_owner.shape != (n,):
            raise SimulationError(
                f"input_owner must have length {n}, got "
                f"{self.input_owner.shape}"
            )
        if self.output_owner.shape != (m,):
            raise SimulationError(
                f"output_owner must have length {m}, got "
                f"{self.output_owner.shape}"
            )
        for name, arr in (
            ("input_owner", self.input_owner),
            ("output_owner", self.output_owner),
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= self.nparts):
                raise SimulationError(f"{name} contains out-of-range parts")


def _axis_part_sets(
    index: np.ndarray, parts: np.ndarray, extent: int, nparts: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """CSR lists of the distinct parts touching each row/column index.

    Returns ``(ptr, flat)`` with the parts of line ``i`` in
    ``flat[ptr[i]:ptr[i+1]]`` (thin alias of the shared group-by kernel).
    """
    return axis_incidences(index, parts, extent, nparts)


def distribute_vectors(
    matrix: SparseMatrix,
    parts: np.ndarray,
    nparts: int,
    *,
    equal: bool = False,
) -> VectorDistribution:
    """Assign owners to all input/output vector components.

    With ``equal=False`` (default) owners always lie inside the part set
    touching the component's column/row (when non-empty), so the simulated
    word count equals the communication volume of eqn (3).

    With ``equal=True`` (square matrices only) the input and output
    distributions are forced identical — ``owner(v_j) == owner(u_j)`` —
    the constraint iterative solvers impose and that the enhanced models
    of Ucar & Aykanat (paper ref. [7]) optimize for.  The owner of index
    ``j`` is drawn from the intersection of the column-``j`` and
    row-``j`` part sets when possible; otherwise from their union, which
    costs extra communicated words exactly as the paper notes ("may cause
    extra communication for matrices with zeros on the main diagonal").
    Use :func:`expected_phase_words` to account for the surplus.
    """
    nparts = check_pos_int(nparts, "nparts")
    parts = check_nonzero_parts(matrix, parts, nparts)
    m, n = matrix.shape
    col_ptr, col_parts = _axis_part_sets(matrix.cols, parts, n, nparts)
    row_ptr, row_parts = _axis_part_sets(matrix.rows, parts, m, nparts)
    fallback = np.arange(nparts, dtype=np.int64)
    if equal:
        if m != n:
            raise SimulationError(
                "equal input/output distribution requires a square matrix"
            )
        owner = _greedy_equal_owners(
            col_ptr, col_parts, row_ptr, row_parts, n, nparts, fallback
        )
        dist = VectorDistribution(
            input_owner=owner, output_owner=owner.copy(), nparts=nparts
        )
    else:
        input_owner = greedy_owners_reference(
            col_ptr, col_parts, n, nparts, fallback
        )
        output_owner = greedy_owners_reference(
            row_ptr, row_parts, m, nparts, fallback
        )
        dist = VectorDistribution(
            input_owner=input_owner,
            output_owner=output_owner,
            nparts=nparts,
        )
    dist.validate_against(matrix)
    return dist


def _greedy_equal_owners(
    col_ptr: np.ndarray,
    col_flat: np.ndarray,
    row_ptr: np.ndarray,
    row_flat: np.ndarray,
    extent: int,
    nparts: int,
    fallback_balance: np.ndarray,
) -> np.ndarray:
    """One common owner per index, minimizing surplus words first, load
    second.

    Choosing owner ``s`` for index ``j`` costs ``|P_j \\ {s}|`` fan-out
    sends plus ``|R_j \\ {s}|`` fan-in receives; any ``s`` in the
    intersection achieves the eqn-(3) minimum for that index.

    Indices whose column and row sets union to a single part are *forced*
    (the owner has no alternative) and *free* (both set differences are
    empty, so they never touch the running loads) — they are assigned
    vectorized, and only the contended indices go through the sequential
    greedy loop, in index order.  Because the hoisted indices contribute
    zero load, the loop sees the exact load sequence of the historical
    all-indices loop: the result is bit-identical.
    """
    owners = np.full(extent, -1, dtype=np.int64)
    col_lam = np.diff(col_ptr)
    row_lam = np.diff(row_ptr)
    col_single = col_lam == 1
    row_single = row_lam == 1
    first_col = np.full(extent, -1, dtype=np.int64)
    first_col[col_single] = col_flat[col_ptr[:-1][col_single]]
    first_row = np.full(extent, -1, dtype=np.int64)
    first_row[row_single] = row_flat[row_ptr[:-1][row_single]]
    forced = (
        (col_single & (row_lam == 0))
        | (row_single & (col_lam == 0))
        | (col_single & row_single & (first_col == first_row))
    )
    owners[forced] = np.where(
        col_single[forced], first_col[forced], first_row[forced]
    )
    contended = np.flatnonzero(~forced & (col_lam + row_lam > 0))
    if contended.size:
        load = [0] * nparts
        col_ptr_l = col_ptr.tolist()
        row_ptr_l = row_ptr.tolist()
        for j in contended.tolist():
            cols = set(col_flat[col_ptr_l[j] : col_ptr_l[j + 1]].tolist())
            rows = set(row_flat[row_ptr_l[j] : row_ptr_l[j + 1]].tolist())
            both = cols & rows
            candidates = both or (cols | rows)
            s = min(candidates, key=lambda p: (load[p], p))
            owners[j] = s
            load[s] += len(cols - {s}) + len(rows - {s})
    empty = owners < 0
    if empty.any():
        idx = np.flatnonzero(empty)
        owners[idx] = fallback_balance[np.arange(idx.size) % nparts]
    return owners


def expected_phase_words(
    matrix: SparseMatrix,
    parts: np.ndarray,
    dist: VectorDistribution,
) -> tuple[int, int]:
    """Exact fan-out/fan-in word counts implied by a vector distribution.

    For any (not necessarily sets-respecting) distribution: column ``j``
    moves ``|P_j \\ {owner(v_j)}|`` words in fan-out and row ``i`` moves
    ``|R_i \\ {owner(u_i)}|`` words in fan-in.  Equals the eqn-(3)
    breakdown whenever owners lie inside the touching sets.
    """
    parts = check_nonzero_parts(matrix, parts, dist.nparts)
    m, n = matrix.shape
    totals = []
    for index, owner, extent in (
        (matrix.cols, dist.input_owner, n),
        (matrix.rows, dist.output_owner, m),
    ):
        ptr, flat = _axis_part_sets(index, parts, extent, dist.nparts)
        line_of = np.repeat(np.arange(extent), np.diff(ptr))
        foreign = flat != owner[line_of]
        totals.append(int(np.count_nonzero(foreign)))
    return totals[0], totals[1]
