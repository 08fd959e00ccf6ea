"""Canonical COO sparse matrix.

:class:`SparseMatrix` is the package's single sparse-matrix type.  It stores
the nonzeros in *canonical order* — lexicographically sorted by ``(row,
col)`` with duplicates summed — and is immutable: the arrays are set to
read-only so a matrix can safely be shared between partitioning runs.

The canonical ordering matters beyond hygiene: a *nonzero partitioning* in
this package is an integer array ``parts`` with ``parts[k]`` the part of the
``k``-th canonical nonzero.  Every module (the splitter, the medium-grain
mapper, the volume calculator, the SpMV simulator) indexes nonzeros the same
way, so partition vectors can flow between them without translation.

Design notes
------------
Values are kept (for the SpMV simulator and MatrixMarket round-trips) but the
partitioning problem only depends on the *pattern*; ``SparseMatrix.pattern()``
drops values.  Rows/cols use ``int64`` throughout — matrices here are far
from the 2**31 limit, but mixing index dtypes is a classic source of silent
bugs in sparse code, so one dtype is enforced at the boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Tuple

import numpy as np

from repro.errors import SparseFormatError
from repro.utils.validation import check_axis_pair

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["SparseMatrix"]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class SparseMatrix:
    """An immutable sparse matrix in canonical COO form.

    Parameters
    ----------
    shape:
        Pair ``(m, n)`` of positive matrix dimensions.
    rows, cols:
        Integer arrays of equal length with the coordinates of each nonzero;
        entries must satisfy ``0 <= rows[k] < m`` and ``0 <= cols[k] < n``.
    vals:
        Optional float array of nonzero values; defaults to all ones.
        Explicitly stored zeros are kept (MatrixMarket files may contain
        them) unless ``prune`` is true.
    sum_duplicates:
        If true (default), duplicate coordinates are merged by summing their
        values.  If false, duplicates raise :class:`SparseFormatError`.
    prune:
        If true, entries whose value is exactly ``0.0`` are dropped after
        duplicate merging.  Default false: pattern-based algorithms treat an
        explicit zero as a nonzero, matching Mondriaan's behaviour.
    """

    __slots__ = ("_shape", "_rows", "_cols", "_vals", "_cache")

    def __init__(
        self,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: Optional[np.ndarray] = None,
        *,
        sum_duplicates: bool = True,
        prune: bool = False,
    ) -> None:
        m, n = check_axis_pair(shape)
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise SparseFormatError(
                f"rows and cols must have equal length, got {rows.size} and {cols.size}"
            )
        if vals is None:
            vals = np.ones(rows.size, dtype=np.float64)
        else:
            vals = np.asarray(vals, dtype=np.float64).ravel()
            if vals.shape != rows.shape:
                raise SparseFormatError(
                    f"vals length {vals.size} does not match {rows.size} coordinates"
                )
        if rows.size:
            if rows.min(initial=0) < 0 or rows.max(initial=0) >= m:
                raise SparseFormatError(f"row indices out of range for m={m}")
            if cols.min(initial=0) < 0 or cols.max(initial=0) >= n:
                raise SparseFormatError(f"column indices out of range for n={n}")

        # Canonicalize: lexsort by (row, col); merge duplicates.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if same.any():
                if not sum_duplicates:
                    raise SparseFormatError("duplicate coordinates present")
                # Segment-sum values over runs of identical coordinates.
                first = np.concatenate(([True], ~same))
                seg = np.cumsum(first) - 1
                merged = np.zeros(int(seg[-1]) + 1, dtype=np.float64)
                np.add.at(merged, seg, vals)
                rows, cols, vals = rows[first], cols[first], merged
        if prune and vals.size:
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]

        self._shape = (m, n)
        self._rows = _readonly(rows)
        self._cols = _readonly(cols)
        self._vals = _readonly(vals)
        self._cache: dict = {}

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """Matrix dimensions ``(m, n)``."""
        return self._shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros ``N``."""
        return self._rows.size

    @property
    def rows(self) -> np.ndarray:
        """Row index of each canonical nonzero (read-only ``int64``)."""
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        """Column index of each canonical nonzero (read-only ``int64``)."""
        return self._cols

    @property
    def vals(self) -> np.ndarray:
        """Value of each canonical nonzero (read-only ``float64``)."""
        return self._vals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        m, n = self._shape
        return f"SparseMatrix(shape=({m}, {n}), nnz={self.nnz})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self._shape == other._shape
            and np.array_equal(self._rows, other._rows)
            and np.array_equal(self._cols, other._cols)
            and np.array_equal(self._vals, other._vals)
        )

    def __hash__(self) -> int:
        key = self._cache.get("hash")
        if key is None:
            key = hash(
                (
                    self._shape,
                    self._rows.tobytes(),
                    self._cols.tobytes(),
                    self._vals.tobytes(),
                )
            )
            self._cache["hash"] = key
        return key

    # ------------------------------------------------------------------ #
    # Derived structure (cached)
    # ------------------------------------------------------------------ #
    def nnz_per_row(self) -> np.ndarray:
        """``nzr(i)``: number of nonzeros in each row (length ``m``)."""
        out = self._cache.get("nnz_per_row")
        if out is None:
            out = _readonly(np.bincount(self._rows, minlength=self.nrows))
            self._cache["nnz_per_row"] = out
        return out

    def nnz_per_col(self) -> np.ndarray:
        """``nzc(j)``: number of nonzeros in each column (length ``n``)."""
        out = self._cache.get("nnz_per_col")
        if out is None:
            out = _readonly(np.bincount(self._cols, minlength=self.ncols))
            self._cache["nnz_per_col"] = out
        return out

    def row_ptr(self) -> np.ndarray:
        """CSR-style row pointer into the canonical nonzero arrays.

        ``row_ptr()[i] : row_ptr()[i+1]`` is the canonical index range of
        row ``i``'s nonzeros (canonical order is row-major, so this is a
        contiguous slice).
        """
        out = self._cache.get("row_ptr")
        if out is None:
            ptr = np.zeros(self.nrows + 1, dtype=np.int64)
            np.cumsum(self.nnz_per_row(), out=ptr[1:])
            out = _readonly(ptr)
            self._cache["row_ptr"] = out
        return out

    def col_order(self) -> np.ndarray:
        """Permutation of canonical indices sorting nonzeros by (col, row)."""
        out = self._cache.get("col_order")
        if out is None:
            out = _readonly(np.lexsort((self._rows, self._cols)))
            self._cache["col_order"] = out
        return out

    def col_ptr(self) -> np.ndarray:
        """CSC-style column pointer into ``col_order()``.

        ``col_order()[col_ptr()[j] : col_ptr()[j+1]]`` are the canonical
        indices of column ``j``'s nonzeros.
        """
        out = self._cache.get("col_ptr")
        if out is None:
            ptr = np.zeros(self.ncols + 1, dtype=np.int64)
            np.cumsum(self.nnz_per_col(), out=ptr[1:])
            out = _readonly(ptr)
            self._cache["col_ptr"] = out
        return out

    def spmv_state(self):
        """The per-matrix SpMV/volume evaluation state (cached).

        Holds the simulator's default input vector, its sequential
        reference product, and reusable scratch buffers — everything
        repeated volume/SpMV evaluation of this matrix would otherwise
        re-derive per call (see :class:`repro.kernels.spmv.SpMVState`;
        immutability makes the cache safe, like the derived-structure
        accessors above).
        """
        # Late import: repro.kernels.spmv imports this module.
        from repro.kernels.spmv import SpMVState

        return SpMVState.for_matrix(self)

    # ------------------------------------------------------------------ #
    # Constructors / converters
    # ------------------------------------------------------------------ #
    @classmethod
    def from_canonical(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> "SparseMatrix":
        """Trusted zero-copy constructor for *already canonical* arrays.

        Skips validation, the lexsort, and duplicate merging, and does
        not copy: the given arrays (typically views of a shared-memory
        segment, see :class:`repro.utils.executor.MatrixHandle`) are
        marked read-only and adopted directly.  The caller guarantees the
        canonical invariant — ``(row, col)`` strictly lexicographically
        increasing, indices in range, matching dtypes/lengths; arrays
        that came out of another :class:`SparseMatrix` satisfy it by
        construction.
        """
        self = object.__new__(cls)
        self._shape = tuple(shape)
        self._rows = _readonly(rows)
        self._cols = _readonly(cols)
        self._vals = _readonly(vals)
        self._cache = {}
        return self

    @classmethod
    def from_scipy(cls, a: sp.spmatrix | sp.sparray) -> "SparseMatrix":
        """Build from any SciPy sparse matrix/array (pattern + values)."""
        # SciPy is imported here, not at module level: it is the only
        # user, and the import costs most of ``import repro``.
        import scipy.sparse as sp

        coo = sp.coo_matrix(a)
        return cls(coo.shape, coo.row, coo.col, coo.data)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseMatrix":
        """Build from a dense 2-D array, storing its nonzero entries."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise SparseFormatError(f"dense input must be 2-D, got {a.ndim}-D")
        rows, cols = np.nonzero(a)
        return cls(a.shape, rows, cols, a[rows, cols])

    @classmethod
    def eye(cls, n: int) -> "SparseMatrix":
        """The ``n x n`` identity matrix."""
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), idx, idx, np.ones(n))

    def to_scipy(self, fmt: str = "csr") -> sp.spmatrix:
        """Convert to a SciPy sparse matrix (``csr``, ``csc``, or ``coo``)."""
        import scipy.sparse as sp

        coo = sp.coo_matrix(
            (self._vals, (self._rows, self._cols)), shape=self._shape
        )
        if fmt == "coo":
            return coo
        if fmt == "csr":
            return coo.tocsr()
        if fmt == "csc":
            return coo.tocsc()
        raise ValueError(f"unsupported format {fmt!r}")

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (intended for small matrices/tests)."""
        out = np.zeros(self._shape, dtype=np.float64)
        out[self._rows, self._cols] = self._vals
        return out

    # ------------------------------------------------------------------ #
    # Transformations (each returns a new SparseMatrix)
    # ------------------------------------------------------------------ #
    def transpose(self) -> "SparseMatrix":
        """Return ``A^T``."""
        m, n = self._shape
        return SparseMatrix((n, m), self._cols, self._rows, self._vals)

    @property
    def T(self) -> "SparseMatrix":
        return self.transpose()

    def pattern(self) -> "SparseMatrix":
        """Return the pattern matrix (same coordinates, all values 1)."""
        return SparseMatrix((self._shape), self._rows, self._cols, None)

    def with_values(self, vals: np.ndarray) -> "SparseMatrix":
        """Return a copy with ``vals[k]`` as value of canonical nonzero ``k``."""
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if vals.size != self.nnz:
            raise SparseFormatError(
                f"expected {self.nnz} values, got {vals.size}"
            )
        return SparseMatrix(self._shape, self._rows, self._cols, vals)

    def select(self, mask: np.ndarray) -> "SparseMatrix":
        """Submatrix (same shape) keeping canonical nonzeros where ``mask``.

        ``mask`` may be boolean (length ``nnz``) or an integer index array.
        The result preserves values; its canonical order is the induced
        order, which equals the original relative order.
        """
        mask = np.asarray(mask)
        if mask.dtype == bool:
            if mask.size != self.nnz:
                raise SparseFormatError(
                    f"boolean mask length {mask.size} != nnz {self.nnz}"
                )
            idx = np.flatnonzero(mask)
        else:
            idx = mask.astype(np.int64, copy=False)
            if idx.size and (idx.min() < 0 or idx.max() >= self.nnz):
                raise SparseFormatError("index mask out of range")
        if idx.size < 2 or bool((idx[1:] > idx[:-1]).all()):
            # Strictly increasing indices (every boolean mask, and the
            # index sets recursive bisection hands around) induce a
            # submatrix that is canonical by construction — unique
            # (row, col) pairs in lexicographic order — so the O(n log n)
            # re-canonicalization of the constructor can be skipped.
            return SparseMatrix.from_canonical(
                self._shape, self._rows[idx], self._cols[idx], self._vals[idx]
            )
        return SparseMatrix(
            self._shape, self._rows[idx], self._cols[idx], self._vals[idx]
        )

    def permuted(self, row_perm: np.ndarray, col_perm: np.ndarray) -> "SparseMatrix":
        """Return ``P A Q`` where ``row_perm[i]`` is the new index of row ``i``
        and ``col_perm[j]`` of column ``j`` (both must be permutations)."""
        row_perm = _check_perm(row_perm, self.nrows, "row_perm")
        col_perm = _check_perm(col_perm, self.ncols, "col_perm")
        return SparseMatrix(
            self._shape, row_perm[self._rows], col_perm[self._cols], self._vals
        )

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Sequential reference SpMV ``u = A v`` (used to validate the simulator)."""
        v = np.asarray(v, dtype=np.float64).ravel()
        if v.size != self.ncols:
            raise SparseFormatError(
                f"vector length {v.size} != ncols {self.ncols}"
            )
        u = np.zeros(self.nrows, dtype=np.float64)
        np.add.at(u, self._rows, self._vals * v[self._cols])
        return u

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def triplets(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(i, j, value)`` in canonical order (for small matrices)."""
        for i, j, v in zip(self._rows, self._cols, self._vals):
            yield int(i), int(j), float(v)


def _check_perm(perm: np.ndarray, n: int, name: str) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64).ravel()
    if perm.size != n:
        raise SparseFormatError(f"{name} must have length {n}, got {perm.size}")
    seen = np.zeros(n, dtype=bool)
    if perm.size and (perm.min() < 0 or perm.max() >= n):
        raise SparseFormatError(f"{name} entries out of range")
    seen[perm] = True
    if not seen.all():
        raise SparseFormatError(f"{name} is not a permutation")
    return perm
