"""The medium-grain composite hypergraph model (paper Section III-A).

Given a split ``A = Ar + Ac``, the paper forms the ``(m+n) x (m+n)``
composite matrix

.. code-block:: text

    B = [ I_n   (Ar)^T ]
        [ Ac    I_m    ]

whose diagonal entries are *dummies* (they count for the communication
volume but not for the load), and applies the 1D row-net model to ``B``:

* vertex ``j < n``  — *column group* ``j``: the nonzeros of column ``j``
  of ``Ac``; weight ``nzc_Ac(j)`` (the dummy is excluded, paper Fig. 1);
* vertex ``n + i``  — *row group* ``i``: the nonzeros of row ``i`` of
  ``Ar``; weight ``nzr_Ar(i)``;
* net ``j < n`` (row ``j`` of ``B``) — the *column net* of column ``j`` of
  ``A``: the column-group vertex ``j`` plus the row groups of all ``Ar``
  nonzeros in column ``j``;
* net ``n + i`` — the *row net* of row ``i``: the row-group vertex plus the
  column groups of all ``Ac`` nonzeros in row ``i``.

Pure-dummy columns/rows of ``B`` (empty groups / singleton nets) are
removed, exactly as the paper prescribes; with that convention the
connectivity-1 cut of the hypergraph **equals** the communication volume of
the induced nonzero partitioning of ``A`` (eqn (6)), and part weights equal
nonzero counts, so eqn (1) transfers verbatim.  Both facts are enforced by
property tests.

:func:`assemble_b_matrix` materializes ``B`` explicitly (dummies included)
for tests, documentation, and the Fig. 3 demo; the hypergraph builder never
forms it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import PartitioningError
from repro.core.split import Split, majority_parts
from repro.hypergraph.hypergraph import Hypergraph
from repro.sparse.matrix import SparseMatrix

__all__ = ["MediumGrainInstance", "build_medium_grain", "assemble_b_matrix"]


@dataclass(frozen=True)
class MediumGrainInstance:
    """A medium-grain hypergraph plus its group/vertex bookkeeping.

    Vertices are numbered: active column groups first (in increasing column
    order), then active row groups (in increasing row order).

    Attributes
    ----------
    split:
        The underlying split ``A = Ar + Ac``.
    hypergraph:
        The composite row-net hypergraph of ``B`` with empty groups and
        singleton nets removed.
    col_group_vertex:
        Length-``n`` array: vertex id of column ``j``'s group, or ``-1``
        if column ``j`` has no ``Ac`` nonzeros.
    row_group_vertex:
        Length-``m`` array: vertex id of row ``i``'s group, or ``-1``.
    """

    split: Split
    hypergraph: Hypergraph
    col_group_vertex: np.ndarray
    row_group_vertex: np.ndarray

    @property
    def matrix(self) -> SparseMatrix:
        return self.split.matrix

    # ------------------------------------------------------------------ #
    @cached_property
    def _nonzero_groups(self) -> np.ndarray:
        """Group-vertex id per canonical nonzero (``Ar`` entries map to
        their row group, ``Ac`` entries to their column group) — the
        shared index both lift directions are built on.  Built once per
        instance and read-only."""
        a = self.matrix
        ar = self.split.ar_mask
        group = np.empty(a.nnz, dtype=np.int64)
        group[ar] = self.row_group_vertex[a.rows[ar]]
        group[~ar] = self.col_group_vertex[a.cols[~ar]]
        group.flags.writeable = False
        return group

    def nonzero_parts(self, vertex_parts: np.ndarray) -> np.ndarray:
        """Map a vertex partitioning of ``B`` back to the nonzeros of ``A``
        (paper eqn (5)): an ``Ar`` nonzero follows its row group, an ``Ac``
        nonzero its column group."""
        vertex_parts = np.asarray(vertex_parts)
        if vertex_parts.shape != (self.hypergraph.nverts,):
            raise PartitioningError(
                f"vertex_parts must have shape ({self.hypergraph.nverts},), "
                f"got {vertex_parts.shape}"
            )
        vertex_parts = vertex_parts.astype(np.int64, copy=False)
        return vertex_parts[self._nonzero_groups]

    def vertex_parts_from_nonzero(self, parts: np.ndarray) -> np.ndarray:
        """Lift a nonzero partitioning that is *constant on every group* to
        a vertex partitioning of ``B`` (the inverse of
        :meth:`nonzero_parts`).

        Raises
        ------
        PartitioningError
            If some group contains nonzeros from different parts — such a
            partitioning is not expressible under this split.
        """
        parts = np.asarray(parts)
        a = self.matrix
        if parts.shape != (a.nnz,):
            raise PartitioningError(
                f"parts must have shape ({a.nnz},), got {parts.shape}"
            )
        parts = parts.astype(np.int64, copy=False)
        nv = self.hypergraph.nverts
        vparts = np.full(nv, -1, dtype=np.int64)
        group = self._nonzero_groups
        # Fancy assignment keeps the last writer per group; constancy is
        # then verified in one vectorized comparison.
        vparts[group] = parts
        if not np.array_equal(vparts[group], parts):
            raise PartitioningError(
                "nonzero partitioning is not constant on the split's groups"
            )
        # Isolated-but-active vertices cannot exist (an active group holds
        # at least one nonzero, which wrote its part above); any remaining
        # -1 would be a construction bug.
        if nv and int(vparts.min()) < 0:
            raise PartitioningError(
                "internal error: some medium-grain vertex received no part"
            )
        return vparts

    def vertex_parts_majority(
        self, parts: np.ndarray, nparts: int
    ) -> np.ndarray:
        """Lift *any* nonzero partitioning to a vertex partitioning by
        per-group majority vote (ties to the lowest part id).

        The tolerant counterpart of :meth:`vertex_parts_from_nonzero`:
        groups whose nonzeros disagree take their most frequent part
        instead of raising.  Exact (identical to the strict lift) when
        the partitioning is constant on every group — the k-way iterate
        loop uses this to re-encode partitionings no split can express
        exactly (see :func:`repro.core.split.split_from_kway`).
        """
        parts = np.asarray(parts)
        a = self.matrix
        if parts.shape != (a.nnz,):
            raise PartitioningError(
                f"parts must have shape ({a.nnz},), got {parts.shape}"
            )
        parts = parts.astype(np.int64, copy=False)
        k = int(nparts)
        if parts.size and (parts.min() < 0 or parts.max() >= k):
            raise PartitioningError(
                f"part ids must lie in [0, {k})"
            )
        # Every active group holds at least one nonzero, so each group's
        # vote is over a non-empty set and the argmax (ties to the
        # lowest part id, same discipline as the split-side votes) is a
        # genuine majority.
        return majority_parts(
            self._nonzero_groups, parts, self.hypergraph.nverts, k
        )


def build_medium_grain(split: Split) -> MediumGrainInstance:
    """Construct the composite hypergraph for a split (vectorized).

    The hypergraph has one vertex per *active* group (``<= m + n``; often
    far fewer — the paper credits this shrinkage for the medium-grain
    method's speed) and one net per row/column of ``A`` that retains at
    least two pins after dummy removal.
    """
    a = split.matrix
    m, n = a.shape
    ar = split.ar_mask
    ac = ~ar

    ac_per_col = split.col_group_sizes()
    ar_per_row = split.row_group_sizes()
    col_active = ac_per_col > 0
    row_active = ar_per_row > 0
    n_cg = int(col_active.sum())
    n_rg = int(row_active.sum())
    nverts = n_cg + n_rg

    col_group_vertex = np.full(n, -1, dtype=np.int64)
    col_group_vertex[col_active] = np.arange(n_cg, dtype=np.int64)
    row_group_vertex = np.full(m, -1, dtype=np.int64)
    row_group_vertex[row_active] = n_cg + np.arange(n_rg, dtype=np.int64)

    vwgt = np.concatenate(
        [ac_per_col[col_active], ar_per_row[row_active]]
    ).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Pins.  Net ids: column nets are 0..n-1, row nets are n..n+m-1.
    # Column net j: [cg(j) if active] + [rg(i) for a_ij in Ar].
    # Row net  n+i: [rg(i) if active] + [cg(j) for a_ij in Ac].
    # ------------------------------------------------------------------ #
    rows_ar = a.rows[ar]
    cols_ar = a.cols[ar]
    rows_ac = a.rows[ac]
    cols_ac = a.cols[ac]

    net_ids = np.concatenate(
        [
            np.flatnonzero(col_active),            # cg diagonal pins
            cols_ar,                                # Ar pins in column nets
            n + np.flatnonzero(row_active),         # rg diagonal pins
            n + rows_ac,                            # Ac pins in row nets
        ]
    )
    pin_ids = np.concatenate(
        [
            col_group_vertex[col_active],
            row_group_vertex[rows_ar],
            row_group_vertex[row_active],
            col_group_vertex[cols_ac],
        ]
    )

    counts = np.bincount(net_ids, minlength=m + n)
    live = counts >= 2  # singleton nets are the pure-dummy rows of B
    keep = live[net_ids]
    net_ids = net_ids[keep]
    pin_ids = pin_ids[keep]
    live_counts = counts[live]
    xpins = np.zeros(live_counts.size + 1, dtype=np.int64)
    np.cumsum(live_counts, out=xpins[1:])
    order = np.argsort(net_ids, kind="stable")
    pins = pin_ids[order]

    h = Hypergraph(nverts, xpins, pins, vwgt=vwgt, validate=False)
    return MediumGrainInstance(
        split=split,
        hypergraph=h,
        col_group_vertex=col_group_vertex,
        row_group_vertex=row_group_vertex,
    )


def assemble_b_matrix(split: Split, *, drop_pure_dummies: bool = False) -> SparseMatrix:
    """Materialize the composite matrix ``B`` of eqn (4), dummies included.

    Layout: rows/columns ``0..n-1`` correspond to the columns of ``A``
    (column groups), rows/columns ``n..n+m-1`` to the rows of ``A`` (row
    groups).  Dummy diagonal entries carry value 1; the ``(Ar)^T`` and
    ``Ac`` blocks carry the original values of ``A``.

    Parameters
    ----------
    split:
        The split defining ``Ar`` and ``Ac``.
    drop_pure_dummies:
        When true, diagonal entries of rows/columns of ``B`` that would
        otherwise be empty (inactive groups with no incident nonzeros) are
        omitted — the reduced ``B`` the hypergraph builder works with.
    """
    a = split.matrix
    m, n = a.shape
    ar = split.ar_mask
    ac = ~ar

    # (Ar)^T block: entry (j, n + i) for each a_ij in Ar.
    art_rows = a.cols[ar]
    art_cols = n + a.rows[ar]
    art_vals = a.vals[ar]
    # Ac block: entry (n + i, j).
    ac_rows = n + a.rows[ac]
    ac_cols = a.cols[ac]
    ac_vals = a.vals[ac]

    diag = np.arange(m + n, dtype=np.int64)
    if drop_pure_dummies:
        col_active = split.col_group_sizes() > 0
        row_active = split.row_group_sizes() > 0
        # A diagonal dummy survives only if its *column* of B is non-empty
        # besides the dummy (the vertex/group exists) AND its *row* of B
        # has off-diagonal entries (the net is not a singleton) — the
        # matrix counterpart of removing empty groups and singleton nets.
        ar_per_col = np.bincount(a.cols[ar], minlength=n)
        ac_per_row = np.bincount(a.rows[ac], minlength=m)
        keep_col_diag = col_active & (ar_per_col > 0)
        keep_row_diag = row_active & (ac_per_row > 0)
        diag = np.concatenate(
            [
                np.flatnonzero(keep_col_diag),
                n + np.flatnonzero(keep_row_diag),
            ]
        )
    rows = np.concatenate([diag, art_rows, ac_rows])
    cols = np.concatenate([diag, art_cols, ac_cols])
    vals = np.concatenate([np.ones(diag.size), art_vals, ac_vals])
    return SparseMatrix((m + n, m + n), rows, cols, vals)
