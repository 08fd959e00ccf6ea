"""Tests for communication-volume and balance metrics (eqns (1)-(3))."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.volume import (
    communication_volume,
    imbalance,
    max_allowed_part_size,
    max_part_size,
    part_sizes,
    row_col_lambdas,
    satisfies_balance,
    volume_breakdown,
)
from repro.errors import PartitioningError
from repro.kernels.spmv import _use_scatter
from repro.sparse.matrix import SparseMatrix
from tests.conftest import matrices_with_parts


class TestRowColLambdas:
    def test_single_part(self, paper_matrix):
        parts = np.zeros(paper_matrix.nnz, dtype=np.int64)
        row_l, col_l = row_col_lambdas(paper_matrix, parts)
        assert (row_l == 1).all()
        assert (col_l == 1).all()

    def test_empty_lines_zero(self):
        a = SparseMatrix((3, 3), [0], [0])
        row_l, col_l = row_col_lambdas(a, np.array([0]))
        assert row_l.tolist() == [1, 0, 0]
        assert col_l.tolist() == [1, 0, 0]

    def test_hand_example(self):
        # 2x2 with nonzeros (0,0),(0,1),(1,0); parts 0,1,0
        a = SparseMatrix((2, 2), [0, 0, 1], [0, 1, 0])
        row_l, col_l = row_col_lambdas(a, np.array([0, 1, 0]))
        assert row_l.tolist() == [2, 1]
        assert col_l.tolist() == [1, 1]

    def test_wrong_shape(self, paper_matrix):
        with pytest.raises(PartitioningError):
            row_col_lambdas(paper_matrix, np.zeros(3, dtype=np.int64))


class TestCommunicationVolume:
    def test_uncut_zero(self, paper_matrix):
        assert communication_volume(
            paper_matrix, np.zeros(paper_matrix.nnz, dtype=np.int64)
        ) == 0

    def test_eqn3_is_sum_of_eqn2(self, paper_matrix, rng):
        parts = rng.integers(0, 3, size=paper_matrix.nnz)
        row_l, col_l = row_col_lambdas(paper_matrix, parts)
        expected = int(
            np.maximum(row_l - 1, 0).sum() + np.maximum(col_l - 1, 0).sum()
        )
        assert communication_volume(paper_matrix, parts) == expected

    def test_breakdown_sums_to_total(self, paper_matrix, rng):
        parts = rng.integers(0, 2, size=paper_matrix.nnz)
        b = volume_breakdown(paper_matrix, parts)
        assert b.total == communication_volume(paper_matrix, parts)
        assert b.fanin >= 0 and b.fanout >= 0

    def test_each_nonzero_own_part_upper_bound(self):
        """The worst 2D partitioning: every nonzero its own part."""
        a = SparseMatrix((2, 2), [0, 0, 1, 1], [0, 1, 0, 1])
        parts = np.arange(4)
        # every row cut once, every column cut once
        assert communication_volume(a, parts) == 4

    @given(matrices_with_parts())
    def test_volume_bounds(self, case):
        matrix, parts, nparts = case
        v = communication_volume(matrix, parts)
        assert 0 <= v
        # Each line contributes at most min(nparts, its nnz) - 1.
        nzr = matrix.nnz_per_row()
        nzc = matrix.nnz_per_col()
        bound = int(
            np.maximum(np.minimum(nzr, nparts) - 1, 0).sum()
            + np.maximum(np.minimum(nzc, nparts) - 1, 0).sum()
        )
        assert v <= bound

    @given(matrices_with_parts())
    def test_relabeling_invariance(self, case):
        """Permuting part labels never changes the volume."""
        matrix, parts, nparts = case
        perm = np.roll(np.arange(nparts), 1)
        assert communication_volume(matrix, parts) == communication_volume(
            matrix, perm[parts]
        )


#: Empty lines that push an axis past the scatter table's size rule, so
#: its pairs are counted on the sort path.
_SORT_PATH_PAD = 70_000


class TestCountingVolume:
    """``communication_volume`` counts distinct (line, part) pairs; it must
    equal the per-line eqn-(2) sum over :func:`row_col_lambdas`."""

    @staticmethod
    def _lambda_sum(matrix, parts):
        row_l, col_l = row_col_lambdas(matrix, parts)
        return int(
            np.maximum(row_l - 1, 0).sum() + np.maximum(col_l - 1, 0).sum()
        )

    @given(
        matrices_with_parts(nparts_max=5),
        st.integers(1, 3),
        st.sampled_from([(0, 0), (_SORT_PATH_PAD, 0), (0, _SORT_PATH_PAD)]),
    )
    def test_equals_lambda_sum(self, case, stride, pad):
        """Empty rows and columns, unused part ids (ids spread by
        ``stride``), p = 1, and an axis long enough for the sort path."""
        matrix, parts, _nparts = case
        m, n = matrix.shape
        matrix = SparseMatrix(
            (m + pad[0], n + pad[1]), matrix.rows, matrix.cols
        )
        parts = parts * stride
        assert communication_volume(matrix, parts) == self._lambda_sum(
            matrix, parts
        )

    def test_padding_takes_the_sort_path(self):
        assert not _use_scatter(_SORT_PATH_PAD + 1, 1, 60)
        assert _use_scatter(12, 15, 1)

    def test_empty_matrix(self):
        a = SparseMatrix((3, 2), [], [])
        assert communication_volume(a, np.zeros(0, dtype=np.int64)) == 0


class TestBalanceMetrics:
    def test_part_sizes(self, paper_matrix):
        parts = np.array([0, 1] * 6)
        assert part_sizes(paper_matrix, parts, 2).tolist() == [6, 6]

    def test_max_part_size(self, paper_matrix):
        parts = np.zeros(12, dtype=np.int64)
        parts[:2] = 1
        assert max_part_size(paper_matrix, parts, 2) == 10

    def test_imbalance_perfect(self, paper_matrix):
        parts = np.array([0, 1] * 6)
        assert imbalance(paper_matrix, parts, 2) == 0.0

    def test_imbalance_value(self, paper_matrix):
        parts = np.zeros(12, dtype=np.int64)
        parts[:3] = 1  # sizes 9, 3 -> 9/6 - 1 = 0.5
        assert imbalance(paper_matrix, parts, 2) == pytest.approx(0.5)

    def test_satisfies_balance(self, paper_matrix):
        parts = np.array([0, 1] * 6)
        assert satisfies_balance(paper_matrix, parts, 2, 0.0)
        lopsided = np.zeros(12, dtype=np.int64)
        lopsided[0] = 1
        assert not satisfies_balance(paper_matrix, lopsided, 2, 0.03)

    def test_max_allowed_alias(self):
        assert max_allowed_part_size(1000, 2, 0.03) == 515
