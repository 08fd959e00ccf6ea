"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.sparse.matrix import SparseMatrix

# Reference tests import the frozen "before" kernels of the benchmark
# ledger (``benchmarks._baseline_kernels``); keep the repository root
# importable when pytest runs without ``python -m``.
_ROOT = str(Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.append(_ROOT)


# --------------------------------------------------------------------- #
# Deterministic example matrices
# --------------------------------------------------------------------- #
@pytest.fixture
def paper_matrix() -> SparseMatrix:
    """The 3 x 6 example matrix of the paper's Fig. 1 (12 nonzeros).

    Fig. 1 shows a fully dense 3x6 block pattern is not given explicitly;
    we use a fixed 3 x 6 pattern with 12 nonzeros that exercises both
    rows and columns with varying counts.
    """
    rows = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    cols = [0, 1, 2, 4, 0, 2, 3, 5, 1, 3, 4, 5]
    return SparseMatrix((3, 6), np.array(rows), np.array(cols))


@pytest.fixture
def tiny_square() -> SparseMatrix:
    """A 4 x 4 matrix with an interesting mixed pattern."""
    rows = [0, 0, 1, 1, 2, 2, 3, 3, 0, 3]
    cols = [0, 1, 1, 2, 2, 3, 3, 0, 3, 1]
    return SparseMatrix((4, 4), np.array(rows), np.array(cols))


@pytest.fixture
def diag_matrix() -> SparseMatrix:
    """5 x 5 diagonal: every row and column is a singleton."""
    idx = np.arange(5)
    return SparseMatrix((5, 5), idx, idx)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# --------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------- #
@st.composite
def sparse_matrices(
    draw,
    max_rows: int = 12,
    max_cols: int = 12,
    max_nnz: int = 60,
    min_nnz: int = 1,
):
    """Random small sparse matrices (pattern + unit values)."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    nnz_cap = min(max_nnz, m * n)
    k = draw(st.integers(min(min_nnz, nnz_cap), nnz_cap))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    rows = np.array([c[0] for c in cells], dtype=np.int64)
    cols = np.array([c[1] for c in cells], dtype=np.int64)
    return SparseMatrix((m, n), rows, cols)


@st.composite
def matrices_with_parts(draw, nparts_max: int = 4, **kwargs):
    """A random matrix plus a random nonzero partitioning of it."""
    matrix = draw(sparse_matrices(**kwargs))
    nparts = draw(st.integers(1, nparts_max))
    parts = draw(
        st.lists(
            st.integers(0, nparts - 1),
            min_size=matrix.nnz,
            max_size=matrix.nnz,
        )
    )
    return matrix, np.array(parts, dtype=np.int64), nparts


@st.composite
def matrices_with_splits(draw, **kwargs):
    """A random matrix plus a random Ar/Ac split mask."""
    matrix = draw(sparse_matrices(**kwargs))
    mask = draw(
        st.lists(st.booleans(), min_size=matrix.nnz, max_size=matrix.nnz)
    )
    return matrix, np.array(mask, dtype=bool)
