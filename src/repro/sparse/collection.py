"""The synthetic test-matrix collection.

Substitute for the University of Florida sparse matrix collection used in the
paper's experiments (Section IV: 2264 matrices with 500–5,000,000 nonzeros;
582 rectangular, 1007 structurally symmetric, 675 square non-symmetric).

Offline reproduction cannot download UF matrices, so this module defines a
*named, deterministic* collection drawn from the generator families in
:mod:`repro.sparse.generators`, spanning the same three classes and a wide
nonzero range (≈500–50,000; the ceiling keeps pure-Python partitioning times
practical).  Every instance is identified by a stable name and built from a
seed derived from that name, so any two processes constructing the same
instance get bit-identical matrices.

Tiers
-----
``small``
    ≈500–2,500 nonzeros.  Used by the unit/integration tests.
``medium``
    ≈2,500–12,000 nonzeros.  Default benchmark tier.
``large``
    ≈12,000–50,000 nonzeros.  Used by the full benchmark runs and the
    ``p = 64`` recursive-bisection experiments.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.errors import EvaluationError
from repro.sparse import generators as gen
from repro.sparse.matrix import SparseMatrix
from repro.sparse.stats import MatrixClass, classify_matrix

__all__ = [
    "CollectionEntry",
    "build_collection",
    "collection_names",
    "load_instance",
    "TIERS",
]

TIERS = ("small", "medium", "large")


@dataclass(frozen=True)
class CollectionEntry:
    """One named instance of the synthetic collection."""

    name: str
    matrix_class: MatrixClass
    tier: str
    factory: Callable[[int], SparseMatrix]

    def build(self) -> SparseMatrix:
        """Construct the matrix (deterministic; cached via load_instance)."""
        return self.factory(_seed_for(self.name))


def _seed_for(name: str) -> int:
    """Stable 32-bit seed derived from the instance name."""
    return zlib.crc32(name.encode("utf-8"))


def _registry() -> list[CollectionEntry]:
    """The full declarative instance table."""
    R = MatrixClass.RECTANGULAR
    S = MatrixClass.SYMMETRIC
    Q = MatrixClass.SQUARE_NONSYMMETRIC
    entries: list[CollectionEntry] = []

    def add(name: str, klass: MatrixClass, tier: str, factory) -> None:
        entries.append(CollectionEntry(name, klass, tier, factory))

    # ------------------------------------------------------------------ #
    # Rectangular (m != n)
    # ------------------------------------------------------------------ #
    add("rec_td_small_a", R, "small", lambda s: gen.term_document(120, 80, 6, 900, s))
    add("rec_td_small_b", R, "small", lambda s: gen.term_document(200, 60, 4, 1400, s))
    add("rec_er_tall_s", R, "small", lambda s: gen.erdos_renyi(400, 60, 1600, s))
    add("rec_er_wide_s", R, "small", lambda s: gen.erdos_renyi(50, 500, 1800, s))
    add("rec_cl_small", R, "small", lambda s: gen.chung_lu(240, 120, 1500, s))
    add("rec_bp_small", R, "small", lambda s: gen.bipartite_preferential(150, 100, 1200, s))
    add("rec_td_med_a", R, "medium", lambda s: gen.term_document(500, 300, 10, 5000, s))
    add("rec_td_med_b", R, "medium", lambda s: gen.term_document(900, 240, 8, 8000, s))
    add("rec_er_tall_m", R, "medium", lambda s: gen.erdos_renyi(1800, 220, 7000, s))
    add("rec_er_wide_m", R, "medium", lambda s: gen.erdos_renyi(200, 2200, 8800, s))
    add("rec_cl_med", R, "medium", lambda s: gen.chung_lu(900, 500, 6000, s))
    add("rec_bp_med", R, "medium", lambda s: gen.bipartite_preferential(700, 420, 5200, s))
    add("rec_verytall_m", R, "medium", lambda s: gen.erdos_renyi(4200, 80, 9000, s))
    add("rec_td_large_a", R, "large", lambda s: gen.term_document(2000, 1200, 16, 20000, s))
    add("rec_td_large_b", R, "large", lambda s: gen.term_document(3200, 800, 12, 30000, s))
    add("rec_er_tall_l", R, "large", lambda s: gen.erdos_renyi(5200, 700, 21000, s))
    add("rec_er_wide_l", R, "large", lambda s: gen.erdos_renyi(650, 5800, 24000, s))
    add("rec_cl_large", R, "large", lambda s: gen.chung_lu(3000, 1600, 24000, s))
    add("rec_bp_large", R, "large", lambda s: gen.bipartite_preferential(2400, 1500, 18000, s))
    add("rec_verywide_l", R, "large", lambda s: gen.erdos_renyi(240, 9000, 26000, s))

    # ------------------------------------------------------------------ #
    # Structurally symmetric (square, pattern symmetry == 1)
    # ------------------------------------------------------------------ #
    add("sym_gd97_like", S, "small", lambda s: gen.gd97_like(s))
    add("sym_grid2d_s", S, "small", lambda _s: gen.grid2d_laplacian(16, 16))
    add("sym_arrow_s", S, "small", lambda s: gen.arrow(300, 1, s))
    add("sym_er_s", S, "small", lambda s: gen.symmetrize(gen.erdos_renyi(300, 300, 900, s)))
    add("sym_cl_s", S, "small", lambda s: gen.symmetrize(gen.chung_lu(350, 350, 1000, s)))
    add("sym_rmat_s", S, "small", lambda s: gen.symmetrize(gen.rmat(8, 1000, s)))
    add("sym_grid2d_m", S, "medium", lambda _s: gen.grid2d_laplacian(38, 38))
    add("sym_grid3d_m", S, "medium", lambda _s: gen.grid3d_laplacian(11, 11, 11))
    add("sym_arrow_m", S, "medium", lambda s: gen.arrow(1600, 2, s))
    add("sym_er_m", S, "medium", lambda s: gen.symmetrize(gen.erdos_renyi(1300, 1300, 3900, s)))
    add("sym_cl_m", S, "medium", lambda s: gen.symmetrize(gen.chung_lu(1500, 1500, 4200, s)))
    add("sym_rmat_m", S, "medium", lambda s: gen.symmetrize(gen.rmat(10, 4200, s)))
    add("sym_blk_m", S, "medium", lambda s: gen.symmetrize(gen.block_diagonal(8, 28, 0.28, 260, s)))
    # Flattened five-point stencil (long symmetric off-diagonals): the
    # structured case where direct k-way and recursive bisection diverge.
    add("sym_kdiag_m", S, "medium", lambda s: gen.kdiagonal(1500, (-38, -1, 0, 1, 38), s))
    add("sym_grid2d_l", S, "large", lambda _s: gen.grid2d_laplacian(78, 78))
    add("sym_grid3d_l", S, "large", lambda _s: gen.grid3d_laplacian(17, 17, 17))
    add("sym_arrow_l", S, "large", lambda s: gen.arrow(5600, 2, s))
    add("sym_er_l", S, "large", lambda s: gen.symmetrize(gen.erdos_renyi(5200, 5200, 15500, s)))
    add("sym_cl_l", S, "large", lambda s: gen.symmetrize(gen.chung_lu(5600, 5600, 16500, s)))
    add("sym_rmat_l", S, "large", lambda s: gen.symmetrize(gen.rmat(12, 16000, s)))
    add("sym_blk_l", S, "large", lambda s: gen.symmetrize(gen.block_diagonal(14, 52, 0.12, 1300, s)))
    add("sym_kdiag_l", S, "large", lambda s: gen.kdiagonal(4200, (-65, -1, 0, 1, 65), s))

    # ------------------------------------------------------------------ #
    # Square non-symmetric (square, pattern symmetry < 1)
    # ------------------------------------------------------------------ #
    add("sqr_er_s", Q, "small", lambda s: gen.erdos_renyi(350, 350, 1400, s))
    add("sqr_cl_s", Q, "small", lambda s: gen.chung_lu(400, 400, 1600, s))
    add("sqr_rmat_s", Q, "small", lambda s: gen.rmat(8, 1500, s))
    add("sqr_band_s", Q, "small", lambda s: gen.banded(260, 4, 0.45, s))
    add("sqr_blk_s", Q, "small", lambda s: gen.block_diagonal(6, 22, 0.4, 140, s))
    add("sqr_perm_s", Q, "small", lambda s: gen.random_permute(gen.banded(300, 3, 0.5, s), s + 1))
    add("sqr_er_m", Q, "medium", lambda s: gen.erdos_renyi(1700, 1700, 6800, s))
    add("sqr_cl_m", Q, "medium", lambda s: gen.chung_lu(1800, 1800, 7200, s))
    add("sqr_rmat_m", Q, "medium", lambda s: gen.rmat(10, 6500, s))
    add("sqr_band_m", Q, "medium", lambda s: gen.banded(1100, 5, 0.5, s))
    add("sqr_blk_m", Q, "medium", lambda s: gen.block_diagonal(9, 34, 0.24, 560, s))
    add("sqr_perm_m", Q, "medium", lambda s: gen.random_permute(gen.banded(1400, 4, 0.45, s), s + 1))
    add("sqr_cl_skew_m", Q, "medium", lambda s: gen.chung_lu(2000, 2000, 8000, s, row_exponent=1.9, col_exponent=2.6))
    # Asymmetric k-diagonal structure (see sym_kdiag_m for the rationale).
    add("sqr_kdiag_m", Q, "medium", lambda s: gen.kdiagonal(1400, (-47, -1, 0, 2, 31), s))
    add("sqr_er_l", Q, "large", lambda s: gen.erdos_renyi(5400, 5400, 21500, s))
    add("sqr_cl_l", Q, "large", lambda s: gen.chung_lu(5800, 5800, 23000, s))
    add("sqr_rmat_l", Q, "large", lambda s: gen.rmat(12, 21000, s))
    add("sqr_band_l", Q, "large", lambda s: gen.banded(3800, 5, 0.55, s))
    add("sqr_blk_l", Q, "large", lambda s: gen.block_diagonal(16, 60, 0.09, 2400, s))
    add("sqr_perm_l", Q, "large", lambda s: gen.random_permute(gen.banded(4600, 5, 0.5, s), s + 1))

    return entries


@functools.lru_cache(maxsize=1)
def _registry_cached() -> tuple[CollectionEntry, ...]:
    entries = _registry()
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise EvaluationError("duplicate collection instance names")
    return tuple(entries)


def build_collection(
    tier: Optional[str] = None,
    matrix_class: Optional[MatrixClass] = None,
    max_tier: Optional[str] = None,
) -> list[CollectionEntry]:
    """Return collection entries, optionally filtered.

    Parameters
    ----------
    tier:
        Keep only this tier (``"small"``, ``"medium"``, ``"large"``).
    matrix_class:
        Keep only this class.
    max_tier:
        Keep all tiers up to and including this one (ordered small <
        medium < large).  Mutually exclusive with ``tier``.
    """
    if tier is not None and max_tier is not None:
        raise EvaluationError("pass either tier or max_tier, not both")
    entries: Iterable[CollectionEntry] = _registry_cached()
    if tier is not None:
        if tier not in TIERS:
            raise EvaluationError(f"unknown tier {tier!r}; expected one of {TIERS}")
        entries = (e for e in entries if e.tier == tier)
    if max_tier is not None:
        if max_tier not in TIERS:
            raise EvaluationError(f"unknown tier {max_tier!r}; expected one of {TIERS}")
        allowed = set(TIERS[: TIERS.index(max_tier) + 1])
        entries = (e for e in entries if e.tier in allowed)
    if matrix_class is not None:
        entries = (e for e in entries if e.matrix_class == matrix_class)
    return list(entries)


def collection_names(tier: Optional[str] = None) -> list[str]:
    """Names of all instances (optionally restricted to one tier)."""
    return [e.name for e in build_collection(tier=tier)]


@functools.lru_cache(maxsize=None)
def load_instance(name: str) -> SparseMatrix:
    """Build (and cache) the named collection instance.

    Raises
    ------
    EvaluationError
        If the name is unknown or the built matrix does not match its
        declared class (a collection self-consistency failure).
    """
    for entry in _registry_cached():
        if entry.name == name:
            matrix = entry.build()
            if classify_matrix(matrix) != entry.matrix_class:
                raise EvaluationError(
                    f"instance {name!r} built as {classify_matrix(matrix)} "
                    f"but is declared {entry.matrix_class}"
                )
            return matrix
    raise EvaluationError(f"unknown collection instance {name!r}")
