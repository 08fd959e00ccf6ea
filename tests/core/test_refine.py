"""Tests for Algorithm 2 (iterative refinement)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refine import iterative_refine, vcycle_refine_bipartition
from repro.core.volume import (
    communication_volume,
    max_allowed_part_size,
    max_part_size,
)
from repro.errors import PartitioningError
from repro.sparse.collection import load_instance
from repro.sparse.generators import arrow, erdos_renyi, grid2d_laplacian
from repro.sparse.matrix import SparseMatrix
from tests.conftest import sparse_matrices


def balanced_random_parts(nnz, seed):
    rng = np.random.default_rng(seed)
    parts = np.zeros(nnz, dtype=np.int64)
    parts[rng.permutation(nnz)[: nnz // 2]] = 1
    return parts


class TestMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices(min_nnz=4), st.integers(0, 10_000))
    def test_volume_sequence_non_increasing(self, a, seed):
        parts = balanced_random_parts(a.nnz, seed)
        refined, trace = iterative_refine(a, parts, eps=0.2, seed=seed)
        vols = trace.volumes
        assert all(vols[i + 1] <= vols[i] for i in range(len(vols) - 1))
        assert trace.final_volume == communication_volume(a, refined)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices(min_nnz=4), st.integers(0, 10_000))
    def test_never_worse_than_input(self, a, seed):
        parts = balanced_random_parts(a.nnz, seed)
        before = communication_volume(a, parts)
        refined, trace = iterative_refine(a, parts, eps=0.2, seed=seed)
        assert communication_volume(a, refined) <= before
        assert trace.initial_volume == before

    def test_balance_maintained(self):
        a = erdos_renyi(40, 40, 300, seed=1)
        parts = balanced_random_parts(a.nnz, 2)
        refined, _ = iterative_refine(a, parts, eps=0.03, seed=3)
        ceiling = max_allowed_part_size(a.nnz, 2, 0.03)
        assert max_part_size(a, refined, 2) <= ceiling


class TestBehaviour:
    def test_improves_bad_1d_partitioning_of_arrow(self):
        """The paper's headline IR effect: a 1D split of an arrow matrix
        has huge volume; IR collapses it."""
        a = arrow(120, 1, seed=0)
        # 1D column split: left columns to 0, right to 1 -> dense row cut
        parts = (a.cols >= 60).astype(np.int64)
        before = communication_volume(a, parts)
        refined, trace = iterative_refine(a, parts, eps=0.2, seed=5)
        after = communication_volume(a, refined)
        assert after < before / 2

    def test_fixed_point_on_zero_volume(self):
        """A perfect partitioning stays put and converges immediately."""
        a = grid2d_laplacian(6, 6)
        parts = np.zeros(a.nnz, dtype=np.int64)
        parts[a.rows >= 18] = 1  # split by row blocks: volume small
        # use the all-zero... simpler: block diagonal with clean split:
        from repro.sparse.generators import block_diagonal

        b = block_diagonal(2, 10, 0.6, noise_nnz=0, seed=1)
        bparts = (b.rows >= 10).astype(np.int64)
        assert communication_volume(b, bparts) == 0
        refined, trace = iterative_refine(b, bparts, eps=0.2, seed=0)
        assert communication_volume(b, refined) == 0
        assert trace.converged

    def test_direction_alternation_recorded(self):
        a = erdos_renyi(30, 30, 250, seed=4)
        parts = balanced_random_parts(a.nnz, 1)
        _, trace = iterative_refine(a, parts, eps=0.1, seed=1)
        assert trace.iterations == len(trace.directions)
        assert set(trace.directions) <= {0, 1}
        # Termination requires at least two stagnant iterations.
        assert trace.iterations >= 2

    def test_start_direction_one(self):
        a = erdos_renyi(20, 20, 120, seed=5)
        parts = balanced_random_parts(a.nnz, 3)
        _, trace = iterative_refine(
            a, parts, eps=0.1, seed=1, start_direction=1
        )
        assert trace.directions[0] == 1

    def test_max_iterations_cap(self):
        a = erdos_renyi(30, 30, 200, seed=6)
        parts = balanced_random_parts(a.nnz, 4)
        _, trace = iterative_refine(
            a, parts, eps=0.1, seed=2, max_iterations=1
        )
        assert trace.iterations == 1
        assert not trace.converged

    def test_converged_flag_set(self):
        a = erdos_renyi(25, 25, 150, seed=7)
        parts = balanced_random_parts(a.nnz, 5)
        _, trace = iterative_refine(a, parts, eps=0.1, seed=3)
        assert trace.converged

    def test_stopping_rule_is_two_stagnant_directions(self):
        """After convergence the last two volumes are equal (V_k == V_{k-2}
        forces V_k == V_{k-1} by monotonicity)."""
        a = erdos_renyi(30, 30, 220, seed=8)
        parts = balanced_random_parts(a.nnz, 6)
        _, trace = iterative_refine(a, parts, eps=0.1, seed=4)
        v = trace.volumes
        assert v[-1] == v[-2] == v[-3]

    def test_explicit_max_weights(self):
        a = erdos_renyi(20, 20, 100, seed=9)
        parts = np.zeros(a.nnz, dtype=np.int64)
        parts[: a.nnz // 3] = 1
        refined, _ = iterative_refine(
            a, parts, seed=1, max_weights=(70, 70)
        )
        sizes = np.bincount(refined, minlength=2)
        assert sizes.max() <= 70

    def test_input_not_mutated(self):
        a = erdos_renyi(15, 15, 80, seed=10)
        parts = balanced_random_parts(a.nnz, 7)
        orig = parts.copy()
        iterative_refine(a, parts, eps=0.1, seed=0)
        np.testing.assert_array_equal(parts, orig)


class TestValidation:
    def test_rejects_kway(self, tiny_square):
        parts = np.arange(tiny_square.nnz) % 3
        with pytest.raises(PartitioningError):
            iterative_refine(tiny_square, parts)

    def test_rejects_bad_direction(self, tiny_square):
        parts = np.zeros(tiny_square.nnz, dtype=np.int64)
        with pytest.raises(PartitioningError):
            iterative_refine(tiny_square, parts, start_direction=3)

    def test_rejects_bad_shape(self, tiny_square):
        with pytest.raises(PartitioningError):
            iterative_refine(tiny_square, np.zeros(2, dtype=np.int64))


class TestSingleDirectionAblation:
    def test_single_direction_stops_at_first_stagnation(self):
        a = erdos_renyi(30, 30, 220, seed=12)
        parts = balanced_random_parts(a.nnz, 8)
        _, trace = iterative_refine(
            a, parts, eps=0.1, seed=5, alternate=False
        )
        assert trace.converged
        assert len(set(trace.directions)) == 1
        # Exactly one stagnant step at the end.
        assert trace.volumes[-1] == trace.volumes[-2]

    def test_alternating_never_worse_than_single(self):
        a = erdos_renyi(40, 40, 320, seed=13)
        parts = balanced_random_parts(a.nnz, 9)
        alt, _ = iterative_refine(a, parts, eps=0.1, seed=6)
        single, _ = iterative_refine(
            a, parts, eps=0.1, seed=6, alternate=False
        )
        assert communication_volume(a, alt) <= communication_volume(
            a, single
        )


def _parts_hash(parts) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(parts, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


class TestPinned:
    """Bit-identity pins for the refinement loops, started from the
    contiguous split of ``sym_gd97_like`` (a start every loop improves):
    the volume trace and a hash of the returned part vector."""

    @staticmethod
    def _start(matrix, k):
        return (np.arange(matrix.nnz) * k // matrix.nnz).astype(np.int64)

    @pytest.mark.parametrize(
        "nparts,alternate,volumes,directions,digest",
        [
            (2, True, [45, 35, 33, 33, 29, 29, 29], [0, 0, 0, 1, 1, 0],
             "6fa46fe0f180df3e"),
            (2, False, [45, 35, 33, 33], [0, 0, 0], "0d3c0cf05b476f83"),
            (4, True, [96, 84, 84, 73, 71, 70, 70, 70],
             [0, 0, 1, 1, 1, 1, 0], "e5b1858b4aec4880"),
            (4, False, [96, 84, 84], [0, 0], "f5c44e97f65b0c76"),
        ],
    )
    def test_iterative_refine_pinned(
        self, nparts, alternate, volumes, directions, digest
    ):
        m = load_instance("sym_gd97_like")
        parts, trace = iterative_refine(
            m, self._start(m, nparts), nparts=nparts, seed=2014,
            alternate=alternate,
        )
        assert trace.volumes == volumes
        assert trace.directions == directions
        assert trace.converged
        assert _parts_hash(parts) == digest

    def test_vcycle_refine_bipartition_pinned(self):
        m = load_instance("sym_gd97_like")
        parts, cuts = vcycle_refine_bipartition(
            m, self._start(m, 2), eps=0.03, seed=2014
        )
        assert cuts == [45, 35, 33, 33]
        assert _parts_hash(parts) == "1a061f6550b2e5b5"
