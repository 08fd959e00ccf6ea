"""Parallel recursive bisection: determinism and budget hand-down.

The parallel scheduler must be invisible in the results: ``partition``
derives every bisection's randomness from the node's position in the
recursion tree, so any schedule — serial depth-first, frontier rounds on
a process pool, whole subtrees per worker — produces the same partition
bit for bit.  These tests pin that contract across worker counts, part
counts, and execution backends, plus the seed-stream properties it rests
on and the asymmetric load-budget hand-down at deep recursion levels.
"""

import numpy as np
import pytest

from repro.core.recursive import partition
from repro.core.volume import max_part_size, part_sizes
from repro.errors import PartitioningError
from repro.partitioner.config import PartitionerConfig
from repro.sparse.generators import arrow, erdos_renyi
from repro.utils.balance import max_allowed_part_size
from repro.utils.rng import as_seed_sequence, child_sequence

SEED = 314


@pytest.fixture(scope="module")
def er():
    return erdos_renyi(120, 120, 900, seed=21)


class TestParallelDeterminism:
    """jobs is a speed knob only: identical output for every value."""

    @pytest.mark.parametrize("p", [2, 4, 64])
    def test_bit_identical_across_jobs(self, er, p):
        results = [
            partition(er, p, method="mediumgrain", seed=SEED, jobs=j)
            for j in (1, 2, 4)
        ]
        ref = results[0]
        for res in results[1:]:
            np.testing.assert_array_equal(ref.parts, res.parts)
            assert ref.volume == res.volume
            assert ref.bisection_volumes == res.bisection_volumes
            assert ref.max_part == res.max_part

    def test_refined_runs_identical(self, er):
        ref = partition(er, 8, refine=True, seed=SEED, jobs=1)
        par = partition(er, 8, refine=True, seed=SEED, jobs=2)
        np.testing.assert_array_equal(ref.parts, par.parts)
        assert ref.bisection_volumes == par.bisection_volumes

    @pytest.mark.parametrize("exec_backend", ["thread", "process"])
    def test_bit_identical_across_exec_backends(self, er, exec_backend):
        """The execution backend only changes how submatrices travel
        (shared address space / shared-memory store), never the
        partition."""
        ref = partition(er, 16, seed=SEED, jobs=1)
        res = partition(er, 16, seed=SEED, jobs=3, exec_backend=exec_backend)
        np.testing.assert_array_equal(ref.parts, res.parts)
        assert ref.bisection_volumes == res.bisection_volumes

    def test_config_exec_backend_is_the_default(self, er):
        cfg = PartitionerConfig(jobs=2, exec_backend="thread")
        res = partition(er, 4, config=cfg, seed=SEED)
        ref = partition(er, 4, seed=SEED, jobs=1)
        np.testing.assert_array_equal(ref.parts, res.parts)

    def test_bad_exec_backend_rejected_even_when_serial(self, er):
        """A typo'd backend must fail loudly in the library's error
        family on *every* path — including jobs=1, which never reaches
        the pool (silently accepting it would defer the crash to the
        first scaled-up run)."""
        with pytest.raises(PartitioningError):
            partition(er, 8, seed=SEED, jobs=1, exec_backend="proces")
        with pytest.raises(PartitioningError):
            partition(er, 8, seed=SEED, jobs=4, exec_backend="mpi")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_removed_pickled_pool_rejected(self, er, jobs):
        """The pickled-payload pool is gone from the library: naming it
        fails loudly on the serial and the pool path alike."""
        with pytest.raises(PartitioningError, match="process-pickle"):
            partition(er, 4, seed=SEED, jobs=jobs,
                      exec_backend="process-pickle")
        with pytest.raises(PartitioningError, match="process-pickle"):
            PartitionerConfig(jobs=jobs, exec_backend="process-pickle")

    def test_non_power_of_two_identical(self, er):
        """Uneven splits schedule unequal subtrees; results still match."""
        ref = partition(er, 11, seed=SEED, jobs=1)
        par = partition(er, 11, seed=SEED, jobs=3)
        np.testing.assert_array_equal(ref.parts, par.parts)

    def test_jobs_zero_means_cpu_count(self, er):
        res = partition(er, 4, seed=SEED, jobs=0)
        ref = partition(er, 4, seed=SEED, jobs=1)
        np.testing.assert_array_equal(ref.parts, res.parts)

    def test_negative_jobs_rejected(self, er):
        with pytest.raises(PartitioningError):
            partition(er, 4, seed=SEED, jobs=-1)

    def test_config_jobs_is_the_default(self, er):
        """``jobs=None`` defers to ``PartitionerConfig.jobs``."""
        cfg = PartitionerConfig(jobs=2)
        res = partition(er, 4, config=cfg, seed=SEED)
        ref = partition(er, 4, seed=SEED, jobs=1)
        np.testing.assert_array_equal(ref.parts, res.parts)

    def test_generator_seed_consumed_once(self, er):
        """A Generator seed advances by exactly one draw, so the caller's
        stream stays aligned regardless of p or jobs."""
        g_run = np.random.default_rng(7)
        partition(er, 8, seed=g_run, jobs=2)
        g_ref = np.random.default_rng(7)
        g_ref.integers(0, 2**63 - 1, dtype=np.int64)
        assert g_run.integers(0, 2**31) == g_ref.integers(0, 2**31)


class TestSeedStreams:
    """Position-keyed streams: the scheme the parallel contract rests on."""

    def test_child_sequence_matches_spawn(self):
        root = as_seed_sequence(99)
        spawned = np.random.SeedSequence(99).spawn(3)[2]
        derived = child_sequence(root, 2)
        np.testing.assert_array_equal(
            spawned.generate_state(8), derived.generate_state(8)
        )

    def test_deep_paths_are_distinct(self):
        root = as_seed_sequence(5)
        states = {
            tuple(child_sequence(root, *path).generate_state(2))
            for path in [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        }
        assert len(states) == 6

    def test_empty_path_is_root(self):
        root = as_seed_sequence(5)
        assert child_sequence(root) is root

    def test_different_seeds_differ(self, er):
        a = partition(er, 8, seed=1)
        b = partition(er, 8, seed=2)
        assert not np.array_equal(a.parts, b.parts)


class TestLoadBudgetHandDown:
    """The Mondriaan-style asymmetric ceilings at deep recursion levels."""

    @pytest.mark.parametrize("p", [5, 11, 13])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_uneven_split_global_constraint(self, er, p, jobs):
        """Odd part counts make every level's ``(L*q0, L*q1)`` ceilings
        asymmetric; satisfying all of them must still satisfy eqn (1)."""
        res = partition(er, p, eps=0.03, seed=SEED, jobs=jobs)
        ceiling = max_allowed_part_size(er.nnz, p, 0.03)
        assert max_part_size(er, res.parts, p) <= ceiling
        assert res.feasible
        assert (part_sizes(er, res.parts, p) > 0).all()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_relaxation_path_parallel(self, jobs):
        """An unsplittable dense line overloads a deep subproblem; the
        proportional ceiling relaxation must complete best-effort and
        report infeasibility identically under any schedule."""
        a = arrow(400, 1, seed=2)
        res = partition(a, 16, method="rownet", eps=0.03, seed=3, jobs=jobs)
        assert res.nparts == 16
        assert not res.feasible
        assert res.max_part >= 400
        ref = partition(a, 16, method="rownet", eps=0.03, seed=3, jobs=1)
        np.testing.assert_array_equal(ref.parts, res.parts)

    def test_deep_levels_see_scaled_budget(self, er):
        """At p = 64 every leaf-level bisection ran with ceiling ``L`` per
        side; all 64 parts must respect the global ceiling and be
        non-empty (the budget was neither lost nor double-granted on the
        way down)."""
        res = partition(er, 64, eps=0.03, seed=SEED, jobs=2)
        ceiling = max_allowed_part_size(er.nnz, 64, 0.03)
        sizes = part_sizes(er, res.parts, 64)
        assert sizes.max() <= ceiling
        assert (sizes > 0).all()
        assert res.feasible
