"""The shared execution layer: store, backends, budget, failure paths.

The layer's one contract is *invisibility*: every backend delivers the
same submatrices to the same tasks, so results are bit-identical and the
backend/jobs knobs are pure speed knobs.  These tests pin that, plus the
parts that only show up when things go wrong — worker crashes must not
poison the persistent pool or leak shared-memory segments — and the
budget arithmetic the sweep x recursion composition rests on.
"""

import os

import numpy as np
import pytest

from benchmarks._baseline_e2e import PickledMatrixExecutor
from repro.sparse.generators import erdos_renyi
from repro.utils.executor import (
    EXEC_BACKEND_CHOICES,
    JobsBudget,
    MatrixExecutor,
    SharedMatrixStore,
    close_matrix_stores,
    payload_audit,
    process_pool,
    resolve_exec_backend,
    shutdown_pools,
)

SEED = 99


@pytest.fixture(scope="module")
def matrix():
    return erdos_renyi(60, 60, 400, seed=SEED)


# ------------------------------------------------------------------ #
# Module-level task functions (process backends pickle by reference).
# ------------------------------------------------------------------ #
def _nnz_and_rowsum(sub, extra):
    return (sub.nnz, int(sub.rows.sum()), extra)


def _crash(sub, extra):
    os._exit(1)  # simulate a worker killed by OOM / signal


class TestJobsBudget:
    """split(): outer * inner <= total, outer <= outer_tasks, always >= 1."""

    def test_serial_budget(self):
        assert JobsBudget(1).split(10) == (1, 1)

    def test_more_tasks_than_jobs(self):
        assert JobsBudget(4).split(16) == (4, 1)

    def test_fewer_tasks_than_jobs_hands_down(self):
        assert JobsBudget(8).split(2) == (2, 4)

    def test_single_task_gets_everything(self):
        assert JobsBudget(6).split(1) == (1, 6)

    def test_zero_tasks(self):
        assert JobsBudget(6).split(0) == (1, 6)

    @pytest.mark.parametrize("total", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("tasks", [1, 2, 3, 4, 10])
    def test_invariant_holds_for_primes(self, total, tasks):
        outer, inner = JobsBudget(total).split(tasks)
        assert outer >= 1 and inner >= 1
        assert outer <= max(1, tasks)
        assert outer * inner <= total

    def test_resolve_zero_means_cpu_count(self):
        assert JobsBudget.resolve(0).total == (os.cpu_count() or 1)
        assert JobsBudget.resolve(None).total == (os.cpu_count() or 1)

    def test_invalid_total_rejected(self):
        with pytest.raises(ValueError):
            JobsBudget(0)
        with pytest.raises(ValueError):
            JobsBudget.resolve(-2)
        with pytest.raises(ValueError):
            JobsBudget(3).split(-1)


class TestResolveExecBackend:
    def test_auto_resolves_to_a_concrete_backend(self):
        assert resolve_exec_backend("auto") == "process"

    def test_explicit_choices_pass_through(self):
        for spec in EXEC_BACKEND_CHOICES[1:]:
            assert resolve_exec_backend(spec) == spec

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_exec_backend("mpi")


class TestSharedMatrixStore:
    def test_round_trip_is_exact_and_readonly(self, matrix):
        with SharedMatrixStore(matrix) as store:
            view = store.handle.open()
            assert view.shape == matrix.shape
            np.testing.assert_array_equal(view.rows, matrix.rows)
            np.testing.assert_array_equal(view.cols, matrix.cols)
            np.testing.assert_array_equal(view.vals, matrix.vals)
            assert not view.rows.flags.writeable
            assert view == matrix

    def test_open_is_cached_per_process(self, matrix):
        with SharedMatrixStore(matrix) as store:
            assert store.handle.open() is store.handle.open()

    def test_close_unlinks_segment(self, matrix):
        store = SharedMatrixStore(matrix)
        name = store.handle.name
        store.close()
        store.close()  # idempotent
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_empty_matrix_publishable(self):
        from repro.sparse.matrix import SparseMatrix

        empty = SparseMatrix((3, 3), [], [])
        with SharedMatrixStore(empty) as store:
            assert store.handle.open().nnz == 0

    def test_for_matrix_publishes_once(self, matrix):
        """The store is cached on the matrix: repeated executors (a
        sweep's repeats) reuse the live segment instead of re-copying
        24 bytes per nonzero each call."""
        try:
            a = SharedMatrixStore.for_matrix(matrix)
            b = SharedMatrixStore.for_matrix(matrix)
            assert a is b
            a.close()
            # A closed (evicted) store is transparently re-published.
            c = SharedMatrixStore.for_matrix(matrix)
            assert c is not a
            assert c.handle.open() == matrix
        finally:
            close_matrix_stores()


class TestMatrixExecutorBackends:
    """Every backend returns identical, ordered results."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_map_matches_serial(self, matrix, backend):
        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [
            (None, "whole"),
            (idx[: matrix.nnz // 2], "lo"),
            (idx[matrix.nnz // 2:], "hi"),
            (idx[::3], "stride"),
        ]
        with MatrixExecutor(matrix, jobs=1) as ex:
            ref = ex.map(_nnz_and_rowsum, tasks)
        with MatrixExecutor(matrix, jobs=2, backend=backend) as ex:
            out = ex.map(_nnz_and_rowsum, tasks)
        assert out == ref
        assert [o[2] for o in out] == ["whole", "lo", "hi", "stride"]

    def test_jobs_one_degrades_to_serial(self, matrix):
        ex = MatrixExecutor(matrix, jobs=1, backend="process")
        assert ex.backend == "serial"

    def test_empty_map(self, matrix):
        with MatrixExecutor(matrix, jobs=2, backend="process") as ex:
            assert ex.map(_nnz_and_rowsum, []) == []

    def test_shm_payload_smaller_than_pickled(self, matrix):
        """The point of the store: handles + indices beat the submatrices
        the frozen pickled-payload pool ships."""
        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[: matrix.nnz // 2], 0), (idx[matrix.nnz // 2:], 1)]
        with MatrixExecutor(matrix, 2, "process") as shm_ex, \
                PickledMatrixExecutor(matrix, 2, "process") as pkl_ex:
            shm_bytes = shm_ex.payload_nbytes(tasks)
            pkl_bytes = pkl_ex.payload_nbytes(tasks)
        assert 0 < shm_bytes < pkl_bytes
        # A pickled submatrix carries rows+cols+vals (24 B per nonzero);
        # the handle path carries the int64 indices only.
        assert pkl_bytes > 2.5 * shm_bytes

    def test_payload_audit_counts_dispatches(self, matrix):
        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[::2], 0), (idx[1::2], 1)]
        with MatrixExecutor(matrix, 2, "process") as ex:
            with payload_audit() as audit:
                ex.map(_nnz_and_rowsum, tasks)
        assert audit["tasks"] == 2
        assert audit["bytes"] > 0
        # Inline backends ship nothing.
        with MatrixExecutor(matrix, 2, "thread") as ex:
            with payload_audit() as audit:
                ex.map(_nnz_and_rowsum, tasks)
        assert audit == {"bytes": 0, "tasks": 0}


class TestFailurePaths:
    def test_broken_pool_recovers_and_store_is_released(self, matrix):
        """A dying worker must poison neither the next call nor /dev/shm."""
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import shared_memory

        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[::2], 0), (idx[1::2], 1)]
        ex = MatrixExecutor(matrix, jobs=2, backend="process")
        with pytest.raises(BrokenProcessPool):
            with ex:
                name = ex._handle().name
                ex.map(_crash, tasks)
        # The segment survives the crash (it is owned by this process
        # and cached per matrix), and the owner-side cleanup removes it
        # — nothing accumulates in /dev/shm.
        close_matrix_stores()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        # The poisoned pool was dropped: a fresh executor works.
        with MatrixExecutor(matrix, jobs=2, backend="process") as ex2:
            out = ex2.map(_nnz_and_rowsum, tasks)
        assert [o[0] for o in out] == [tasks[0][0].size, tasks[1][0].size]

    def test_worker_death_detected_despite_nested_pools(self, matrix):
        """Grandchildren (inner pools of nested budget runs) inherit the
        worker's death sentinel; without parent-death signalling in the
        workers, an abrupt worker death would go undetected and ``map``
        would block forever instead of raising BrokenProcessPool."""
        import threading

        from concurrent.futures.process import BrokenProcessPool

        from repro.eval.runner import PAPER_METHODS
        from repro.eval.sweep import build_runspecs, run_sweep
        from repro.sparse.collection import build_collection
        from repro.utils.executor import drop_process_pool

        # Seed the shared pool's workers with inner pools: a budget
        # sweep whose specs carry inner recursion jobs.
        entries = [
            e for e in build_collection(tier="small")
            if e.name in ("sym_grid2d_s", "sqr_er_s")
        ]
        specs = build_runspecs(
            entries, PAPER_METHODS[:1], nruns=1, nparts=4
        )
        list(run_sweep(specs, jobs=JobsBudget(4)))

        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[::2], 0), (idx[1::2], 1)]
        outcome: dict = {}

        def crash_map():
            try:
                with MatrixExecutor(matrix, jobs=2, backend="process") as ex:
                    ex.map(_crash, tasks)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                outcome["exc"] = exc

        t = threading.Thread(target=crash_map, daemon=True)
        t.start()
        t.join(timeout=60)
        if t.is_alive():  # pragma: no cover - only on regression
            drop_process_pool()
            pytest.fail(
                "worker death went undetected — the nested-pool sentinel "
                "trap is back (grandchildren holding the worker sentinel)"
            )
        assert isinstance(outcome.get("exc"), BrokenProcessPool)
        # And the layer recovers, as in the plain crash test.
        with MatrixExecutor(matrix, jobs=2, backend="process") as ex2:
            out = ex2.map(_nnz_and_rowsum, tasks)
        assert [o[0] for o in out] == [t_[0].size for t_ in tasks]

    def test_shutdown_pools_idempotent(self):
        process_pool(2)
        shutdown_pools()
        shutdown_pools()
        # And the layer comes back after a full shutdown.
        assert process_pool(2) is process_pool(2)

    def test_nested_thread_backend_does_not_deadlock(self, matrix):
        """A thread-pool worker requesting the thread pool again (the
        sweep x recursion composition under the thread backend) must get
        a private pool, not the exhausted shared one — handing back the
        shared pool deadlocks permanently: every worker blocks on
        futures only the workers themselves could run."""
        from repro.utils.executor import thread_pool

        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[::2], 0), (idx[1::2], 1)]

        def outer(tag):
            with MatrixExecutor(matrix, jobs=2, backend="thread") as ex:
                return (tag, ex.map(_nnz_and_rowsum, tasks))

        pool = thread_pool(2)
        futs = [pool.submit(outer, t) for t in ("a", "b")]
        done = [f.result(timeout=120) for f in futs]
        assert [d[0] for d in done] == ["a", "b"]
        assert done[0][1] == done[1][1]

    def test_nested_partition_in_thread_pool(self, matrix):
        """Full nested composition: thread workers each running a
        thread-backed parallel recursion, bit-identical to serial."""
        from repro.core.recursive import partition
        from repro.utils.executor import thread_pool

        ref = partition(matrix, 8, seed=SEED, jobs=1)

        def run(_):
            return partition(
                matrix, 8, seed=SEED, jobs=2, exec_backend="thread"
            ).parts

        pool = thread_pool(2)
        futs = [pool.submit(run, i) for i in range(2)]
        for f in futs:
            np.testing.assert_array_equal(ref.parts, f.result(timeout=120))

    def test_concurrent_pool_requests_one_pool(self):
        """Unsynchronized check-then-act would let two threads each
        create the 'shared' process pool, leaking the loser's workers."""
        import threading

        shutdown_pools()
        got = []
        barrier = threading.Barrier(4)

        def grab():
            barrier.wait()
            got.append(process_pool(2))

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(p) for p in got}) == 1


class TestRecursionIntegration:
    """partition() through each backend: the end-to-end invisibility."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_partition_bit_identical(self, matrix, backend):
        from repro.core.recursive import partition

        ref = partition(matrix, 8, seed=SEED, jobs=1)
        res = partition(matrix, 8, seed=SEED, jobs=3, exec_backend=backend)
        np.testing.assert_array_equal(ref.parts, res.parts)
        assert ref.bisection_volumes == res.bisection_volumes

    def test_unknown_backend_rejected_by_config(self):
        from repro.errors import PartitioningError
        from repro.partitioner.config import PartitionerConfig

        with pytest.raises(PartitioningError):
            PartitionerConfig(exec_backend="mpi")
