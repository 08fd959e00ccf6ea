"""The shared execution layer: store, pool, budget, failure paths.

The layer's one contract is *invisibility*: inline and process-pool
execution deliver the same submatrices to the same tasks, so results are
bit-identical and ``jobs`` is a pure speed knob.  These tests pin that,
plus the parts that only show up when things go wrong — worker crashes
must not poison the persistent pool or leak shared-memory segments — and
the budget arithmetic the sweep x recursion composition rests on.
"""

import os

import numpy as np
import pytest

from benchmarks._baseline_e2e import PickledMatrixExecutor
from repro.sparse.generators import erdos_renyi
from repro.errors import DegradedExecution, ExecutionError
from repro.obs import metrics
from repro.utils.executor import (
    MatrixExecutor,
    RetryPolicy,
    SharedMatrixStore,
    close_matrix_stores,
    payload_audit,
    process_pool,
    resilient_map,
    shutdown_pools,
)
from repro.utils.parallel import resolve_jobs, split_jobs

SEED = 99


@pytest.fixture(scope="module")
def matrix():
    return erdos_renyi(60, 60, 400, seed=SEED)


# ------------------------------------------------------------------ #
# Module-level task functions (the process pool pickles by reference).
# ------------------------------------------------------------------ #
def _nnz_and_rowsum(sub, extra):
    return (sub.nnz, int(sub.rows.sum()), extra)


def _crash(sub, extra):
    os._exit(1)  # simulate a worker killed by OOM / signal


def _square(x):
    return x * x


def _refuse(x):
    raise ValueError(f"task {x} refused")


def _spanned_square(x):
    from repro.obs import trace

    with trace.span("task", x=x):
        return x * x


class TestJobsBudget:
    """split_jobs(): outer * inner <= total, outer <= outer_tasks, always
    >= 1."""

    def test_serial_budget(self):
        assert split_jobs(1, 10) == (1, 1)

    def test_more_tasks_than_jobs(self):
        assert split_jobs(4, 16) == (4, 1)

    def test_fewer_tasks_than_jobs_hands_down(self):
        assert split_jobs(8, 2) == (2, 4)

    def test_single_task_gets_everything(self):
        assert split_jobs(6, 1) == (1, 6)

    def test_zero_tasks(self):
        assert split_jobs(6, 0) == (1, 6)

    @pytest.mark.parametrize("total", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("tasks", [1, 2, 3, 4, 10])
    def test_invariant_holds_for_primes(self, total, tasks):
        outer, inner = split_jobs(total, tasks)
        assert outer >= 1 and inner >= 1
        assert outer <= max(1, tasks)
        assert outer * inner <= total

    def test_resolve_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_invalid_total_rejected(self):
        with pytest.raises(ValueError):
            split_jobs(0, 3)
        with pytest.raises(ValueError):
            resolve_jobs(-2)
        with pytest.raises(ValueError):
            split_jobs(3, -1)


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
    """Inline (``jobs=1``) and process-pool runs return identical,
    ordered results."""

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
    def test_map_matches_serial(self, matrix, jobs):
        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [
            (None, "whole"),
            (idx[: matrix.nnz // 2], "lo"),
            (idx[matrix.nnz // 2:], "hi"),
            (idx[::3], "stride"),
        ]
        ref = [
            _nnz_and_rowsum(matrix if i is None else matrix.select(i), x)
            for i, x in tasks
        ]
        with MatrixExecutor(matrix, jobs=jobs) as ex:
            out = ex.map(_nnz_and_rowsum, tasks)
        assert out == ref
        assert [o[2] for o in out] == ["whole", "lo", "hi", "stride"]

    def test_jobs_one_degrades_to_serial(self, matrix):
        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[::2], 0), (idx[1::2], 1)]
        ex = MatrixExecutor(matrix, jobs=1)
        assert ex.payload_nbytes(tasks) == 0
        with payload_audit() as audit:
            ex.map(_nnz_and_rowsum, tasks)
        assert audit == {"bytes": 0, "tasks": 0}
        assert ex._store is None, "an inline run publishes nothing"

    def test_empty_map(self, matrix):
        with MatrixExecutor(matrix, jobs=2) as ex:
            assert ex.map(_nnz_and_rowsum, []) == []

    def test_shm_payload_smaller_than_pickled(self, matrix):
        """The point of the store: handles + indices beat the submatrices
        the frozen pickled-payload pool ships."""
        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[: matrix.nnz // 2], 0), (idx[matrix.nnz // 2:], 1)]
        with MatrixExecutor(matrix, 2) as shm_ex, \
                PickledMatrixExecutor(matrix, 2) as pkl_ex:
            shm_bytes = shm_ex.payload_nbytes(tasks)
            pkl_bytes = pkl_ex.payload_nbytes(tasks)
        assert 0 < shm_bytes < pkl_bytes
        # A pickled submatrix carries rows+cols+vals (24 B per nonzero);
        # the handle path carries the int64 indices only.
        assert pkl_bytes > 2.5 * shm_bytes

    def test_payload_audit_counts_dispatches(self, matrix):
        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[::2], 0), (idx[1::2], 1)]
        with MatrixExecutor(matrix, 2) as ex:
            with payload_audit() as audit:
                ex.map(_nnz_and_rowsum, tasks)
        assert audit["tasks"] == 2
        assert audit["bytes"] > 0


class TestFailurePaths:
    def test_broken_pool_recovers_and_store_is_released(self, matrix):
        """A dying worker must poison neither the next call nor /dev/shm."""
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import shared_memory

        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[::2], 0), (idx[1::2], 1)]
        ex = MatrixExecutor(matrix, jobs=2)
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
        with MatrixExecutor(matrix, jobs=2) as ex2:
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

        # Seed the shared pool's workers with inner pools: a budget of 4
        # over two p = 4 runs gives each run 2 recursion workers.
        entries = [
            e for e in build_collection(tier="small")
            if e.name in ("sym_grid2d_s", "sqr_er_s")
        ]
        specs = build_runspecs(
            entries, PAPER_METHODS[:1], nruns=1, nparts=4
        )
        list(run_sweep(specs, jobs=4))

        idx = np.arange(matrix.nnz, dtype=np.int64)
        tasks = [(idx[::2], 0), (idx[1::2], 1)]
        outcome: dict = {}

        def crash_map():
            try:
                with MatrixExecutor(matrix, jobs=2) as ex:
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
        with MatrixExecutor(matrix, jobs=2) as ex2:
            out = ex2.map(_nnz_and_rowsum, tasks)
        assert [o[0] for o in out] == [t_[0].size for t_ in tasks]

    def test_shutdown_pools_idempotent(self):
        process_pool(2)
        shutdown_pools()
        shutdown_pools()
        # And the layer comes back after a full shutdown.
        assert process_pool(2) is process_pool(2)

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


class TestDispatchLoop:
    """resilient_map: a bounded window, task order, and the three ways a
    task out of retries is settled."""

    def test_window_and_order(self):
        tasks = metrics.REGISTRY.get("repro_executor_tasks_total")
        before = tasks.value
        stream = resilient_map(2, _square, range(10), policy=RetryPolicy())
        first = next(stream)
        assert tasks.value - before <= 4  # 2 * jobs ahead of the head
        rest = list(stream)
        assert [v for v, _ in [first] + rest] == [x * x for x in range(10)]
        assert all(fails == [] for _, fails in [first] + rest)

    def test_default_policy_raises_the_task_exception(self):
        with pytest.raises(ValueError, match="task 0 refused"):
            list(resilient_map(2, _refuse, [0, 1], policy=RetryPolicy()))

    def test_armed_policy_degrades_to_the_fallback(self):
        policy = RetryPolicy(retries=1, backoff=0.0)
        out = list(resilient_map(
            2, _refuse, [3, 4], policy=policy, fallback=lambda i: -i,
        ))
        assert [v for v, _ in out] == [0, -1]
        for _, fails in out:
            assert [type(f) for f in fails] == [
                ExecutionError, ExecutionError, DegradedExecution,
            ]

    def test_no_fallback_refuses_with_the_failure_records(self):
        policy = RetryPolicy(retries=1, backoff=0.0)
        with pytest.raises(DegradedExecution) as info:
            list(resilient_map(2, _refuse, [5], policy=policy,
                               labels=["req"]))
        assert [f.brief() for f in info.value.failures] == [
            "ExecutionError[req]@attempt1", "ExecutionError[req]@attempt2",
        ]

    def test_worker_spans_join_the_callers_span(self, tmp_path):
        """The loop hands the caller's trace context to every task."""
        from repro.obs import trace
        from repro.obs.report import read_trace

        path = tmp_path / "trace.jsonl"
        trace.enable(str(path))
        try:
            with trace.span("caller") as caller:
                out = list(resilient_map(
                    2, _spanned_square, range(4), policy=RetryPolicy(),
                ))
        finally:
            trace.disable()
        assert [v for v, _ in out] == [0, 1, 4, 9]
        tasks = [r for r in read_trace(str(path)) if r["name"] == "task"]
        assert sorted(r["attrs"]["x"] for r in tasks) == [0, 1, 2, 3]
        assert all(r["pid"] != os.getpid() for r in tasks)
        assert {r["parent"] for r in tasks} == {caller.span_id}
        assert {r["trace"] for r in tasks} == {caller.trace_id}


class TestRecursionIntegration:
    """partition() through the process pool: the end-to-end invisibility."""

    def test_partition_bit_identical(self, matrix):
        from repro.core.recursive import partition

        ref = partition(matrix, 8, seed=SEED, jobs=1)
        res = partition(matrix, 8, seed=SEED, jobs=3)
        np.testing.assert_array_equal(ref.parts, res.parts)
        assert ref.bisection_volumes == res.bisection_volumes
