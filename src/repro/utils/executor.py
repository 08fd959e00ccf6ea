"""Unified zero-copy execution layer for every parallel subsystem.

Two subsystems run work concurrently — the sweep engine
(:mod:`repro.eval.sweep`, parallel *across* runs) and recursive bisection
(:mod:`repro.core.recursive`, parallel *within* one p-way partitioning).
Before this layer existed each owned a private
:class:`~concurrent.futures.ProcessPoolExecutor` and every bisection task
pickled a full submatrix (rows + cols + vals, 24 bytes per nonzero) into
its worker.  This module replaces both with one shared engine built from
three pieces:

Shared-memory matrix store
    :class:`SharedMatrixStore` publishes a matrix's canonical flat arrays
    **once** via :mod:`multiprocessing.shared_memory`; workers receive a
    :class:`MatrixHandle` (a name plus the shape — a few dozen bytes) and
    an index range instead of a pickled submatrix.  The handle attaches
    zero-copy: the worker-side :class:`~repro.sparse.matrix.SparseMatrix`
    views the shared segment directly through
    :meth:`~repro.sparse.matrix.SparseMatrix.from_canonical`.

Execution backends
    :class:`MatrixExecutor` delivers ``(submatrix, extra)`` tasks to
    workers under three interchangeable backends: ``"serial"`` (inline),
    ``"thread"`` (a shared :class:`~concurrent.futures.ThreadPoolExecutor`
    — zero-copy by construction), and ``"process"`` (process pool +
    shared-memory store).  ``"auto"`` is ``"process"``: the python
    kernels hold the GIL, so only processes run them in parallel.  All
    backends are bit-identical by construction: they only change how a
    task's inputs travel, never what the task computes.

Jobs budget
    :class:`JobsBudget` makes one ``--jobs N`` composable across nesting
    levels: ``budget.split(n_outer)`` divides the total between
    outer-level workers (sweep chunks) and inner-level workers (the
    recursion tree inside each run) so ``outer * inner <= total`` —
    nested pools can no longer oversubscribe the machine.

The worker pools are persistent (fork/spawn cost paid once per process,
not once per call) and shut down exactly once through exit hooks that
cover both plain interpreters (:mod:`atexit`) and multiprocessing
children (:class:`multiprocessing.util.Finalize` — children skip atexit),
so no live executor or shared-memory segment leaks at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import (
    DegradedExecution,
    ExecutionError,
    ShmAttachError,
    TaskTimeout,
    WorkerCrash,
)
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sparse.matrix import SparseMatrix
from repro.utils import faults
from repro.utils.parallel import resolve_jobs

__all__ = [
    "EXEC_BACKEND_CHOICES",
    "STORE_CAP",
    "JobsBudget",
    "RetryPolicy",
    "MatrixHandle",
    "SharedMatrixStore",
    "MatrixExecutor",
    "resolve_exec_backend",
    "process_pool",
    "thread_pool",
    "pool_map",
    "pool_submit",
    "resilient_map",
    "resilient_call",
    "shutdown_pools",
    "close_matrix_stores",
    "payload_audit",
    "account_payload",
]

#: Valid values of ``PartitionerConfig.exec_backend`` / ``--exec-backend``.
EXEC_BACKEND_CHOICES = ("auto", "serial", "thread", "process")

# Observability (see docs/observability.md): dispatch volume, hardened
# task latency, and the hardening events.  Plain process-local adds —
# never consulted by the execution layer itself.
_EXEC_TASKS = _metrics.counter(
    "repro_executor_tasks_total",
    "Tasks dispatched through the execution layer",
    ("backend",),
)
_EXEC_TASK_SECONDS = _metrics.histogram(
    "repro_executor_task_seconds",
    "Submit-to-completion latency of hardened (resilient) tasks",
)
_EXEC_RETRIES = _metrics.counter(
    "repro_executor_retries_total",
    "Task resubmissions (crash, timeout, invalid result)",
)
_EXEC_WATCHDOG_KILLS = _metrics.counter(
    "repro_executor_watchdog_kills_total",
    "Watchdog pool kills fired for tasks past their deadline",
)
_EXEC_DEGRADED = _metrics.counter(
    "repro_executor_degraded_total",
    "Tasks completed by the serial in-process last rung",
)
_PAYLOAD_BYTES = _metrics.counter(
    "repro_executor_payload_bytes_total",
    "Pickled task payload bytes shipped to workers "
    "(counted while a payload audit is active)",
)
_PAYLOAD_TASKS = _metrics.counter(
    "repro_executor_payload_tasks_total",
    "Tasks whose payloads were measured by a payload audit",
)


def resolve_exec_backend(spec: str = "auto") -> str:
    """Resolve an execution-backend spec to a concrete backend name.

    ``"auto"`` is ``"process"``: worker processes over the shared-memory
    matrix store.
    """
    if spec == "auto":
        return "process"
    if spec not in EXEC_BACKEND_CHOICES:
        raise ValueError(
            f"unknown execution backend {spec!r}; "
            f"expected one of {EXEC_BACKEND_CHOICES}"
        )
    return spec


# --------------------------------------------------------------------- #
# Jobs budget
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class JobsBudget:
    """A global worker budget composable across nesting levels.

    One ``--jobs N`` request names the *total* number of workers the user
    wants busy; :meth:`split` divides it between an outer level (sweep
    chunks) and an inner level (the recursion tree inside each run) so
    that ``outer * inner <= total`` — the invariant that keeps nested
    parallelism from oversubscribing the machine.

    The split is a pure function of ``(total, outer_tasks)``, and every
    ``jobs`` value is a speed knob only (results are bit-identical by the
    position-keyed seed-stream contract), so budgets never change what a
    sweep or partitioning computes.
    """

    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError(
                f"JobsBudget.total must be >= 1, got {self.total}"
            )

    @classmethod
    def resolve(cls, jobs: int | None) -> "JobsBudget":
        """Budget from a user ``jobs`` request (``None``/``0`` = CPUs)."""
        return cls(resolve_jobs(jobs))

    def split(self, outer_tasks: int) -> tuple[int, int]:
        """Divide the budget over ``outer_tasks`` independent outer items.

        Returns ``(outer_workers, inner_jobs)`` with ``outer_workers <=
        max(1, outer_tasks)`` and ``outer_workers * inner_jobs <= total``.
        The outer level is saturated first (outer items are fully
        independent, so they scale perfectly); whatever remains is handed
        down — e.g. a budget of 8 over 2 instances runs 2 sweep workers
        with 4 recursion workers each, while a budget of 8 over 16
        instances runs 8 sweep workers with serial recursion.
        """
        if outer_tasks < 0:
            raise ValueError(f"outer_tasks must be >= 0, got {outer_tasks}")
        if self.total <= 1 or outer_tasks <= 1:
            return (1, self.total)
        outer = min(self.total, outer_tasks)
        return outer, max(1, self.total // outer)


# --------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + retry budget for hardened task execution.

    ``timeout`` is the per-task deadline in seconds (``None``/``0`` = no
    deadline — exactly today's behaviour); ``retries`` is how many times
    a crashed / timed-out / invalid task is resubmitted before the
    degradation ladder's last rung (serial in-process execution) runs
    it.  Resubmissions back off exponentially — ``backoff * 2**(attempt
    - 1)`` seconds, capped at ``backoff_cap`` — with *no jitter*: the
    execution layer is deterministic by contract, and its failure
    handling is too.
    """

    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            # 0 is the CLI's "disabled" spelling.
            object.__setattr__(self, "timeout", None)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @property
    def active(self) -> bool:
        """Whether this policy changes anything at all (the fast chunked
        dispatch path is used whenever it does not)."""
        return self.timeout is not None or self.retries > 0

    def delay_for(self, attempt: int) -> float:
        """Capped exponential backoff before resubmission ``attempt``."""
        return min(self.backoff_cap, self.backoff * 2.0 ** max(0, attempt - 1))

    @classmethod
    def resolve(cls, timeout: float | None, retries: int | None) -> "RetryPolicy":
        """Policy from user knobs (``None``/``0`` each preserve today's
        behaviour exactly)."""
        return cls(timeout=timeout or None, retries=retries or 0)


# --------------------------------------------------------------------- #
# Persistent pools (shared by the sweep engine and recursive bisection)
# --------------------------------------------------------------------- #
#: ``(owner_pid, size, pool)`` — the pid guards against fork inheritance:
#: a worker process forked from a parent that held a live pool inherits
#: the pool *object* but not its management thread or worker processes,
#: so using it would hang forever.  Nested parallelism (a sweep worker
#: running parallel recursion under a :class:`JobsBudget`) therefore
#: creates its own pool on first use in each process.
_PROCESS_POOL: tuple[int, int, ProcessPoolExecutor] | None = None
_THREAD_POOL: tuple[int, int, ThreadPoolExecutor] | None = None

#: Guards every module-level singleton (the two pools, the store
#: registry): the thread backend makes concurrent calls into this module
#: a normal condition, and unguarded check-then-act would let two
#: threads each create (or worse, one retire while the other submits to)
#: the "shared" pool.
_LOCK = threading.RLock()

#: Thread-local nesting state.  ``in_worker`` is set (via the pool
#: initializer) in every thread the layer creates; a nested
#: ``thread_pool`` request from such a thread gets a *private*
#: per-thread pool instead of the shared one — handing a worker the very
#: pool it runs on would deadlock the moment all workers block on
#: futures only they could execute (the sweep x recursion composition
#: under the thread backend).
_TLS = threading.local()


def _mark_worker() -> None:
    _TLS.in_worker = True


#: True in processes that are workers of *this layer's* process pools
#: (set by the pool initializer in every child).  A worker creating its
#: own inner pool passes the flag down so grandchildren know they are
#: nested — the explicit marker the parent-death arming below keys on
#: (``multiprocessing.parent_process()`` would be wrong: a host
#: application may legitimately run this library inside its own mp
#: child, whose pools are top-level as far as this layer is concerned).
_IS_POOL_WORKER = False


def _process_worker_init(nested: bool) -> None:
    """Process-pool worker initializer: arm parent-death signalling.

    A worker running nested parallelism (a sweep chunk driving parallel
    recursion under a :class:`JobsBudget`) owns an *inner* pool whose
    grandchildren inherit every fd of the worker — including the
    sentinel write end the outer pool watches for worker death.  If the
    worker then dies abruptly (``os._exit``, OOM kill, signal), the
    orphaned grandchildren keep that sentinel open and the outer pool
    never detects the death: ``map()`` blocks forever instead of
    raising :class:`BrokenProcessPool`.  ``PR_SET_PDEATHSIG`` makes the
    kernel SIGTERM a worker's children the moment the worker dies,
    releasing the sentinel (and reaping the orphans).  Linux-only;
    elsewhere this is a no-op and abrupt-death detection simply relies
    on graceful shutdown, as before.

    Only *nested* pools (``nested=True`` — created inside one of this
    layer's own pool workers) arm this: the signal fires when the
    forking **thread** dies, not the process (prctl(2)), and a
    top-level pool may be lazily forked from a transient caller thread
    — arming there would SIGTERM healthy workers when that thread
    exits.  Inside a worker, pools are forked from the worker's task
    loop (its main thread), which lives exactly as long as the worker,
    so the signal means what we want.
    """
    global _IS_POOL_WORKER
    _IS_POOL_WORKER = True
    # A forked worker also inherits the parent's signal plumbing.  When
    # the parent runs an asyncio loop (the serving daemon), that
    # includes the C-level wakeup fd of ``loop.add_signal_handler`` —
    # which, after fork, still writes into the *parent's* self-pipe.  A
    # worker that then receives any handled signal (concurrent.futures
    # SIGTERMs the survivors of a broken pool) would deliver that byte
    # into the parent's loop, convincing the daemon *it* was signalled
    # and draining it mid-crash-recovery.  Detach the fd and restore
    # default dispositions before the worker can catch anything.
    import signal as _sig

    _sig.set_wakeup_fd(-1)
    for signum in (_sig.SIGTERM, _sig.SIGINT):
        try:
            _sig.signal(signum, _sig.SIG_DFL)
        except (OSError, ValueError):  # pragma: no cover - non-main thread
            pass
    # A forked worker inherits the parent's fault-injection hit counters
    # (and its hang-release flag); a worker's per-process hit indices
    # must start at 1 for fault plans to be deterministic.
    faults.reset()
    faults._RELEASE.clear()
    if not nested:
        return
    try:  # pragma: no cover - exercised via the nested crash test
        import ctypes
        import signal as _signal

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, _signal.SIGTERM, 0, 0, 0)  # 1 == PR_SET_PDEATHSIG
    except Exception:
        pass

#: Which process has exit hooks installed (fork resets the guard's
#: meaning, hence a pid, not a bool).
_EXIT_HOOK_PID: int | None = None


def _ensure_exit_hook() -> None:
    """Install the pool-shutdown exit hook in *this* process, once.

    Plain interpreters run :mod:`atexit` handlers, but multiprocessing
    children exit through ``os._exit`` after ``util._exit_function`` —
    which joins every non-daemon child process *without* running atexit.
    A sweep worker holding an inner recursion pool would therefore hang
    forever joining grandchildren nobody told to stop.  Registering the
    shutdown as a :class:`multiprocessing.util.Finalize` (exitpriority
    ``>= 0`` runs *before* the join) covers both worlds.
    """
    global _EXIT_HOOK_PID
    pid = os.getpid()
    if _EXIT_HOOK_PID == pid:
        return
    _EXIT_HOOK_PID = pid
    atexit.register(shutdown_pools)
    try:
        from multiprocessing import util

        util.Finalize(None, shutdown_pools, kwargs={"wait": True},
                      exitpriority=100)
    except Exception:  # pragma: no cover - exotic mp configurations
        pass


def process_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared process pool for ``jobs`` workers (created/resized on
    use).  Workers are stateless between tasks — every payload is
    self-contained — so reuse cannot leak results across calls, and the
    fork/spawn cost is paid once per interpreter instead of once per
    call.  Requesting a different size retires the old pool first
    (``shutdown(wait=False)`` lets already-submitted work drain; use
    :func:`pool_map` to make fetch + submit atomic against a concurrent
    resize)."""
    global _PROCESS_POOL
    with _LOCK:
        pid = os.getpid()
        if _PROCESS_POOL is not None:
            if _PROCESS_POOL[:2] == (pid, jobs):
                return _PROCESS_POOL[2]
            if _PROCESS_POOL[0] == pid:
                _PROCESS_POOL[2].shutdown(wait=False)
        _ensure_exit_hook()
        try:
            # Spawn the (singleton) shared-memory resource tracker
            # *before* forking workers, so they inherit its pipe.  A
            # worker that attaches a segment with no inherited tracker
            # would spawn its own, which then mis-reports the
            # parent-owned segments as leaked when the worker exits.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - exotic mp configurations
            pass
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_process_worker_init,
            initargs=(_IS_POOL_WORKER,),
        )
        _PROCESS_POOL = (pid, jobs, pool)
        return pool


def thread_pool(jobs: int) -> ThreadPoolExecutor:
    """The shared thread pool (grown to at least ``jobs``, never shrunk —
    idle threads are nearly free, unlike idle processes).

    Calls from *inside* one of the layer's own worker threads (a sweep
    chunk running parallel recursion under a :class:`JobsBudget`) get a
    private per-thread pool instead: the shared pool's workers are
    exactly the threads blocking on the nested futures, so handing it
    back would deadlock permanently.
    """
    if getattr(_TLS, "in_worker", False):
        cached = getattr(_TLS, "pool", None)
        if cached is not None and cached[0] >= jobs:
            return cached[1]
        if cached is not None:
            cached[1].shutdown(wait=False)
        pool = ThreadPoolExecutor(max_workers=jobs, initializer=_mark_worker)
        _TLS.pool = (jobs, pool)
        return pool
    global _THREAD_POOL
    with _LOCK:
        pid = os.getpid()
        if _THREAD_POOL is not None:
            if _THREAD_POOL[0] == pid and _THREAD_POOL[1] >= jobs:
                return _THREAD_POOL[2]
            if _THREAD_POOL[0] == pid:
                _THREAD_POOL[2].shutdown(wait=False)
        _ensure_exit_hook()
        pool = ThreadPoolExecutor(max_workers=jobs, initializer=_mark_worker)
        _THREAD_POOL = (pid, jobs, pool)
        return pool


def pool_map(kind: str, jobs: int, fn, items, chunksize: int = 1):
    """Fetch the shared pool and submit ``items`` atomically.

    Submission happens under the layer's lock so a concurrent resize
    cannot retire the pool between the fetch and the submit (executor
    ``map`` submits every item eagerly; only result consumption is
    lazy, and retired pools drain already-submitted work).
    """
    try:
        _EXEC_TASKS.labels(backend=kind).inc(len(items))
    except TypeError:  # pragma: no cover - generator payloads
        pass
    with _LOCK:
        if kind == "thread":
            return thread_pool(jobs).map(fn, items)
        return process_pool(jobs).map(fn, items, chunksize=chunksize)


def pool_submit(kind: str, jobs: int, fn, item):
    """Fetch the shared pool and submit one task atomically.

    The single-item counterpart of :func:`pool_map`, for callers that
    schedule work incrementally (the sweep engine submits chunks in a
    bounded window so each chunk's shared-memory store is published just
    before its worker needs it).  Returns the future.
    """
    _EXEC_TASKS.labels(backend=kind).inc()
    with _LOCK:
        if kind == "thread":
            return thread_pool(jobs).submit(fn, item)
        return process_pool(jobs).submit(fn, item)


def drop_process_pool() -> None:
    """Forget the shared process pool (it is broken or being replaced).

    Called after :class:`BrokenProcessPool` so the next parallel call
    starts a fresh pool instead of failing forever.
    """
    global _PROCESS_POOL
    with _LOCK:
        _PROCESS_POOL = None


def _watchdog_kill_pool() -> None:
    """SIGKILL every worker of the shared process pool and forget it.

    The watchdog's hammer: a task past its deadline is *hung* — it will
    never return, cooperative cancellation cannot reach it, and the
    futures API cannot cancel running work.  Killing the workers breaks
    the pool (in-flight siblings fail with :class:`BrokenProcessPool`
    and are resubmitted as collateral, without consuming their retry
    budget); the next submission builds a fresh pool.  Shared-memory
    segments are unaffected — they are owned and cleaned by this
    (parent) process, never by workers.
    """
    global _PROCESS_POOL
    with _LOCK:
        entry, _PROCESS_POOL = _PROCESS_POOL, None
    if entry is None or entry[0] != os.getpid():
        return
    pool = entry[2]
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    pool.shutdown(wait=False)


def resilient_map(
    kind: str,
    jobs: int,
    fn,
    items: list,
    *,
    policy: RetryPolicy,
    fallback,
    validate=None,
    labels=None,
) -> tuple[list, list[list[ExecutionError]]]:
    """Run ``fn(item)`` per item on the shared pool under ``policy``.

    The hardened counterpart of :func:`pool_map`: per-task deadlines
    (with the watchdog killing hung workers and rebuilding the pool),
    bounded retry with capped exponential backoff for crashed /
    timed-out / invalid results, and — after the retry budget is
    exhausted — serial in-process completion via ``fallback(index)``,
    so the map *always* returns a full result list.

    ``validate(index, value)`` (optional) is applied to every result at
    this boundary; a :class:`~repro.errors.ResultValidationError` it
    raises is treated exactly like a crash and the task retried.
    Returns ``(values, failures)`` with ``failures[i]`` the structured
    failure records (:class:`~repro.errors.ExecutionError` instances)
    task ``i`` accumulated on its way to completion; an untroubled task
    has an empty list.

    Thread-backend caveat: threads cannot be killed, so a timed-out
    thread task is *abandoned* (recorded as a timeout and resubmitted;
    the stale thread's result is discarded when it eventually lands).
    """
    n = len(items)
    values: list = [None] * n
    completed = [False] * n
    failures: list[list[ExecutionError]] = [[] for _ in range(n)]
    attempts = [0] * n
    ready = [0.0] * n
    queue: deque[int] = deque(range(n))
    degraded: list[int] = []
    pending: dict = {}
    collateral: set[int] = set()
    is_process = kind != "thread"

    def _label(i: int) -> str:
        return labels[i] if labels is not None else f"task{i}"

    def _submit(i: int) -> None:
        try:
            fut = pool_submit(kind, jobs, fn, items[i])
        except BrokenProcessPool:
            # The shared pool broke between our calls; start fresh.
            drop_process_pool()
            fut = pool_submit(kind, jobs, fn, items[i])
        now = time.monotonic()
        deadline = now + policy.timeout if policy.timeout is not None else None
        pending[fut] = (i, deadline, now)

    def _fail(i: int, exc: ExecutionError) -> None:
        failures[i].append(exc)
        _EXEC_RETRIES.inc()
        _trace.event("task_failure", task=_label(i),
                     kind=type(exc).__name__, attempt=attempts[i])
        if attempts[i] > policy.retries:
            degraded.append(i)
        else:
            ready[i] = time.monotonic() + policy.delay_for(attempts[i])
            queue.append(i)

    def _accept(i: int, value) -> None:
        if validate is not None:
            from repro.errors import ResultValidationError

            try:
                validate(i, value)
            except ResultValidationError as exc:
                attempts[i] += 1
                exc.task = exc.task or _label(i)
                exc.attempt = attempts[i]
                _fail(i, exc)
                return
        values[i] = value
        completed[i] = True

    while queue or pending:
        now = time.monotonic()
        deferred: list[int] = []
        while queue:
            i = queue.popleft()
            if ready[i] > now:
                deferred.append(i)
            else:
                _submit(i)
        queue.extend(deferred)
        if not pending:
            if queue:  # everything is backing off; sleep to the earliest
                time.sleep(
                    max(0.0, min(ready[i] for i in queue) - time.monotonic())
                )
            continue
        wake = min(
            (d for (_, d, _t) in pending.values() if d is not None),
            default=None,
        )
        if queue:
            nxt = min(ready[i] for i in queue)
            wake = nxt if wake is None else min(wake, nxt)
        wait_s = None if wake is None else max(0.0, wake - time.monotonic())
        done, _ = futures_wait(
            set(pending), timeout=wait_s, return_when=FIRST_COMPLETED
        )
        for fut in done:
            i, _deadline, t_submit = pending.pop(fut)
            _EXEC_TASK_SECONDS.observe(time.monotonic() - t_submit)
            try:
                value = fut.result()
            except BrokenProcessPool:
                if i in collateral:
                    # An innocent victim of a watchdog kill or a sibling
                    # crash: resubmit without touching its retry budget.
                    collateral.discard(i)
                    queue.append(i)
                else:
                    attempts[i] += 1
                    _fail(i, WorkerCrash(
                        "worker process died while the task was in "
                        "flight", task=_label(i), attempt=attempts[i],
                    ))
                continue
            except Exception as exc:
                attempts[i] += 1
                _fail(i, ExecutionError(
                    f"task raised {type(exc).__name__}: {exc}",
                    task=_label(i), attempt=attempts[i],
                ))
                continue
            collateral.discard(i)
            _accept(i, value)
        # Watchdog sweep: anything past its deadline is hung.
        now = time.monotonic()
        expired = [
            (fut, i)
            for fut, (i, d, _t) in pending.items()
            if d is not None and d <= now
        ]
        if expired:
            for fut, i in expired:
                # Thread backend: the future cannot be cancelled — the
                # stale thread is simply abandoned (it is released when
                # a fault plan is uninstalled) and its result discarded.
                # Process backend: the worker is about to be killed.
                del pending[fut]
                attempts[i] += 1
                _fail(i, TaskTimeout(
                    f"task exceeded its {policy.timeout:.3g}s deadline",
                    task=_label(i), attempt=attempts[i],
                    timeout=policy.timeout,
                ))
            if is_process:
                # Kill the hung workers; siblings still in flight become
                # collateral and are resubmitted on the rebuilt pool.
                for _fut, (i, _d, _t) in pending.items():
                    collateral.add(i)
                _EXEC_WATCHDOG_KILLS.inc()
                _trace.event(
                    "watchdog_kill", expired=len(expired),
                    collateral=len(pending),
                )
                _watchdog_kill_pool()
    # Degradation ladder's last rung: whatever the pool could not
    # deliver is computed serially in-process, so the map always
    # completes.  A validation failure here is terminal — there is no
    # further fallback that could produce a trustworthy result.
    for i in degraded:
        if completed[i]:  # pragma: no cover - defensive
            continue
        _EXEC_DEGRADED.inc()
        _trace.event("degraded_execution", task=_label(i))
        value = fallback(i)
        if validate is not None:
            validate(i, value)
        values[i] = value
        completed[i] = True
        failures[i].append(DegradedExecution(
            "retry budget exhausted on the worker pool; completed by "
            "serial in-process execution", task=_label(i),
            attempt=attempts[i],
        ))
    return values, failures


def resilient_call(
    kind: str,
    jobs: int,
    fn,
    item,
    *,
    policy: RetryPolicy,
    fallback=None,
    validate=None,
    label: str = "",
) -> tuple[object, list[ExecutionError]]:
    """Run one ``fn(item)`` task on the shared pool under ``policy``.

    The single-item counterpart of :func:`resilient_map`, for callers
    that dispatch work one request at a time (the serving daemon): same
    deadline/watchdog/retry semantics, returning ``(value, failures)``.

    ``fallback`` defaults to *refusing* inline completion: a serving
    process must never run a request that repeatedly killed its workers
    inside its own address space, so with the retry budget exhausted a
    :class:`~repro.errors.DegradedExecution` is raised (carrying every
    accumulated failure record on its ``failures`` attribute) instead of
    degrading — the caller turns it into a structured per-request error.
    Pass an explicit ``fallback(index)`` to opt back into the batch
    layer's degrade-to-inline ladder.
    """
    refused = object()
    refusing = fallback is None
    if refusing:
        fallback = lambda _i: refused  # noqa: E731

        if validate is not None:
            inner_validate = validate

            def validate(i, value):  # noqa: F811 - deliberate wrap
                if value is not refused:
                    inner_validate(i, value)

    values, failures = resilient_map(
        kind, jobs, fn, [item],
        policy=policy, fallback=fallback, validate=validate,
        labels=[label] if label else None,
    )
    if refusing and values[0] is refused:
        exc = DegradedExecution(
            "retry budget exhausted on the worker pool; inline fallback "
            "is disabled for isolated requests", task=label,
        )
        # The pre-degradation records: the request's full failure story.
        exc.failures = [f for f in failures[0]
                        if not isinstance(f, DegradedExecution)]
        raise exc
    return values[0], failures[0]


def shutdown_pools(wait: bool = False) -> None:
    """Shut down every shared pool (idempotent; registered with atexit).

    Before this layer, :mod:`repro.core.recursive` kept a module-level
    pool alive at interpreter exit; the atexit hook guarantees worker
    processes are reaped no matter which subsystem created them.
    """
    global _PROCESS_POOL, _THREAD_POOL
    # Detach the singletons under the lock, but run the (possibly
    # blocking, wait=True) shutdowns outside it: a still-running worker
    # that needs the lock must not deadlock against the join.
    pools = []
    with _LOCK:
        pid = os.getpid()
        if _PROCESS_POOL is not None:
            if _PROCESS_POOL[0] == pid:
                pools.append(_PROCESS_POOL[2])
            _PROCESS_POOL = None
        if _THREAD_POOL is not None:
            if _THREAD_POOL[0] == pid:
                pools.append(_THREAD_POOL[2])
            _THREAD_POOL = None
    for pool in pools:
        pool.shutdown(wait=wait)
    close_matrix_stores()


# --------------------------------------------------------------------- #
# Shared-memory matrix store
# --------------------------------------------------------------------- #
#: Per-process cache of attached segments: name -> (shm, matrix).  A
#: worker typically serves many tasks of the same partitioning call, so
#: the attach (open + mmap + view construction) is paid once per matrix
#: per worker.  Bounded: entries beyond the cap are closed oldest-first
#: (a worker only ever needs the segments of the calls in flight).
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, SparseMatrix]] = {}
_ATTACH_CAP = 4


@dataclass(frozen=True)
class MatrixHandle:
    """A picklable, few-dozen-byte reference to a published matrix.

    ``open()`` reconstructs the matrix zero-copy in any process on the
    same machine: the arrays are read-only views of the shared segment,
    so *no* nonzero data crosses the pickle boundary.  ``label`` names
    the matrix for humans (e.g. the collection-instance name) so attach
    failures can say *which* matrix vanished, not just which segment.
    """

    name: str
    shape: tuple[int, int]
    nnz: int
    label: str = ""

    def open(self) -> SparseMatrix:
        """Attach (cached per process) and view the published matrix.

        Raises :class:`~repro.errors.ShmAttachError` when the segment no
        longer exists (evicted past ``STORE_CAP``, or unlinked by an
        exiting owner) — a clear, catchable signal that callers holding
        the instance name should rebuild the matrix by name instead
        (the sweep engine's fallback path).
        """
        cached = _ATTACHED.get(self.name)
        if cached is not None:
            return cached[1]
        try:
            faults.fault_point("shm.attach")
            # NOTE: attaching re-registers the name with the (single,
            # shared) resource tracker; that is a set-add no-op, and the
            # creator's unlink unregisters it exactly once — so no
            # explicit untracking here (an attach-side unregister would
            # *steal* the creator's entry and make its unlink-time
            # unregister fail).
            shm = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError as exc:
            what = self.label or f"{self.shape[0]}x{self.shape[1]} matrix"
            raise ShmAttachError(
                f"shared-memory segment {self.name!r} for {what} "
                f"(nnz={self.nnz}) is gone — evicted or unlinked; "
                f"rebuild the matrix by name to recover",
                task=self.label,
            ) from exc
        matrix = _matrix_from_buffer(shm.buf, self.shape, self.nnz)
        while len(_ATTACHED) >= _ATTACH_CAP:
            stale = next(iter(_ATTACHED))
            _close_attachment(*_ATTACHED.pop(stale))
        _ATTACHED[self.name] = (shm, matrix)
        return matrix


def _close_attachment(shm: shared_memory.SharedMemory, matrix) -> None:
    """Close a cached attachment, tolerating still-live array views.

    ``mmap`` refuses to close while NumPy views of the buffer exist
    (callers may legitimately hold the matrix a little longer); the
    mapping is then reclaimed when the views die or the process exits —
    the *segment* itself is owned and unlinked by the creating process
    either way.
    """
    del matrix
    try:
        shm.close()
    except BufferError:  # pragma: no cover - caller still holds views
        pass


def _matrix_from_buffer(
    buf, shape: tuple[int, int], nnz: int
) -> SparseMatrix:
    """Zero-copy matrix over a packed ``rows | cols | vals`` buffer."""
    nb = 8 * nnz
    rows = np.ndarray(nnz, dtype=np.int64, buffer=buf, offset=0)
    cols = np.ndarray(nnz, dtype=np.int64, buffer=buf, offset=nb)
    vals = np.ndarray(nnz, dtype=np.float64, buffer=buf, offset=2 * nb)
    return SparseMatrix.from_canonical(shape, rows, cols, vals)


#: How many published matrices stay alive at once (LRU past this).  A
#: long-running service partitioning many matrices keeps at most this
#: many segments; evicted stores are closed (and lazily re-published if
#: their matrix comes back).  Public so producers pacing their
#: publications (the sweep engine's submission window) can stay inside
#: the cap instead of racing their own evictions.
STORE_CAP = 8

#: Live stores in creation order, for exit cleanup and the LRU cap.
_STORES: list["SharedMatrixStore"] = []
_STORE_KEY = "shm_store"


class SharedMatrixStore:
    """Publish one matrix's flat arrays in shared memory, once.

    The segment packs the canonical ``rows``/``cols``/``vals`` arrays
    back to back (all 8-byte dtypes, so the layout is three contiguous
    blocks of ``8 * nnz`` bytes).  Use :meth:`for_matrix` in preference
    to the constructor: the store is then cached on the (immutable)
    matrix like ``SpMVState``, so the 24-bytes-per-nonzero publication
    is paid once per matrix per process — repeated partitionings of one
    matrix (a sweep, a service loop, the benchmark's repeats) reuse the
    live segment.

    The creating process owns the segment's lifetime: :meth:`close`
    detaches and unlinks it, cached stores are closed at interpreter
    exit (and on LRU eviction past ``STORE_CAP`` matrices) via
    :func:`close_matrix_stores`, and a forked child that inherits the
    object can never unlink the parent's segment (pid-guarded).  Worker
    crashes therefore cannot leak ``/dev/shm`` space — cleanup always
    runs in the owning parent.
    """

    def __init__(self, matrix: SparseMatrix, label: str = "") -> None:
        nnz = matrix.nnz
        self._owner_pid = os.getpid()
        self._shm: shared_memory.SharedMemory | None = (
            shared_memory.SharedMemory(create=True, size=max(1, 24 * nnz))
        )
        buf = self._shm.buf
        nb = 8 * nnz
        np.ndarray(nnz, dtype=np.int64, buffer=buf)[:] = matrix.rows
        np.ndarray(nnz, dtype=np.int64, buffer=buf, offset=nb)[:] = matrix.cols
        np.ndarray(nnz, dtype=np.float64, buffer=buf, offset=2 * nb)[:] = (
            matrix.vals
        )
        self.handle = MatrixHandle(self._shm.name, matrix.shape, nnz, label)

    @classmethod
    def for_matrix(
        cls, matrix: SparseMatrix, label: str = ""
    ) -> "SharedMatrixStore":
        """The cached live store for ``matrix`` (published on first use,
        re-published transparently if a previous store was evicted)."""
        with _LOCK:
            _ensure_exit_hook()
            store = matrix._cache.get(_STORE_KEY)
            if store is not None and store._shm is not None \
                    and store._owner_pid == os.getpid():
                return store
            store = cls(matrix, label)
            matrix._cache[_STORE_KEY] = store
            _STORES.append(store)
            while len(_STORES) > STORE_CAP:
                _STORES.pop(0).close()
            return store

    def close(self) -> None:
        """Detach — and, in the owning process, unlink — the segment.

        Idempotent *and* thread-safe: the double-close guard swaps the
        segment reference out under the layer's lock, so two concurrent
        closers (exit hook racing an LRU eviction, or a user ``close``
        racing the GC safety net) cannot both reach the unlink — the
        second call returns immediately.
        """
        with _LOCK:
            if self._shm is None:
                return
            shm, self._shm = self._shm, None
        # The creator may also appear in its own attach cache (tests and
        # the serial fallback open handles in-process).
        cached = _ATTACHED.pop(self.handle.name, None)
        if cached is not None:
            _close_attachment(*cached)
        try:
            shm.close()
        except BufferError:  # pragma: no cover - live in-process views
            pass
        if self._owner_pid != os.getpid():
            # A forked child inherited the object; the parent still owns
            # the segment and will unlink it.
            return
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedMatrixStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def close_matrix_stores() -> None:
    """Close every cached store this process owns (idempotent; part of
    the exit hook alongside :func:`shutdown_pools`)."""
    with _LOCK:
        while _STORES:
            _STORES.pop().close()


# --------------------------------------------------------------------- #
# Payload accounting
# --------------------------------------------------------------------- #
#: When active (see :func:`payload_audit`), every dispatched task's
#: pickled size is folded in here.  Off by default — the accounting
#: itself costs a pickle pass, so timed runs never pay it.
_AUDIT: dict | None = None


@contextmanager
def payload_audit():
    """Record the bytes each executor task ships to its worker.

    Yields a dict with running ``bytes`` and ``tasks`` counters; inline
    (serial/thread) execution ships nothing and counts zero.  The
    end-to-end benchmark uses this to demonstrate the pickling cut of
    the shared-memory store without taxing the timed runs.
    """
    global _AUDIT
    prev, _AUDIT = _AUDIT, {"bytes": 0, "tasks": 0}
    try:
        yield _AUDIT
    finally:
        _AUDIT = prev


def _account(items: list) -> None:
    if _AUDIT is not None:
        nbytes = sum(
            len(pickle.dumps(it, protocol=pickle.HIGHEST_PROTOCOL))
            for it in items
        )
        _AUDIT["tasks"] += len(items)
        _AUDIT["bytes"] += nbytes
        # Fold into the metrics registry too, so an audited run's
        # payload traffic shows up in `/metrics` and trace dumps
        # without a second pickling pass.
        _PAYLOAD_TASKS.inc(len(items))
        _PAYLOAD_BYTES.inc(nbytes)


def account_payload(items: list) -> None:
    """Fold dispatched task payloads into an active :func:`payload_audit`.

    No-op when no audit is active.  Exposed for subsystems that dispatch
    through the shared pools directly rather than via
    :class:`MatrixExecutor` (the sweep engine audits its chunk payloads
    this way).
    """
    _account(items)


# --------------------------------------------------------------------- #
# The matrix executor
# --------------------------------------------------------------------- #
def _shm_task(arg):
    """Process worker: attach the published matrix, select, run."""
    handle, fn, indices, extra = arg
    faults.fault_point("executor.task")
    matrix = handle.open()
    sub = matrix if indices is None else matrix.select(indices)
    return faults.fault_point("executor.result", fn(sub, extra))


def _thread_task(arg):
    """Thread worker: select *inside* the worker so the NumPy selects of
    sibling tasks overlap."""
    matrix, fn, indices, extra = arg
    faults.fault_point("executor.task")
    sub = matrix if indices is None else matrix.select(indices)
    return faults.fault_point("executor.result", fn(sub, extra))


def _inline_task(matrix: SparseMatrix, fn, indices, extra):
    """Inline (driver-process) execution of one executor task.

    The serial backend and the degradation ladder's last rung both run
    through here; the same fault points fire as in pool workers so
    serial chaos runs exercise identical code paths (``scope="worker"``
    rules deliberately stay silent — that is what models "the pool is
    broken, the host is fine").
    """
    faults.fault_point("executor.task")
    sub = matrix if indices is None else matrix.select(indices)
    return faults.fault_point("executor.result", fn(sub, extra))


class MatrixExecutor:
    """Run ``fn(submatrix, extra)`` tasks against one matrix.

    Tasks are ``(indices, extra)`` pairs: ``indices`` selects the
    submatrix (``None`` = the whole matrix), ``extra`` is a small
    picklable payload.  ``fn`` must be a module-level function (process
    backends pickle it by reference).  :meth:`map` returns results in
    task order for every backend, which is what lets callers treat the
    backend purely as a speed knob.

    Backend delivery semantics:

    ``"serial"``
        Everything inline, zero copies.
    ``"thread"``
        Workers share the address space; each worker thread selects its
        own submatrix from the live matrix (no serialization at all).
    ``"process"``
        The matrix is published once to a :class:`SharedMatrixStore`
        (lazily, on the first ``map``); each task ships a handle plus
        its index array — 8 bytes per selected nonzero instead of the
        24-plus of a pickled submatrix, and nothing at all for the
        nonzero values.
    """

    def __init__(
        self,
        matrix: SparseMatrix,
        jobs: int,
        backend: str = "auto",
        policy: RetryPolicy | None = None,
    ) -> None:
        self.matrix = matrix
        self.jobs = resolve_jobs(jobs)
        self.backend = resolve_exec_backend(backend)
        if self.jobs <= 1:
            self.backend = "serial"
        self._store: SharedMatrixStore | None = None
        self.policy = policy if policy is not None else RetryPolicy()
        #: Structured failure records (:class:`repro.errors.ExecutionError`
        #: subclasses) accumulated across every :meth:`map` call — retries
        #: that eventually succeeded, watchdog kills, degraded completions.
        self.failures: list = []

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "MatrixExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release executor-held references.

        The store itself is cached on the matrix (published once, see
        :meth:`SharedMatrixStore.for_matrix`) and the pools are shared —
        :func:`shutdown_pools` / :func:`close_matrix_stores` own both
        lifetimes, so closing an executor is free and repeated calls
        against one matrix never republish.
        """
        self._store = None

    def _handle(self) -> MatrixHandle:
        if self._store is None:
            self._store = SharedMatrixStore.for_matrix(self.matrix)
        return self._store.handle

    def _process_items(self, fn, tasks: list) -> tuple:
        """``(worker, items)`` a process pool runs for ``tasks``: a
        handle to the published matrix plus each task's index array."""
        handle = self._handle()
        return _shm_task, [(handle, fn, idx, extra) for idx, extra in tasks]

    # ------------------------------------------------------------------ #
    def map(self, fn, tasks: list, validate=None) -> list:
        """Execute ``fn(submatrix, extra)`` per task; ordered results.

        ``validate(index, value)`` — when given — is applied to every
        result at this boundary regardless of backend; it must raise
        :class:`~repro.errors.ResultValidationError` on violation.  On
        the fast (policy-inactive) path a validation failure propagates;
        under an active :class:`RetryPolicy` it is treated like a crash:
        retried, then recomputed serially in-process.
        """
        if not tasks:
            return []
        if self.backend == "serial" or len(tasks) == 1:
            # A single task gains nothing from any pool; run it inline
            # and skip the payload round-trip entirely.
            return self._map_inline(fn, tasks, validate)
        if self.policy.active:
            return self._map_resilient(fn, tasks, validate)
        if self.backend == "thread":
            items = [
                (self.matrix, fn, idx, extra) for idx, extra in tasks
            ]
            values = list(pool_map("thread", self.jobs, _thread_task, items))
            return self._validated(values, validate)
        worker, items = self._process_items(fn, tasks)
        _account(items)
        # Batch small tasks per pipe round-trip (map preserves order for
        # any chunksize): a p = 64 schedule on 2 workers would otherwise
        # pay 64 dispatch round-trips of per-task fixed cost.
        chunksize = max(1, len(items) // (4 * self.jobs))
        try:
            values = list(
                pool_map("process", self.jobs, worker, items, chunksize)
            )
        except BrokenProcessPool:
            # A worker died (OOM, signal): drop the poisoned pool so the
            # next call starts fresh.  The store is unaffected — it is
            # owned by this process and cleaned by close_matrix_stores().
            drop_process_pool()
            raise
        return self._validated(values, validate)

    @staticmethod
    def _validated(values: list, validate) -> list:
        if validate is not None:
            for i, value in enumerate(values):
                validate(i, value)
        return values

    def _map_inline(self, fn, tasks: list, validate) -> list:
        """Serial path with the same fault points and retry semantics.

        Timeouts cannot apply inline (there is no worker to kill), but
        ``retries`` do: an exception is retried with the same backoff
        schedule, so ``--retries`` means the same thing on every
        backend.
        """
        out = []
        for i, (idx, extra) in enumerate(tasks):
            attempt = 0
            while True:
                try:
                    value = _inline_task(self.matrix, fn, idx, extra)
                    if validate is not None:
                        validate(i, value)
                    out.append(value)
                    break
                except Exception as exc:
                    attempt += 1
                    if attempt > self.policy.retries:
                        raise
                    self.failures.append(ExecutionError(
                        f"inline task raised {type(exc).__name__}: {exc}",
                        task=f"task{i}", attempt=attempt,
                    ))
                    time.sleep(self.policy.delay_for(attempt))
        return out

    def _map_resilient(self, fn, tasks: list, validate) -> list:
        """Per-task dispatch under deadlines/retries (the hardened path).

        Tasks are submitted individually (no chunking — the watchdog
        needs per-task deadlines), retried per :attr:`policy`, and — with
        the budget exhausted — recomputed inline from the parent-held
        matrix, so ``map`` always returns a full, validated result list.
        """
        if self.backend == "thread":
            kind, worker = "thread", _thread_task
            items = [(self.matrix, fn, idx, extra) for idx, extra in tasks]
        else:
            kind = "process"
            worker, items = self._process_items(fn, tasks)
            _account(items)

        def fallback(i: int):
            idx, extra = tasks[i]
            return _inline_task(self.matrix, fn, idx, extra)

        values, failures = resilient_map(
            kind, self.jobs, worker, items,
            policy=self.policy, fallback=fallback, validate=validate,
        )
        for records in failures:
            self.failures.extend(records)
        return values

    def payload_nbytes(self, tasks: list) -> int:
        """Bytes :meth:`map` would ship for ``tasks`` (without running).

        Zero for inline backends; for process backends, the pickled size
        of the exact task tuples ``map`` dispatches.
        """
        if not tasks or self.backend in ("serial", "thread") or len(tasks) == 1:
            return 0
        _, items = self._process_items(None, tasks)
        return sum(
            len(pickle.dumps(it, protocol=pickle.HIGHEST_PROTOCOL))
            for it in items
        )
