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

One process pool
    :class:`MatrixExecutor` delivers ``(submatrix, extra)`` tasks to
    workers, and ``jobs`` alone decides where they run: ``jobs <= 1`` (or
    a single task) runs inline in the caller, ``jobs >= 2`` on the shared
    process pool over the shared-memory store.  The python kernels hold
    the GIL, so only processes run them in parallel.  Both paths are
    bit-identical by construction: they only change how a task's inputs
    travel, never what the task computes.

One dispatch loop
    :func:`resilient_map` is the only code that submits to the pool:
    recursive maps, sweep chunks and daemon requests all go through it.
    It sends at most ``2 * jobs`` tasks ahead of the oldest unyielded
    result, yields results in task order, and applies a
    :class:`RetryPolicy` (watchdog deadlines, retries with backoff,
    inline fallback); under the default policy a failure is simply
    raised.  :func:`run_inline` is its in-process counterpart, the one
    retry loop of ``jobs <= 1`` maps and serial sweeps.

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
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterable, Iterator

import numpy as np

from repro.errors import (
    DegradedExecution,
    ExecutionError,
    ResultValidationError,
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
    "RetryPolicy",
    "MatrixHandle",
    "SharedMatrixStore",
    "MatrixExecutor",
    "process_pool",
    "resilient_map",
    "run_inline",
    "shutdown_pools",
    "close_matrix_stores",
    "payload_audit",
]

# Observability (see docs/observability.md): dispatch volume, pool task
# latency, and the hardening events.  Plain process-local adds —
# never consulted by the execution layer itself.
_EXEC_TASKS = _metrics.counter(
    "repro_executor_tasks_total",
    "Tasks dispatched to the process pool",
)
_EXEC_TASK_SECONDS = _metrics.histogram(
    "repro_executor_task_seconds",
    "Submit-to-completion latency of process-pool tasks",
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
        """Whether this policy changes anything at all: out of retries,
        an inactive policy raises the task's failure instead of
        degrading (see :func:`resilient_map`)."""
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
#: whose runs get recursion workers from the jobs budget) therefore
#: creates its own pool on first use in each process.
_PROCESS_POOL: tuple[int, int, ProcessPoolExecutor] | None = None

#: Guards every module-level singleton (the pool, the store registry):
#: the serving daemon's dispatch threads call into this module
#: concurrently, and unguarded check-then-act would let two threads each
#: create (or worse, one retire while the other submits to) the "shared"
#: pool.
_LOCK = threading.RLock()

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
    recursion with its share of the jobs budget) owns an *inner* pool whose
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
    # A forked worker inherits the parent's fault-injection hit counters;
    # a worker's per-process hit indices must start at 1 for fault plans
    # to be deterministic.
    faults.reset()
    # ... and the parent's tracer, which would keep writing spans into
    # its sink after the parent disabled tracing.  Workers trace only
    # under the context a task adopts (see :func:`_traced`).
    _trace.TRACER = None
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
    (``shutdown(wait=False)`` lets already-submitted work drain;
    :func:`resilient_map` holds the layer's lock across fetch + submit
    to stay atomic against a concurrent resize)."""
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


def _traced(ctx, fn, item):
    """Pool-side body of every task: ``fn(item)`` under the caller's
    trace context (:func:`repro.obs.trace.adopt`)."""
    with _trace.adopt(ctx):
        return fn(item)


def resilient_map(
    jobs: int,
    fn,
    items: Iterable,
    *,
    policy: RetryPolicy,
    fallback=None,
    validate=None,
    labels=None,
) -> Iterator[tuple[object, list[ExecutionError]]]:
    """Run ``fn(item)`` per item on the shared pool; yield in task order.

    The layer's one dispatch loop — every task the process pool runs is
    submitted here.  ``items`` is consumed lazily and at most ``2 *
    jobs`` tasks are sent ahead of the oldest result not yet yielded, so
    a producer that builds payloads on demand stays just ahead of the
    workers.  Each task yields
    ``(value, failures)`` as soon as it and every earlier task are done;
    ``failures`` lists the structured records
    (:class:`~repro.errors.ExecutionError` instances) the task gathered
    on its way, empty for an untroubled task.  The trace context current
    when the loop starts is handed to every task, so worker spans join
    the caller's trace without riding the payload.

    ``policy`` sets a per-task deadline, enforced by a watchdog that
    kills hung workers and rebuilds the pool (in-flight siblings are
    resubmitted as collateral without touching their retry budget), and
    a retry budget: a crashed, raising, timed-out or rejected task is
    resubmitted up to ``policy.retries`` times with capped exponential
    backoff.  ``validate(index, value)`` (optional) checks every result
    at this boundary; a :class:`~repro.errors.ResultValidationError` it
    raises counts as a failure like a crash.

    A task out of retries is settled in one place, when it reaches the
    head of the order:

    * under the default policy its failure is raised as it happened —
      :class:`BrokenProcessPool` (after dropping the dead pool, so the
      next call starts fresh), the task's own exception, or the
      :class:`~repro.errors.ResultValidationError`;
    * under an armed policy, ``fallback(index)`` completes it inline;
      the value is validated and the task records
      :class:`~repro.errors.DegradedExecution`;
    * with no ``fallback`` (the serving daemon never runs a request in
      its own address space), :class:`~repro.errors.DegradedExecution`
      is raised, carrying the task's failure records on ``failures``.
    """
    ctx = _trace.current_context()
    source = iter(items)
    window = max(2, 2 * jobs)
    staged: list = []
    failures: list = []
    attempts: list[int] = []
    ready: list[float] = []
    results: dict[int, object] = {}
    #: Tasks out of retries -> the failure that used up the budget.
    lost: dict[int, BaseException] = {}
    queue: deque[int] = deque()
    pending: dict = {}
    collateral: set[int] = set()
    head = 0
    more = True

    def _label(i: int) -> str:
        return labels[i] if labels is not None else f"task{i}"

    def _submit(i: int) -> None:
        # Fetch + submit under the lock, so a concurrent resize cannot
        # retire the pool in between.
        with _LOCK:
            try:
                fut = process_pool(jobs).submit(_traced, ctx, fn, staged[i])
            except BrokenProcessPool:
                # The shared pool broke between our calls; start fresh.
                drop_process_pool()
                fut = process_pool(jobs).submit(_traced, ctx, fn, staged[i])
        _EXEC_TASKS.inc()
        now = time.monotonic()
        deadline = now + policy.timeout if policy.timeout is not None else None
        pending[fut] = (i, deadline, now)

    def _fail(i: int, record: ExecutionError, raised: BaseException) -> None:
        attempts[i] += 1
        record.attempt = attempts[i]
        failures[i].append(record)
        _EXEC_RETRIES.inc()
        _trace.event("task_failure", task=_label(i),
                     kind=type(record).__name__, attempt=attempts[i])
        if attempts[i] > policy.retries:
            lost[i] = raised
        else:
            ready[i] = time.monotonic() + policy.delay_for(attempts[i])
            queue.append(i)

    def _settle(i: int):
        raised = lost.pop(i)
        if not policy.active:
            if isinstance(raised, BrokenProcessPool):
                drop_process_pool()
            raise raised
        if fallback is None:
            refusal = DegradedExecution(
                "retry budget exhausted on the worker pool; inline "
                "fallback is disabled for isolated requests",
                task=_label(i),
            )
            refusal.failures = failures[i]
            raise refusal
        # The degradation ladder's last rung: computed serially
        # in-process.  A validation failure here is terminal — there is
        # no further fallback that could produce a trustworthy result.
        _EXEC_DEGRADED.inc()
        _trace.event("degraded_execution", task=_label(i))
        value = fallback(i)
        if validate is not None:
            validate(i, value)
        failures[i].append(DegradedExecution(
            "retry budget exhausted on the worker pool; completed by "
            "serial in-process execution", task=_label(i),
            attempt=attempts[i],
        ))
        return value

    try:
        while True:
            while more and len(staged) < head + window:
                try:
                    item = next(source)
                except StopIteration:
                    more = False
                    break
                if _AUDIT is not None:
                    nbytes = _pickled_nbytes([item])
                    _AUDIT["tasks"] += 1
                    _AUDIT["bytes"] += nbytes
                    # Folded into the registry too, so an audited run's
                    # payload traffic shows up in `/metrics` and trace
                    # dumps without a second pickling pass.
                    _PAYLOAD_TASKS.inc()
                    _PAYLOAD_BYTES.inc(nbytes)
                queue.append(len(staged))
                staged.append(item)
                failures.append([])
                attempts.append(0)
                ready.append(0.0)
            if head == len(staged):
                return
            if head in results or head in lost:
                value = results.pop(head) if head in results else _settle(head)
                records = failures[head]
                staged[head] = failures[head] = None
                head += 1
                yield value, records
                continue
            now = time.monotonic()
            deferred: list[int] = []
            while queue:
                i = queue.popleft()
                if ready[i] > now:
                    deferred.append(i)
                else:
                    _submit(i)
            queue.extend(deferred)
            if not pending:  # everything is backing off; sleep to the earliest
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
            wait_s = (
                None if wake is None else max(0.0, wake - time.monotonic())
            )
            done, _ = futures_wait(
                set(pending), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            for fut in done:
                i, _deadline, t_submit = pending.pop(fut)
                _EXEC_TASK_SECONDS.observe(time.monotonic() - t_submit)
                try:
                    value = fut.result()
                except BrokenProcessPool as exc:
                    if i in collateral:
                        # An innocent victim of a watchdog kill: resubmit
                        # without touching its retry budget.
                        collateral.discard(i)
                        queue.append(i)
                    else:
                        _fail(i, WorkerCrash(
                            "worker process died while the task was in "
                            "flight", task=_label(i),
                        ), exc)
                    continue
                except Exception as exc:
                    _fail(i, ExecutionError(
                        f"task raised {type(exc).__name__}: {exc}",
                        task=_label(i),
                    ), exc)
                    continue
                collateral.discard(i)
                if validate is not None:
                    try:
                        validate(i, value)
                    except ResultValidationError as exc:
                        exc.task = exc.task or _label(i)
                        _fail(i, exc, exc)
                        continue
                results[i] = value
            # Watchdog sweep: anything past its deadline is hung.
            now = time.monotonic()
            expired = [
                (fut, i)
                for fut, (i, d, _t) in pending.items()
                if d is not None and d <= now
            ]
            if expired:
                for fut, i in expired:
                    del pending[fut]
                    timeout = TaskTimeout(
                        f"task exceeded its {policy.timeout:.3g}s deadline",
                        task=_label(i), timeout=policy.timeout,
                    )
                    _fail(i, timeout, timeout)
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
    finally:
        # An abandoned or failed map leaves nothing queued on the pool.
        for fut in pending:
            fut.cancel()


def run_inline(call, *, policy: RetryPolicy, label: str):
    """Run ``call()`` in this process under ``policy``'s retry budget.

    The layer's one inline retry loop, shared by ``jobs <= 1`` maps and
    serial sweeps.  Timeouts cannot apply inline (there is no worker to
    kill), but retries do, with the pool's backoff schedule, so
    ``--retries`` means the same thing inline and pooled.  Returns
    ``(value, failures)``; out of retries, the last exception propagates.
    """
    failures: list[ExecutionError] = []
    while True:
        try:
            return call(), failures
        except Exception as exc:
            attempt = len(failures) + 1
            if attempt > policy.retries:
                raise
            failures.append(ExecutionError(
                f"inline task raised {type(exc).__name__}: {exc}",
                task=label, attempt=attempt,
            ))
            time.sleep(policy.delay_for(attempt))


def shutdown_pools(wait: bool = False) -> None:
    """Shut down the shared pool (idempotent; registered with atexit).

    Before this layer, :mod:`repro.core.recursive` kept a module-level
    pool alive at interpreter exit; the atexit hook guarantees worker
    processes are reaped no matter which subsystem created them.
    """
    global _PROCESS_POOL
    # Detach the singleton under the lock, but run the (possibly
    # blocking, wait=True) shutdown outside it: a still-running worker
    # that needs the lock must not deadlock against the join.
    with _LOCK:
        entry, _PROCESS_POOL = _PROCESS_POOL, None
    if entry is not None and entry[0] == os.getpid():
        entry[2].shutdown(wait=wait)
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
        exiting owner) — a clear, catchable signal the caller's retry
        policy can act on.
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
#: their matrix comes back).
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
    execution ships nothing and counts zero.  The
    end-to-end benchmark uses this to demonstrate the pickling cut of
    the shared-memory store without taxing the timed runs.
    """
    global _AUDIT
    prev, _AUDIT = _AUDIT, {"bytes": 0, "tasks": 0}
    try:
        yield _AUDIT
    finally:
        _AUDIT = prev


def _pickled_nbytes(items) -> int:
    """Total pickled size of ``items`` — the bytes shipping them costs."""
    return sum(
        len(pickle.dumps(it, protocol=pickle.HIGHEST_PROTOCOL))
        for it in items
    )


# --------------------------------------------------------------------- #
# The matrix executor
# --------------------------------------------------------------------- #
def _run_task(arg):
    """One executor task, in a pool worker or inline in the driver.

    The worker receives a :class:`MatrixHandle` and attaches the
    published matrix; inline runs (``jobs <= 1`` and the degradation
    ladder's last rung) pass the matrix itself.  The same fault points
    fire either way, so serial chaos runs exercise identical code paths
    (``scope="worker"`` rules deliberately stay silent inline — that is
    what models "the pool is broken, the host is fine").
    """
    source, fn, indices, extra = arg
    faults.fault_point("executor.task")
    matrix = source.open() if isinstance(source, MatrixHandle) else source
    sub = matrix if indices is None else matrix.select(indices)
    return faults.fault_point("executor.result", fn(sub, extra))


class MatrixExecutor:
    """Run ``fn(submatrix, extra)`` tasks against one matrix.

    Tasks are ``(indices, extra)`` pairs: ``indices`` selects the
    submatrix (``None`` = the whole matrix), ``extra`` is a small
    picklable payload.  ``fn`` must be a module-level function (the
    process pool pickles it by reference).  :meth:`map` returns results
    in task order for every ``jobs``, which is what lets callers treat
    ``jobs`` purely as a speed knob.

    With ``jobs <= 1`` (or a single task) everything runs inline, zero
    copies.  Otherwise the matrix is published once to a
    :class:`SharedMatrixStore` (lazily, on the first ``map``) and each
    process-pool task ships a handle plus its index array — 8 bytes per
    selected nonzero instead of the 24-plus of a pickled submatrix, and
    nothing at all for the nonzero values.
    """

    def __init__(
        self,
        matrix: SparseMatrix,
        jobs: int,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.matrix = matrix
        self.jobs = resolve_jobs(jobs)
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
        return _run_task, [(handle, fn, idx, extra) for idx, extra in tasks]

    # ------------------------------------------------------------------ #
    def map(self, fn, tasks: list, validate=None) -> list:
        """Execute ``fn(submatrix, extra)`` per task; ordered results.

        ``validate(index, value)`` — when given — is applied to every
        result at this boundary, inline or pooled; it must raise
        :class:`~repro.errors.ResultValidationError` on violation.  What
        a failure then does follows :attr:`policy` (see
        :func:`resilient_map`): raised under the default policy, retried
        and finally recomputed inline under an armed one.
        """
        if not tasks:
            return []

        def inline(i: int):
            idx, extra = tasks[i]
            return _run_task((self.matrix, fn, idx, extra))

        if self.jobs <= 1 or len(tasks) == 1:
            # A single task gains nothing from the pool; run it inline
            # and skip the payload round-trip entirely.
            def checked(i: int):
                value = inline(i)
                if validate is not None:
                    validate(i, value)
                return value

            stream = (
                run_inline(lambda i=i: checked(i), policy=self.policy,
                           label=f"task{i}")
                for i in range(len(tasks))
            )
        else:
            worker, items = self._process_items(fn, tasks)
            stream = resilient_map(
                self.jobs, worker, items,
                policy=self.policy, fallback=inline, validate=validate,
            )
        values = []
        for value, records in stream:
            self.failures.extend(records)
            values.append(value)
        return values

    def payload_nbytes(self, tasks: list) -> int:
        """Bytes :meth:`map` would ship for ``tasks`` (without running).

        Zero for inline runs; on the process pool, the pickled size of
        the exact task tuples ``map`` dispatches.
        """
        if not tasks or self.jobs <= 1 or len(tasks) == 1:
            return 0
        return _pickled_nbytes(self._process_items(None, tasks)[1])
