"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.  The
subclasses mirror the major subsystems: sparse-matrix handling, hypergraph
construction, partitioning, and the evaluation harness.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SparseFormatError",
    "MatrixFormatError",
    "MatrixMarketError",
    "HypergraphError",
    "PartitioningError",
    "BalanceError",
    "SplitError",
    "SimulationError",
    "EvaluationError",
    "ExecutionError",
    "TaskTimeout",
    "WorkerCrash",
    "DegradedExecution",
    "ResultValidationError",
    "ShmAttachError",
    "InjectedFault",
    "ServeError",
    "ProtocolError",
    "RequestRejected",
    "RequestFailed",
    "CircuitOpen",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SparseFormatError(ReproError):
    """A sparse matrix argument is malformed (bad shape, dtype, indices...)."""


class MatrixFormatError(SparseFormatError):
    """A matrix file's *content* is malformed (bad header, out-of-range
    indices, truncated body, non-finite entries...).

    Structured: ``source`` names the file (or ``"<stream>"``) and
    ``line`` the 1-based line the parser rejected (``0`` = whole-file
    problems such as a truncated body), and both are baked into the
    message — so an upload boundary (the serving daemon's 400 path) can
    hand the text straight back to the client and a human knows exactly
    what to fix.  Parsers raising this must never leak the raw
    ``ValueError``/``IndexError`` that detected the problem.
    """

    def __init__(self, message: str, *, source: str = "", line: int = 0):
        where = source
        if line:
            where = f"{where or '<stream>'}:{line}"
        super().__init__(f"{where}: {message}" if where else message)
        self.source = source
        self.line = line


class MatrixMarketError(MatrixFormatError):
    """A MatrixMarket file or stream could not be parsed or written."""


class HypergraphError(ReproError):
    """A hypergraph is structurally invalid (bad CSR arrays, pin ids...)."""


class PartitioningError(ReproError):
    """The partitioner failed to produce a valid partitioning."""


class BalanceError(PartitioningError):
    """No partitioning satisfying the load-balance constraint exists/was found."""


class SplitError(ReproError):
    """Algorithm 1 produced or was given an invalid split ``A = Ar + Ac``."""


class SimulationError(ReproError):
    """The distributed SpMV simulation detected an inconsistency."""


class EvaluationError(ReproError):
    """The evaluation harness was misconfigured or given inconsistent data."""


class ExecutionError(ReproError):
    """The parallel execution layer failed to deliver a task's result.

    Base class of the structured failure records the hardened executor
    produces (see :mod:`repro.utils.executor`): every subclass carries
    ``task`` (a short label of the work item) and ``attempt`` (1-based
    attempt number) so reports can say *which* run was retried or
    degraded, not merely that something went wrong.
    """

    def __init__(self, message: str, *, task: str = "", attempt: int = 0):
        super().__init__(message)
        self.task = task
        self.attempt = attempt

    def brief(self) -> str:
        """A compact one-token-ish record for per-run failure lists."""
        kind = type(self).__name__
        where = f"[{self.task}]" if self.task else ""
        when = f"@attempt{self.attempt}" if self.attempt else ""
        return f"{kind}{where}{when}"


class TaskTimeout(ExecutionError):
    """A task exceeded its per-task deadline; the watchdog killed its
    worker process."""

    def __init__(self, message: str, *, task: str = "", attempt: int = 0,
                 timeout: float | None = None):
        super().__init__(message, task=task, attempt=attempt)
        self.timeout = timeout


class WorkerCrash(ExecutionError):
    """A worker process died abruptly (signal, OOM kill, ``os._exit``)
    while the task was in flight; the pool was rebuilt."""


class DegradedExecution(ExecutionError):
    """A task exhausted its retry budget on the worker pool and was
    completed by serial in-process execution instead.

    Raised only when even the serial fallback is impossible; normally it
    is *recorded* (``.brief()``) on the completed result so a sweep
    finishes with an annotation instead of aborting.
    """


class ResultValidationError(ExecutionError):
    """A worker-returned result violated the partition invariants
    (assignment completeness, part-id range, or volume consistency) —
    shared-memory corruption or a buggy backend, never silently kept."""


class ShmAttachError(ExecutionError):
    """Attaching a shared-memory matrix segment failed (evicted/unlinked).

    Raised in the worker that attaches (the recursion pool and the
    serving daemon's workers); the dispatch loop retries the task like
    any other failure.  The message names both the segment and the
    matrix, so logs say which matrix vanished.
    """


class InjectedFault(ReproError):
    """An artificial failure fired by the deterministic fault-injection
    harness (:mod:`repro.utils.faults`).  Never raised in production —
    only under an installed fault plan."""


class ServeError(ReproError):
    """Base class of the partitioning-service errors (:mod:`repro.serve`)."""


class ProtocolError(ServeError):
    """A request is malformed (bad JSON, unknown fields, invalid knobs).

    The daemon maps this to HTTP 400 — client error, never a worker
    crash.
    """


class RequestRejected(ServeError):
    """The service refused admission (saturated or draining — HTTP 503).

    ``retry_after`` carries the server's suggested backoff in seconds;
    the client's retry loop honours it (capped by its own policy).
    """

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 status: int = 503):
        super().__init__(message)
        self.retry_after = retry_after
        self.status = status


class RequestFailed(ServeError):
    """The service accepted the request but could not complete it.

    ``briefs`` lists the structured failure records
    (:meth:`ExecutionError.brief`-style strings) the hardened execution
    path accumulated — the request's isolated failure story, never the
    daemon's.
    """

    def __init__(self, message: str, *, briefs: tuple = (),
                 status: int = 500):
        super().__init__(message)
        self.briefs = tuple(briefs)
        self.status = status


class CircuitOpen(ServeError):
    """The client's circuit breaker is open: consecutive failures crossed
    the threshold, so calls fail fast (no network I/O) until the reset
    window elapses."""
