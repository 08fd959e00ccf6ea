"""Shared helpers for process-parallel execution.

Two subsystems run work on a :class:`~concurrent.futures.ProcessPoolExecutor`
— the sweep engine (:mod:`repro.eval.sweep`, parallel *across* runs) and
recursive bisection (:mod:`repro.core.recursive`, parallel *within* one
p-way partitioning).  Both accept the same ``jobs`` convention, normalized
here: ``1`` is serial, ``N >= 2`` uses ``N`` worker processes, and
``None``/``0`` means "one worker per CPU".  When one level runs inside
the other, :func:`split_jobs` divides a single total between them.
"""

from __future__ import annotations

import os

__all__ = ["resolve_jobs", "split_jobs"]


def resolve_jobs(jobs: int | None, *, error: type = ValueError) -> int:
    """Normalize a ``jobs`` request: ``None``/``0`` means the CPU count.

    ``error`` is the exception type raised on a negative request, so each
    subsystem reports the failure in its own error family.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise error(
            f"jobs must be non-negative (0 = one worker per CPU), got {jobs}"
        )
    return int(jobs)


def split_jobs(total: int, outer_tasks: int) -> tuple[int, int]:
    """Divide a ``total`` worker budget over ``outer_tasks`` outer items.

    Returns ``(outer_workers, inner_jobs)`` with ``outer_workers <=
    max(1, outer_tasks)`` and ``outer_workers * inner_jobs <= total`` —
    the invariant that keeps nested parallelism (sweep chunks, each
    running a recursion tree) from oversubscribing the machine.  The
    outer level is saturated first (outer items are fully independent,
    so they scale perfectly); whatever remains is handed down — e.g. a
    budget of 8 over 2 items runs 2 outer workers with 4 inner workers
    each, while a budget of 8 over 16 items runs 8 outer workers with
    serial inner work.  A pure function of its arguments, and ``jobs``
    is a speed knob only, so a split never changes what is computed.
    """
    if total < 1:
        raise ValueError(f"total jobs must be >= 1, got {total}")
    if outer_tasks < 0:
        raise ValueError(f"outer_tasks must be >= 0, got {outer_tasks}")
    if total == 1 or outer_tasks <= 1:
        return (1, total)
    outer = min(total, outer_tasks)
    return outer, max(1, total // outer)
