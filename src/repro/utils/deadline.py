"""Cooperative deadlines for anytime partitioning.

The paper's method is naturally *anytime*: Algorithm 2's keep-best
iterate loop and the V-cycle's ``(feasible, -cut)`` contract hold a
valid incumbent at every pass boundary.  This module supplies the small
substrate that lets a caller say "stop at the next boundary": a
:class:`Deadline` with a monotonic expiry, a :class:`SoftBudget` that
expires after a fixed number of checks (deterministic — the testing
twin of a wall-clock deadline), and the structured :class:`Degraded`
record a cut-short loop attaches to its result.

Deadlines are **cooperative**: a loop asks ``deadline.expired()``
between passes/levels/cycles, and the one kernel that runs long before
any such boundary — the greedy clustering sweep — between fixed chunks of
its visit order, where it stops by raising :class:`Expired`.  A call
without a deadline makes no check at all, so the no-deadline path
executes byte-for-byte the same instructions as before (one
``is not None`` test per boundary, one chunk per sweep) and stays
bit-identical to the pinned goldens.

A :class:`Deadline` carries an *absolute* ``time.monotonic`` expiry and
is picklable; on Linux ``CLOCK_MONOTONIC`` is system-wide, so a
deadline minted in the serving daemon keeps its meaning inside a forked
pool worker.

:func:`observe_overshoot` records how late a deadline-bound
``partition`` / ``bipartition`` call returned in the
``repro_deadline_overshoot_seconds`` histogram (see
``docs/observability.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs import metrics as _metrics

__all__ = [
    "Deadline",
    "SoftBudget",
    "Degraded",
    "Expired",
    "observe_overshoot",
]

_OVERSHOOT = _metrics.histogram(
    "repro_deadline_overshoot_seconds",
    "Time past a wall-clock deadline at which a partition/bipartition "
    "call returned (0 when it finished in time).",
    ("algo",),
)


class Deadline:
    """A monotonic-clock expiry shared by every long-running loop.

    ``Deadline(seconds)`` expires ``seconds`` from now;
    ``Deadline(None)`` never expires (so threading an optional deadline
    needs no branching at the call sites that build one).
    """

    __slots__ = ("_expiry",)

    def __init__(self, seconds: float | None):
        if seconds is None:
            self._expiry = None
        else:
            seconds = float(seconds)
            if seconds < 0:
                seconds = 0.0
            self._expiry = time.monotonic() + seconds

    def expired(self) -> bool:
        """Has the deadline passed?  Never true for ``Deadline(None)``."""
        return self._expiry is not None and time.monotonic() >= self._expiry

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or ``None`` when unbounded."""
        if self._expiry is None:
            return None
        return max(0.0, self._expiry - time.monotonic())

    def overshoot(self) -> float | None:
        """Seconds past the expiry (clamped at 0), or ``None`` when
        unbounded."""
        if self._expiry is None:
            return None
        return max(0.0, time.monotonic() - self._expiry)

    # Explicit state methods: __slots__ classes have no __dict__, and
    # the absolute monotonic expiry is exactly what must cross a fork.
    # The state is a 1-tuple, never None: pickle and copy skip
    # ``__setstate__`` for a None state, which would leave an unbounded
    # deadline without its slot.
    def __getstate__(self):
        return (self._expiry,)

    def __setstate__(self, state):
        (self._expiry,) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._expiry is None:
            return "Deadline(None)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


class SoftBudget:
    """A deadline that expires after a fixed number of checks.

    The first ``checks`` calls to :meth:`expired` return ``False``, every
    later one ``True``.  Sharing the ``expired()`` protocol with
    :class:`Deadline` makes degradation *deterministic* in tests: a
    budget of N lets exactly N boundaries through regardless of host
    speed, so the cut-short result is pinned, not racy.
    """

    __slots__ = ("_left",)

    def __init__(self, checks: int):
        self._left = max(0, int(checks))

    def expired(self) -> bool:
        """Consume one check; ``True`` once the budget is spent."""
        if self._left <= 0:
            return True
        self._left -= 1
        return False

    def remaining(self) -> float | None:
        """Checks left — the countdown analogue of seconds left."""
        return float(self._left)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SoftBudget(checks={self._left})"


@dataclass(frozen=True)
class Degraded:
    """Where an anytime loop stopped short, and by how much.

    Attributes
    ----------
    where:
        The boundary that observed the expiry (``"fm"``, ``"kway-fm"``,
        ``"iterate"``, ``"multilevel"``, ``"vcycle"``, ``"recursive"``,
        ...).
    completed:
        Passes / cycles / nodes finished before the stop.
    skipped:
        Work the loop would have attempted but did not.
    """

    where: str
    completed: int = 0
    skipped: int = 0

    def brief(self) -> str:
        """Compact one-line form, e.g. ``Degraded[vcycle]@2done+1skipped``.

        The same shape as ``repro.errors.ExecutionError.brief`` so both
        kinds of record read uniformly in a ``failures`` tuple.
        """
        return (
            f"Degraded[{self.where}]@{self.completed}done"
            f"+{self.skipped}skipped"
        )


class Expired(Exception):
    """A clustering sweep stopped at an expired deadline.

    Raised inside the sweep (through
    :func:`repro.partitioner.coarsen.cluster_vertices` and
    :func:`~repro.partitioner.coarsen.coarsen_level`) and caught by the
    coarsening loop (:func:`~repro.partitioner.coarsen.coarsen`), which
    drops the unfinished level; ``visited`` is how many vertices the
    sweep had visited.
    """

    def __init__(self, visited: int):
        super().__init__(f"deadline expired after {visited} visits")
        self.visited = visited


def observe_overshoot(deadline, algo: str) -> None:
    """Record how late a deadline-bound call returned.

    Only a wall-clock :class:`Deadline` with an expiry is observed; a
    :class:`SoftBudget` counts checks, not seconds, and ``None`` or
    ``Deadline(None)`` bound nothing.
    """
    if isinstance(deadline, Deadline):
        late = deadline.overshoot()
        if late is not None:
            _OVERSHOOT.labels(algo=algo).observe(late)
