"""Shared helpers: statistics, answer checks, scratch space, memory.

Everything here is workload-agnostic.  Timings are medians or
percentiles over many samples; counts are kept as integers until the
final division so that two same-seed runs print identical values.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import signal
import statistics
import time
from pathlib import Path

import numpy as np

#: The repository checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Per-run scratch space (journals, traces, port files); inside the
#: checkout, removed when the run ends.
WORK_ROOT = ROOT / ".bench_work"

#: The load-imbalance fraction of every request (the paper's default).
EPS = 0.03

#: Seconds the calibration kernel of :func:`slowdown` takes at the
#: reference speed (the quiet 2-core VM the benchmark was built on).
CALIBRATION_REF_S = 0.035


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    """Median of ``values``; 0.0 for an empty sample."""
    return float(statistics.median(values)) if values else 0.0


def geomean(values) -> float:
    """Geometric mean of positive integers, in a fixed summation order
    (callers pass answers in the seeded op order, so it repeats)."""
    if not values:
        return 0.0
    return math.exp(math.fsum(math.log(max(v, 1)) for v in values)
                    / len(values))


def digest(parts) -> str:
    """Fingerprint of a part vector, for bit-identity checks."""
    return hashlib.sha1(np.asarray(parts, dtype=np.int64).tobytes()).hexdigest()


def ratio(num, den) -> float:
    """``num / den``, or 0.0 when the layer saw no work (``den == 0``)."""
    return float(num) / den if den else 0.0


def slowdown() -> float:
    """How many times slower than the reference speed the machine runs
    right now (1.0 = reference).

    Times a fixed kernel that shares no code with the program: a NumPy
    sort and histogram plus an interpreter-bound dict loop, the two
    kinds of work partitioning does.  On the shared 2-core VM this
    benchmark was built on, one op on one input took from 127 to 250 ms
    within minutes, with CPU time equal to wall time: the machine itself
    runs slower at times.  Every end-to-end timing is divided by the
    slowdown measured just before it, which halved the run-to-run spread
    of the batch timings (e.g. ``bisect`` ops_per_s IQR 12.6% -> 4.9%
    over six seeds).
    """
    keys = np.random.default_rng(0).integers(0, 1 << 30, 200_000)
    t0 = time.perf_counter()
    np.argsort(keys, kind="stable")
    np.bincount(keys & 0xFFFF)
    counts: dict = {}
    for i in range(60_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return (time.perf_counter() - t0) / CALIBRATION_REF_S


class Calibration:
    """The machine's current :func:`slowdown`, re-measured only when the
    last measurement is older than ``every`` seconds (the drift is slow
    next to that, and the kernel then costs at most a few percent)."""

    def __init__(self, every: float = 0.5) -> None:
        self.every = every
        self._at = -math.inf
        self._value = 1.0

    def slowdown(self) -> float:
        if time.perf_counter() - self._at >= self.every:
            self._value = slowdown()
            self._at = time.perf_counter()
        return self._value


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every waited-for
    descendant (daemon, pool workers), in MiB.  ``ru_maxrss`` is in KiB
    on Linux; for children it is the largest single descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def stop_helpers(timeout: float = 10.0) -> None:
    """Stop every helper process the program started in this process
    and wait until each has ended.

    These are the shared pool workers and the shared-memory resource
    tracker.  The process pool spawns the tracker, which is meant to
    outlive its parent: it exits only once it notices the parent has
    gone.  Closing its pipe ends it now; it ignores SIGTERM, so one
    that has not ended after ``timeout`` seconds is killed.
    """
    from multiprocessing import resource_tracker

    from repro.utils.executor import shutdown_pools

    shutdown_pools(wait=True)  # the workers hold the tracker's pipe too
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() >= deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def make_workdir(tag: str) -> Path:
    """A fresh scratch directory for one run."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def check_answer(matrix, parts, nparts: int, reported_volume: int,
                 recomputed_volume: int | None = None) -> list[str]:
    """The checks every answer must pass; returns the failures.

    * ``parts`` is a complete assignment of every nonzero to a part in
      ``[0, nparts)`` (:func:`repro.core.validate.validate_parts`);
    * the volume recomputed with :func:`communication_volume` equals the
      volume the program reported;
    * every part is within the eqn-(1) ceiling
      ``max_allowed_part_size(nnz, nparts, eps)``.
    """
    from repro.core.validate import validate_parts
    from repro.core.volume import communication_volume, max_allowed_part_size
    from repro.errors import ResultValidationError

    parts = np.asarray(parts, dtype=np.int64)
    try:
        validate_parts(parts, matrix.nnz, nparts, context="perfbench")
    except ResultValidationError as exc:
        return [f"invalid parts: {exc}"]
    problems = []
    if recomputed_volume is None:
        recomputed_volume = communication_volume(matrix, parts)
    if recomputed_volume != reported_volume:
        problems.append(
            f"reported volume {reported_volume} != recomputed "
            f"{recomputed_volume}"
        )
    ceiling = max_allowed_part_size(matrix.nnz, nparts, EPS)
    biggest = int(np.bincount(parts, minlength=nparts).max())
    if biggest > ceiling:
        problems.append(f"part of {biggest} nonzeros > ceiling {ceiling}")
    return problems


class Tally:
    """Attempted and failed ops, plus the first few failure reasons.

    An op fails when it raises or when any check on its answer fails,
    including checks made after the timed loop (:meth:`fail`); it is
    counted once however many of its checks fail.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: set[int] = set()
        self.reasons: list[str] = []

    @property
    def failed(self) -> int:
        return len(self._failed)

    def record(self, what: str, problems: list[str]) -> int:
        """Count one attempted op; returns its id for later checks."""
        op_id = self.attempted
        self.attempted += 1
        self.fail(op_id, what, problems)
        return op_id

    def fail(self, op_id: int, what: str, problems: list[str]) -> None:
        if not problems:
            return
        self._failed.add(op_id)
        if len(self.reasons) < 10:
            self.reasons.append(f"{what}: {'; '.join(problems)}")
