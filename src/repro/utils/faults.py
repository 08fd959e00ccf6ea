"""Deterministic, env-propagated fault injection for the execution layer.

Chaos testing the hardened executor needs failures that are *real* (a
worker genuinely SIGKILLed, a task genuinely hung past its deadline) yet
*deterministic* (the same plan fires the same faults at the same places
every run, in every process).  This module provides that harness:

Fault points
    Named locations inside the execution layer call
    :func:`fault_point` (``"executor.task"``, ``"shm.attach"``, ...).
    With no plan installed the call is a dictionary lookup — effectively
    free, so the points are compiled into production code permanently.
    The registry of valid names is :data:`FAULT_POINTS`; a typo'd name
    raises immediately rather than silently never firing.

Fault plans
    A plan is a tuple of :class:`FaultRule`; installing one (the
    :func:`install` context manager) serializes it into the
    ``REPRO_FAULTS`` environment variable, so worker *processes* forked
    or spawned afterwards inherit it without any plumbing through task
    payloads.  ``install`` retires the persistent pools on entry and
    exit so workers are always born under the intended plan.

Fault kinds
    ``"exception"`` raises :class:`~repro.errors.InjectedFault`;
    ``"crash"`` SIGKILLs the current process (downgraded to an
    exception in the installing process itself, so a serial run never
    kills the test runner); ``"hang"`` sleeps for ``delay`` seconds
    (the watchdog kills a hung worker, so it never returns);
    ``"shm"`` raises :class:`FileNotFoundError`, emulating an
    evicted/unlinked shared-memory segment at the attach boundary;
    ``"poison"`` deterministically corrupts the payload passed through
    the fault point — the fault the result validator exists to catch;
    ``"disk"`` raises ``OSError(ENOSPC)``, emulating a full disk at a
    journal-append boundary (the fault the read-only degradation of the
    partition cache and sweep checkpoint exists to absorb).

Determinism
    A rule fires on explicit 1-based per-process hit indices (``hits``),
    or with a seeded pseudo-random ``rate`` keyed on ``(seed, point,
    hit)`` — a pure hash, identical in every process and on every
    platform.  A rule with a ``once_token`` path fires at most once
    *across all processes* (an ``O_CREAT | O_EXCL`` filesystem token),
    which is how chaos tests express "this task fails once, then its
    retry succeeds".
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass

from repro.errors import EvaluationError, InjectedFault

__all__ = [
    "ENV_VAR",
    "FAULT_POINTS",
    "FAULT_KINDS",
    "FaultRule",
    "fault_point",
    "install",
    "plan_to_env",
    "plan_from_env",
    "reset",
]

#: Environment variable carrying the serialized plan across processes.
ENV_VAR = "REPRO_FAULTS"

#: Registry of named fault points compiled into the execution layer.
#: docs/robustness.md documents where each one sits.
FAULT_POINTS = frozenset({
    "executor.task",      # worker side, before a MatrixExecutor task runs
    "executor.result",    # worker side, after a task computed its result
    "sweep.chunk",        # worker side, before a sweep chunk executes
    "sweep.result",       # worker side, after a chunk computed its records
    "sweep.record",       # driver side, after each record is journaled
    "shm.attach",         # inside MatrixHandle.open, before the attach
    "recursive.bisect",   # inside every bisection of the recursion tree
    "kway.partition",     # inside the direct k-way partitioner
    "serve.request",      # daemon side, after a request is admitted
    "serve.cache",        # daemon side, before each cache journal write
    "serve.drain",        # daemon side, at the start of a graceful drain
    "cache.write",        # inside the partition cache's journal append
    "checkpoint.write",   # inside the sweep checkpoint's journal append
})

FAULT_KINDS = ("exception", "crash", "hang", "shm", "poison", "disk")


@dataclass(frozen=True)
class FaultRule:
    """One directive: fire ``kind`` at ``point`` on matching hits.

    ``hits`` are 1-based per-process invocation indices of the point
    (``(1,)`` = the first time each process reaches it; ``()`` = every
    time).  ``rate``/``seed`` instead fire pseudo-randomly but
    deterministically per hit.  ``scope="worker"`` restricts firing to
    the execution layer's own pool workers — the serial in-process
    fallback then genuinely succeeds, modelling "the pool environment
    is broken, the host is fine".  ``once_token`` (a filesystem path)
    caps total firings across every process at one.
    """

    point: str
    kind: str
    hits: tuple[int, ...] = (1,)
    rate: float = 0.0
    seed: int = 0
    scope: str = "worker"
    once_token: str | None = None
    delay: float = 30.0
    #: Pid of the installing process; ``crash`` downgrades to an
    #: exception there (never SIGKILL the driver/test runner itself).
    installer_pid: int = 0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise EvaluationError(
                f"unknown fault point {self.point!r}; "
                f"expected one of {sorted(FAULT_POINTS)}"
            )
        if self.kind not in FAULT_KINDS:
            raise EvaluationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.scope not in ("worker", "any"):
            raise EvaluationError(
                f"fault scope must be 'worker' or 'any', got {self.scope!r}"
            )


# --------------------------------------------------------------------- #
# Process-local state
# --------------------------------------------------------------------- #
#: Per-process hit counters, one per fault point.
_HITS: dict[str, int] = {}

#: Parsed-plan cache keyed on the raw env string (parsing JSON on every
#: fault-point hit would tax the hot path for nothing).
_PLAN_CACHE: tuple[str, tuple[FaultRule, ...]] | None = None


def reset() -> None:
    """Clear per-process hit counters (installing a plan does this)."""
    _HITS.clear()


def plan_to_env(rules) -> str:
    """Serialize rules for the ``REPRO_FAULTS`` environment variable."""
    return json.dumps([
        {
            "point": r.point, "kind": r.kind, "hits": list(r.hits),
            "rate": r.rate, "seed": r.seed, "scope": r.scope,
            "once_token": r.once_token, "delay": r.delay,
            "installer_pid": r.installer_pid,
        }
        for r in rules
    ])


def plan_from_env(raw: str) -> tuple[FaultRule, ...]:
    """Parse a serialized plan (the inverse of :func:`plan_to_env`)."""
    return tuple(
        FaultRule(
            point=d["point"], kind=d["kind"],
            hits=tuple(d.get("hits", (1,))),
            rate=float(d.get("rate", 0.0)),
            seed=int(d.get("seed", 0)),
            scope=d.get("scope", "worker"),
            once_token=d.get("once_token"),
            delay=float(d.get("delay", 30.0)),
            installer_pid=int(d.get("installer_pid", 0)),
        )
        for d in json.loads(raw)
    )


def active_plan() -> tuple[FaultRule, ...]:
    """The rules currently in force in this process (usually empty)."""
    global _PLAN_CACHE
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return ()
    if _PLAN_CACHE is not None and _PLAN_CACHE[0] == raw:
        return _PLAN_CACHE[1]
    plan = plan_from_env(raw)
    _PLAN_CACHE = (raw, plan)
    return plan


class install:
    """Context manager: put ``rules`` in force, here and in new workers.

    Sets ``REPRO_FAULTS`` (so processes forked/spawned inside the block
    inherit the plan), resets hit counters, and retires the persistent
    worker pools on entry *and* exit — existing workers carry a stale
    environment copy, so plans only ever apply to freshly-born pools.
    On exit the env var is restored and the pools are retired again so
    no faulted worker outlives the plan.
    """

    def __init__(self, rules) -> None:
        pid = os.getpid()
        self.rules = tuple(
            r if r.installer_pid else _with_installer(r, pid) for r in rules
        )
        self._saved: str | None = None

    def __enter__(self) -> "install":
        from repro.utils.executor import shutdown_pools

        shutdown_pools()
        reset()
        self._saved = os.environ.get(ENV_VAR)
        os.environ[ENV_VAR] = plan_to_env(self.rules)
        return self

    def __exit__(self, *exc) -> None:
        from repro.utils.executor import shutdown_pools

        if self._saved is None:
            os.environ.pop(ENV_VAR, None)
        else:  # pragma: no cover - nested plans are a test-only exotic
            os.environ[ENV_VAR] = self._saved
        shutdown_pools()


def _with_installer(rule: FaultRule, pid: int) -> FaultRule:
    import dataclasses

    return dataclasses.replace(rule, installer_pid=pid)


# --------------------------------------------------------------------- #
# Firing
# --------------------------------------------------------------------- #
def _in_worker() -> bool:
    """Whether this process is one of the layer's pool workers."""
    from repro.utils import executor

    return executor._IS_POOL_WORKER


def _rate_hash(seed: int, point: str, hit: int) -> float:
    """Deterministic uniform-[0,1) draw keyed on (seed, point, hit)."""
    digest = hashlib.blake2b(
        f"{seed}:{point}:{hit}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def _claim_once(token: str) -> bool:
    """Atomically claim a cross-process single-firing token."""
    try:
        fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _corrupt(payload):
    """Deterministically damage a worker result (the ``poison`` kind).

    Sign-flips the first element of the first numpy array found
    (recursing through tuples/lists) — the single-word damage
    shared-memory corruption produces, landing outside any valid part-id
    range so the partition-invariant validator *must* catch it.  A
    dataclass record with a ``volume`` field (a sweep ``RunRecord``) has
    that metric sign-flipped instead.
    """
    import dataclasses

    import numpy as np

    if isinstance(payload, np.ndarray) and payload.size:
        poisoned = payload.copy()
        poisoned[0] = -1 - poisoned[0]
        return poisoned
    if dataclasses.is_dataclass(payload) and hasattr(payload, "volume"):
        return dataclasses.replace(payload, volume=-1 - int(payload.volume))
    if isinstance(payload, (tuple, list)):
        out = []
        done = False
        for item in payload:
            if not done:
                damaged = _corrupt(item)
                if damaged is not item:
                    out.append(damaged)
                    done = True
                    continue
            out.append(item)
        return type(payload)(out) if done else payload
    return payload


def fault_point(name: str, payload=None):
    """Declare a named fault point; returns ``payload`` (possibly
    poisoned).

    Production cost with no plan installed: one ``os.environ`` lookup.
    Under a plan, each matching rule may raise, crash, hang, or corrupt
    the payload, as documented in the module docstring.
    """
    if name not in FAULT_POINTS:
        raise EvaluationError(
            f"unregistered fault point {name!r}; add it to "
            f"repro.utils.faults.FAULT_POINTS"
        )
    plan = active_plan()
    if not plan:
        return payload
    hit = _HITS.get(name, 0) + 1
    _HITS[name] = hit
    for rule in plan:
        if rule.point != name:
            continue
        if rule.scope == "worker" and not _in_worker():
            continue
        fire = (not rule.hits and rule.rate <= 0.0) or hit in rule.hits
        if not fire and rule.rate > 0.0:
            fire = _rate_hash(rule.seed, name, hit) < rule.rate
        if not fire:
            continue
        if rule.once_token is not None and not _claim_once(rule.once_token):
            continue
        payload = _fire(rule, name, payload)
    return payload


def _fire(rule: FaultRule, name: str, payload):
    if rule.kind == "poison":
        return _corrupt(payload)
    if rule.kind == "shm":
        raise FileNotFoundError(
            f"[injected fault] shared-memory segment gone at {name}"
        )
    if rule.kind == "disk":
        import errno

        raise OSError(
            errno.ENOSPC,
            f"[injected fault] no space left on device at {name}",
        )
    if rule.kind == "hang":
        time.sleep(rule.delay)
        raise InjectedFault(
            f"injected hang at {name} released after <= {rule.delay}s"
        )
    if rule.kind == "crash":
        if os.getpid() != rule.installer_pid:
            # Flush nothing, die like an OOM kill.  Never in the
            # installing process itself: an inline run there must
            # see a failure, not lose the whole test runner.
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # pragma: no cover - the signal is fatal
        raise InjectedFault(
            f"injected crash at {name} (downgraded in installer process)"
        )
    raise InjectedFault(f"injected exception at {name}")
