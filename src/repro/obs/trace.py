"""Tracer/Span core: monotonic spans, JSONL sink, cross-process context.

Design constraints, in order:

1. **Disabled is free.**  The module-level :data:`TRACER` is ``None``
   by default; every instrumentation site costs one attribute load and
   one ``is None`` test before bailing to a shared no-op singleton.
   No span is allocated, no clock is read, no RNG is touched — the
   traced-off path executes the same algorithmic instructions as
   before, so pinned goldens and BENCH bit-identity are unaffected.
2. **One clock, everywhere.**  Timestamps are ``time.monotonic()`` —
   the same discipline as :class:`repro.utils.deadline.Deadline`.  On
   Linux ``CLOCK_MONOTONIC`` is system-wide, so spans recorded in a
   forked pool worker land on the same timeline as the parent's and
   the stitched tree needs no clock reconciliation.
3. **Journal-grade sink.**  Span records are JSON Lines appended with
   a single buffered write + flush per record (the
   ``SweepCheckpoint`` / ``PartitionCache`` idiom).  Files are opened
   ``O_APPEND`` so concurrent writers (daemon + pool workers) do not
   clobber each other; readers tolerate a torn tail.  On ``OSError``
   the sink degrades to dropping records rather than failing the run.
4. **Context crosses processes with the dispatch loop.**  A
   :class:`TraceContext` is a tiny picklable envelope — trace id,
   parent span id, sink path.  The execution layer's one dispatch loop
   (:func:`repro.utils.executor.resilient_map`) snapshots the caller's
   context and runs every pool task under :func:`adopt`, so no task
   payload carries it; the serving daemon's dispatch threads pick up
   their request's span with :func:`activate`.  Span ids embed the
   minting pid plus a per-process counter that outlives each task's
   tracer, so tasks, retried attempts and respawned workers can never
   collide, and a watchdog-killed worker leaves no orphans: a worker
   only ever writes *completed* spans whose parent chain runs through
   the parent-process span that the surviving caller closes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TRACER",
    "enable",
    "disable",
    "span",
    "detached_span",
    "event",
    "activate",
    "adopt",
    "current_context",
    "current_span",
]


class TraceContext:
    """Picklable envelope carrying a trace across a process boundary.

    The moral analogue of :class:`repro.utils.deadline.Deadline`'s
    absolute expiry: the minimum state that keeps its meaning inside a
    forked or spawned pool worker.  ``parent`` is the span id the
    worker's spans should hang from; ``path`` is the JSONL sink both
    sides append to.
    """

    __slots__ = ("trace_id", "parent", "path")

    def __init__(self, trace_id: str, parent: str, path: str):
        self.trace_id = trace_id
        self.parent = parent
        self.path = path

    def __getstate__(self):
        return (self.trace_id, self.parent, self.path)

    def __setstate__(self, state):
        self.trace_id, self.parent, self.path = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext(trace={self.trace_id}, parent={self.parent})"


class _Sink:
    """Append-only JSONL writer, pid-guarded across fork.

    One buffered write + flush per record; a record is a single line,
    so readers recover everything up to a torn tail.  Any ``OSError``
    (disk full, unlinked directory) flips the sink to dropping mode —
    tracing must never take down the traced computation.
    """

    __slots__ = ("path", "_fh", "_pid", "_lock", "_dead")

    def __init__(self, path: str):
        self.path = str(path)
        self._fh = None
        self._pid = None
        self._lock = threading.Lock()
        self._dead = False

    def write(self, record: dict) -> None:
        if self._dead:
            return
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            try:
                if self._fh is None or self._pid != os.getpid():
                    # Reopen after fork: an inherited buffered handle
                    # could duplicate or interleave partial buffers.
                    self._fh = open(self.path, "a", encoding="utf-8")
                    self._pid = os.getpid()
                self._fh.write(line)
                self._fh.flush()
            except OSError:
                self._dead = True

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and self._pid == os.getpid():
                try:
                    self._fh.close()
                except OSError:
                    pass
            self._fh = None


class Span:
    """One timed stage.  Created open, written to the sink when closed.

    Usable as a context manager; :meth:`event` attaches point-in-time
    annotations (retry, watchdog kill, degradation) that land inside
    the span record rather than as separate lines.
    """

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent", "name",
        "t0", "t1", "attrs", "events", "_closed",
    )

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent: Optional[str], name: str, attrs: dict):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.events: list = []
        self.t0 = time.monotonic()
        self.t1 = None
        self._closed = False

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event at the current clock reading."""
        self.events.append({"name": name, "t": time.monotonic(), **attrs})

    def context(self) -> TraceContext:
        """Envelope for handing this span to a pool worker as parent."""
        return TraceContext(self.trace_id, self.span_id, self.tracer.path)

    def end(self) -> None:
        """Close the span (idempotent) and write it to the sink."""
        if self._closed:
            return
        self._closed = True
        self.t1 = time.monotonic()
        self.tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.event("error", type=exc_type.__name__)
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name}, id={self.span_id})"


class _NullSpan:
    """Shared no-op standing in for a span when tracing is disabled.

    A single module-level instance: entering/exiting it allocates
    nothing, and every mutator is a pass.  ``context()`` returns
    ``None``, so nothing downstream is traced when tracing is off.
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self

    def event(self, name, **attrs):
        pass

    def context(self):
        return None

    def end(self):
        pass


NULL_SPAN = _NullSpan()


_SPAN_IDS_LOCK = threading.Lock()
_span_ids = [0, 0]  # [pid that minted, last counter value]


def _next_span_id() -> str:
    """``"<pid hex>-<counter hex>"``, unique for the life of the process.

    The counter belongs to the process, not to a :class:`Tracer`: a pool
    worker installs a fresh tracer for every task it traces
    (:func:`adopt`), and a per-tracer counter would hand the same
    ids out again within one trace.  A forked child starts its own count
    under its own pid.
    """
    pid = os.getpid()
    with _SPAN_IDS_LOCK:
        if _span_ids[0] != pid:
            _span_ids[:] = [pid, 0]
        _span_ids[1] += 1
        n = _span_ids[1]
    return f"{pid:x}-{n:x}"


class Tracer:
    """Mints spans into one trace and appends them to a JSONL sink.

    Span ids are hierarchical in the record (explicit ``parent``
    links) and collision-free across processes and tasks by
    construction: each id is ``"<pid hex>-<per-process counter hex>"``
    (:func:`_next_span_id`).  The per-thread span stack gives
    ``span()`` its implicit parent, which keeps instrumentation sites
    one-liners.
    """

    def __init__(self, path: str, *, trace_id: Optional[str] = None,
                 root_parent: Optional[str] = None):
        self.path = str(path)
        self.sink = _Sink(self.path)
        self.trace_id = trace_id or (
            f"{os.getpid():x}-{time.monotonic_ns():x}"
        )
        self.root_parent = root_parent
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_span(self, name: str, attrs: Optional[dict] = None,
                   *, parent: Optional[str] = None,
                   detached: bool = False) -> Span:
        """Open a span (implicit stack parent unless ``parent`` given;
        ``detached`` skips the stack entirely — see
        :func:`detached_span`)."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1].span_id if stack else self.root_parent
        sp = Span(self, self.trace_id, _next_span_id(), parent, name,
                  dict(attrs) if attrs else {})
        if not detached:
            stack.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        stack = self._stack()
        if sp in stack:
            # Pop through sp: tolerates a child left open by an
            # exception unwinding past its __exit__.
            while stack:
                top = stack.pop()
                if top is sp:
                    break
        self.sink.write({
            "trace": sp.trace_id,
            "span": sp.span_id,
            "parent": sp.parent,
            "name": sp.name,
            "t0": sp.t0,
            "t1": sp.t1,
            "pid": os.getpid(),
            "attrs": sp.attrs,
            "events": sp.events,
        })

    def current(self) -> Optional[Span]:
        """This thread's innermost open (non-detached) span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def close(self) -> None:
        """Close the sink's file handle (reopened by a later write)."""
        self.sink.close()


# ---------------------------------------------------------------------
# Module-level switch.  ``TRACER is None`` *is* the disabled state;
# every helper below starts with that one check.
# ---------------------------------------------------------------------

TRACER: Optional[Tracer] = None


def enable(path: str, *, trace_id: Optional[str] = None,
           root_parent: Optional[str] = None) -> Tracer:
    """Install a module-level tracer writing to ``path``; returns it."""
    global TRACER
    TRACER = Tracer(path, trace_id=trace_id, root_parent=root_parent)
    return TRACER


def disable() -> None:
    """Tear down the module-level tracer (closing its sink)."""
    global TRACER
    if TRACER is not None:
        TRACER.close()
    TRACER = None


def span(name: str, **attrs: Any):
    """Open a span under the current one, or the shared no-op."""
    t = TRACER
    if t is None:
        return NULL_SPAN
    return t.start_span(name, attrs)


def detached_span(name: str, *, parent: Optional[str] = None,
                  **attrs: Any):
    """Open a span *off* the thread-local stack (explicit parentage).

    The asyncio serving tier needs this: many requests interleave on
    one event-loop thread, so implicit stack parentage would nest one
    request's span under another's.  Detached spans never touch the
    stack — children must be parented explicitly via
    ``parent=sp.span_id`` or handed across threads as a
    :class:`TraceContext`.
    """
    t = TRACER
    if t is None:
        return NULL_SPAN
    return t.start_span(name, attrs, parent=parent, detached=True)


def event(name: str, **attrs: Any) -> None:
    """Attach an event to the innermost open span, if tracing is on."""
    t = TRACER
    if t is None:
        return
    sp = t.current()
    if sp is not None:
        sp.event(name, **attrs)


def current_span():
    """The innermost open span, or the no-op singleton when disabled."""
    t = TRACER
    if t is None:
        return NULL_SPAN
    return t.current() or NULL_SPAN


def current_context() -> Optional[TraceContext]:
    """Envelope of the innermost open span — ``None`` when disabled.

    The dispatch loop snapshots this once per map and hands it to every
    pool task it runs (:func:`adopt`); ``None`` runs them untraced.
    """
    t = TRACER
    if t is None:
        return None
    sp = t.current()
    if sp is None:
        return TraceContext(t.trace_id, t.root_parent or "", t.path)
    return sp.context()


@contextmanager
def adopt(ctx: Optional[TraceContext]) -> Iterator[Optional[Tracer]]:
    """Run one pool task under a fresh tracer rooted at ``ctx``.

    Pool workers are long-lived and serve many unrelated tasks, so each
    task gets its own tracer, and the previous one is restored after it
    — a crashed task cannot leak one request's trace into the next.
    ``adopt(None)`` runs the task untraced.
    """
    global TRACER
    prev = TRACER
    mine = TRACER = None if ctx is None else Tracer(
        ctx.path, trace_id=ctx.trace_id, root_parent=ctx.parent or None,
    )
    try:
        yield mine
    finally:
        if mine is not None:
            mine.close()
        TRACER = prev


def activate(ctx: Optional[TraceContext], name: str, **attrs: Any):
    """Open a span parented by a :class:`TraceContext` from another
    thread (the serving daemon's hop from its event loop to a dispatch
    thread), or the shared no-op when either side is untraced."""
    t = TRACER
    if ctx is None or t is None:
        return NULL_SPAN
    return t.start_span(name, attrs, parent=ctx.parent or None)
