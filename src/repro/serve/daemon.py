"""The always-available partitioning daemon.

``repro-partition serve`` turns the batch pipeline into a resident
service: matrices stay published in the shared-memory store, worker
pools stay warm (worker spawn and imports are paid once, at startup),
and every partitioning request is executed through the hardened
:func:`repro.utils.executor.resilient_map` dispatch loop — a request that
crashes, hangs, or poisons its worker gets a structured failure brief in
*its own* response while every concurrent request completes untouched.
The daemon process itself never dies for a request's sins.

Resilience is layered exactly like ``docs/robustness.md`` prescribes:

admission control
    Malformed requests die at the boundary (HTTP 400 with the parse
    error; oversized bodies are refused *without buffering* as 413).
    At most ``max_inflight`` requests execute concurrently and at most
    ``queue_cap`` more may wait; everything beyond that is shed
    immediately as 503 + ``Retry-After`` — the daemon degrades by
    refusing work, never by falling over under it.
anytime degradation
    Each request's ``timeout`` becomes a *soft* deadline handed to the
    partitioner, which stops at its next pass/level boundary and
    returns the incumbent: an expiring request answers **200 with
    ``degraded: true``** (plus the ``Degraded[...]`` briefs) instead of
    a 504, and the watchdog's hard kill waits ``deadline_grace``
    seconds behind the soft deadline.  Under queue pressure the soft
    deadline shrinks (``overload_deadline_factor``) — everyone gets a
    slightly worse answer before anyone is shed.  Degraded results are
    never cached.
crash isolation
    Work runs in pool workers under a per-request
    :class:`~repro.utils.executor.RetryPolicy` deadline; the watchdog
    SIGKILLs hung workers and crashed ones are retried with capped
    backoff.  With the budget exhausted the daemon *refuses* the batch
    layer's inline fallback (:func:`resilient_map` with no fallback):
    running a request that repeatedly killed workers inside the daemon's
    own address space would trade everyone's availability for one
    caller's answer.  The request gets a 500 (504 when every failure was
    a deadline) carrying the full brief trail.
crash-safe memoization
    Results are cached content-addressed (see
    :mod:`repro.serve.cache`); the journal is fsynced per entry and
    torn-tail tolerant, so a SIGKILLed daemon restarts warm with zero
    corrupted entries.
graceful drain
    SIGTERM (or ``POST /drain``) stops admission (``/readyz`` flips to
    503), lets inflight requests finish, then exits 0.

Endpoints: ``GET /healthz`` (liveness), ``GET /readyz`` (readiness),
``GET /stats`` (counters), ``GET /metrics`` (Prometheus text
exposition of the :mod:`repro.obs` registry), ``POST /partition``
(the work), ``POST /drain`` (graceful shutdown).  See
``docs/serving.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.recursive import partition
from repro.core.validate import validate_parts
from repro.errors import (
    DegradedExecution,
    EvaluationError,
    MatrixFormatError,
    ProtocolError,
    RequestFailed,
    RequestRejected,
    ResultValidationError,
)
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve.cache import PartitionCache
from repro.serve.protocol import (
    PartitionRequest,
    http_response,
    matrix_digest,
    read_http_request,
)
from repro.sparse.io_mm import read_matrix_market
from repro.sparse.matrix import SparseMatrix
from repro.utils import faults
from repro.utils.deadline import Deadline
from repro.utils.executor import (
    RetryPolicy,
    SharedMatrixStore,
    resilient_map,
    shutdown_pools,
)

__all__ = ["ServeConfig", "PartitionDaemon", "run_daemon"]


@dataclass
class ServeConfig:
    """Capacity and resilience knobs of one daemon instance."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (written to ``port_file`` and
    #: announced on stdout — how tests and scripts discover it).
    port: int = 0
    #: Concurrently *executing* requests (each occupies one pool worker
    #: and one dispatch thread).
    max_inflight: int = 2
    #: Admitted-but-waiting requests beyond ``max_inflight``; everything
    #: past the sum is shed as 503.
    queue_cap: int = 8
    #: Request body ceiling in bytes; larger uploads are refused as 413
    #: without ever being buffered.
    max_body: int = 8 * 1024 * 1024
    #: Default per-request deadline (seconds) on each worker attempt;
    #: requests may lower/raise it via their ``timeout`` field.
    timeout: float = 60.0
    #: Headroom (seconds) between a request's *soft* anytime deadline —
    #: handed to the partitioner, which stops at its next pass/level
    #: boundary and returns the incumbent — and the watchdog's hard
    #: SIGKILL.  The grace is what turns "deadline missed" into a 200
    #: with ``degraded: true`` instead of a killed worker and a 504.
    deadline_grace: float = 5.0
    #: Overload rung: once the admission queue is more than half full,
    #: new requests get their soft deadline multiplied by this factor —
    #: the daemon answers everyone a bit worse before it sheds anyone.
    #: ``1.0`` disables the rung.
    overload_deadline_factor: float = 0.5
    #: Worker-attempt retry budget per request.
    retries: int = 1
    #: Size of the process pool backing request execution.
    jobs: int = 2
    #: Partition-cache journal path (``None``/empty = in-memory only).
    cache_path: Optional[str] = None
    cache_cap: int = 512
    #: Where to write the bound port once listening (test discovery).
    port_file: Optional[str] = None
    #: Skip the startup warmup partition (tests that only probe HTTP).
    warmup: bool = True
    #: JSONL trace sink (``None`` = tracing disabled, the default).
    #: When set, every request produces one stitched span tree —
    #: admission, cache probe, dispatch, worker attempts, FM passes —
    #: in this file (see ``docs/observability.md``).
    trace_path: Optional[str] = None


_SERVE_EVENTS = _metrics.counter(
    "repro_serve_events_total",
    "Daemon request-lifecycle events by kind.",
    ("event",),
)
_SERVE_LATENCY = _metrics.histogram(
    "repro_serve_request_seconds",
    "POST /partition latency by outcome (hit/miss/degraded/shed/failed).",
    ("outcome",),
)

#: The daemon's lifecycle counters; ``degraded_responses`` counts 200s
#: answered with ``degraded: true`` (anytime incumbent) and
#: ``deadline_misses`` counts requests whose soft deadline expired
#: (degraded 200s *and* 504s).
_STAT_EVENTS = (
    "requests", "served", "cached", "failed", "rejected", "shed",
    "degraded_responses", "deadline_misses",
)


class _Stats:
    """Daemon counters, migrated onto the shared metrics registry.

    Each count lives as a ``repro_serve_events_total{event=...}`` child,
    so ``GET /stats`` and ``GET /metrics`` read the same source of
    truth.  The ``/stats`` JSON shape is unchanged: attribute reads
    return plain ints *relative to this daemon's start* (the registry is
    process-global and outlives a daemon instance — tests spin up
    several per process — while the historical hand-maintained ints
    started at zero with the daemon).
    """

    def __init__(self) -> None:
        self.started = time.monotonic()
        self._base = {
            name: _SERVE_EVENTS.labels(event=name).value
            for name in _STAT_EVENTS
        }

    def inc(self, name: str, amount: int = 1) -> None:
        _SERVE_EVENTS.labels(event=name).inc(amount)

    def __getattr__(self, name: str) -> int:
        base = self.__dict__.get("_base")
        if base is not None and name in base:
            return int(_SERVE_EVENTS.labels(event=name).value - base[name])
        raise AttributeError(name)


def _execute_request(arg):
    """Worker-side body of one request (module-level: must pickle).

    Receives a shared-memory handle plus the result-determining knobs;
    returns ``(parts, info)`` — a *tuple* so the fault layer's poison
    kind can reach the array, and so the daemon-side validator has a
    fixed shape to check.  The ``executor.task``/``executor.result``
    fault points make requests injectable exactly like batch tasks.
    """
    import dataclasses

    from repro.partitioner.config import get_config

    handle, spec = arg
    faults.fault_point("executor.task")
    matrix = handle.open()
    cfg = get_config(spec["config"])
    if spec.get("kway_vcycles", 1) != cfg.kway_vcycles:
        cfg = dataclasses.replace(
            cfg, kway_vcycles=spec["kway_vcycles"]
        )
    # The soft deadline starts ticking *here*, per attempt: a retry
    # after a crashed worker gets the full anytime window again, and
    # the watchdog's hard kill sits ``deadline_grace`` behind it.
    deadline = (
        Deadline(spec["deadline"]) if spec.get("deadline") else None
    )
    with _trace.span(
        "worker.partition", nparts=spec["nparts"], method=spec["method"],
    ):
        res = partition(
            matrix,
            spec["nparts"],
            method=spec["method"],
            eps=spec["eps"],
            refine=spec["refine"],
            config=cfg,
            seed=spec["seed"],
            jobs=1,
            algo=spec["algo"],
            deadline=deadline,
        )
    info = {
        "volume": int(res.volume),
        "max_part": int(res.max_part),
        "feasible": bool(res.feasible),
        "imbalance": float(res.imbalance),
        "seconds": float(res.seconds),
        "failures": list(res.failures),
        "degraded": any(b.startswith("Degraded") for b in res.failures),
    }
    return faults.fault_point("executor.result", (res.parts, info))


class PartitionDaemon:
    """One serving instance; ``run()`` is the whole lifecycle."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.cache = PartitionCache(
            self.config.cache_path or None, cap=self.config.cache_cap
        )
        self.stats = _Stats()
        self._cache_error_surfaced = False
        self.port: Optional[int] = None
        self._ready = False
        self._draining = False
        self._inflight = 0
        self._stop = asyncio.Event()
        self._sem = asyncio.Semaphore(self.config.max_inflight)
        #: Dispatch threads: each admitted request blocks one of these
        #: on :func:`resilient_map` while the event loop stays free.
        self._exec = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="serve-dispatch",
        )

    # ------------------------------------------------------------------ #
    # Request execution
    # ------------------------------------------------------------------ #
    def _resolve_matrix(self, req: PartitionRequest) -> SparseMatrix:
        """The request's matrix (resident instance or parsed upload).

        Anything wrong here is the *caller's* fault → 400.
        """
        if req.instance:
            from repro.sparse.collection import load_instance

            try:
                return load_instance(req.instance)
            except EvaluationError as exc:
                raise ProtocolError(str(exc)) from None
        try:
            return read_matrix_market(io.StringIO(req.matrix_market))
        except MatrixFormatError as exc:
            raise ProtocolError(f"bad matrix_market upload: {exc}") from None

    def _dispatch(
        self,
        req: PartitionRequest,
        matrix: SparseMatrix,
        soft_deadline: float | None = None,
        trace: object = None,
    ) -> tuple[dict, bool]:
        """Blocking execution of one cache-miss request (dispatch
        thread): publish, run hardened, validate at the trust boundary,
        assemble the cacheable result dict plus a degraded flag.

        ``soft_deadline`` is the anytime budget (seconds) the worker
        hands to the partitioner; the watchdog's hard kill sits
        ``deadline_grace`` behind it, so an expiring request answers
        with its incumbent instead of dying.
        """
        store = SharedMatrixStore.for_matrix(matrix, label=req.label())
        if soft_deadline is None:
            soft_deadline = req.timeout or self.config.timeout
        spec = {
            "nparts": req.nparts,
            "eps": req.eps,
            "method": req.method,
            "refine": req.refine,
            "algo": req.algo,
            "kway_vcycles": req.kway_vcycles,
            "seed": req.seed,
            "config": req.config,
            "deadline": soft_deadline,
        }
        policy = RetryPolicy(
            timeout=soft_deadline + self.config.deadline_grace,
            retries=self.config.retries,
        )
        label = req.label()
        nnz, nparts = matrix.nnz, req.nparts

        def check(_i, value):
            if not (isinstance(value, tuple) and len(value) == 2):
                raise ResultValidationError(
                    f"worker returned {type(value).__name__}, not a "
                    f"(parts, info) pair", task=label,
                )
            validate_parts(value[0], nnz, nparts, context=label)

        # The dispatch loop hands this span's context to the worker,
        # which parents its spans under it.
        with _trace.activate(trace, "serve.dispatch", label=label):
            [(value, failures)] = resilient_map(
                self.config.jobs, _execute_request,
                [(store.handle, spec)],
                policy=policy, validate=check, labels=[label],
            )
        parts, info = value
        result = {
            "instance": req.instance,
            "digest": matrix_digest(matrix),
            "nparts": req.nparts,
            "eps": req.eps,
            "method": req.method,
            "refine": req.refine,
            "algo": req.algo,
            "kway_vcycles": req.kway_vcycles,
            "seed": req.seed,
            "config": req.config,
            "volume": info["volume"],
            "max_part": info["max_part"],
            "feasible": info["feasible"],
            "imbalance": info["imbalance"],
            "seconds": info["seconds"],
            "parts": np.asarray(parts).tolist(),
            "failures": list(info.get("failures", ()))
            + [f.brief() for f in failures],
        }
        return result, bool(info.get("degraded", False))

    async def _partition(self, payload) -> tuple[int, dict, dict]:
        """The ``POST /partition`` pipeline; returns
        ``(status, body, extra_headers)``."""
        t0 = time.monotonic()
        req = PartitionRequest.from_payload(payload)
        matrix = self._resolve_matrix(req)
        key = req.cache_key(matrix_digest(matrix))
        # Detached (explicit-parent) span: requests interleave on the
        # event-loop thread, so stack-implicit nesting would braid
        # concurrent requests into each other's trees.
        sp = _trace.detached_span(
            "serve.request", label=req.label(), nparts=req.nparts,
            method=req.method,
        )
        outcome = "failed"
        try:
            # Cache probe *before* admission: hits must stay fast (and
            # shed-free) while the execution lanes are saturated.
            hit = self.cache.get(key)
            if hit is not None:
                outcome = "hit"
                sp.event("cache_hit")
                self.stats.inc("cached")
                self.stats.inc("served")
                return 200, self._render(req, hit, cached=True), {}
            sp.event("cache_miss")

            if self._draining:
                outcome = "shed"
                sp.event("shed", reason="draining")
                raise RequestRejected(
                    "daemon is draining", retry_after=2.0
                )
            waiting = self._inflight - (
                self.config.max_inflight - getattr(self._sem, "_value", 0)
            )
            if (
                self._inflight
                >= self.config.max_inflight + self.config.queue_cap
            ):
                outcome = "shed"
                sp.event(
                    "shed", reason="queue_full", inflight=self._inflight
                )
                self.stats.inc("shed")
                raise RequestRejected(
                    f"admission queue full ({self._inflight} requests "
                    f"admitted)",
                    retry_after=round(0.2 * max(1, waiting), 2),
                )

            # Anytime/overload rung: the soft deadline the partitioner
            # gets.  Above the queue's high-water mark it shrinks — the
            # daemon answers everyone a little worse *before* it sheds
            # anyone.
            soft = req.timeout or self.config.timeout
            if waiting > self.config.queue_cap // 2:
                soft = max(
                    0.05, soft * self.config.overload_deadline_factor
                )
                sp.event("overload_deadline", soft=soft)
            sp.event("admitted", waiting=waiting)

            self._inflight += 1
            try:
                async with self._sem:
                    # Daemon-side fault point: fires once the request
                    # holds an execution lane (chaos tests poison
                    # exactly here).
                    faults.fault_point("serve.request")
                    loop = asyncio.get_running_loop()
                    result, degraded = await loop.run_in_executor(
                        self._exec, self._dispatch, req, matrix, soft,
                        sp.context(),
                    )
            except DegradedExecution as exc:
                self.stats.inc("failed")
                briefs = [f.brief() for f in getattr(exc, "failures", ())]
                status = 504 if briefs and all(
                    "Timeout" in b for b in briefs
                ) else 500
                if status == 504:
                    self.stats.inc("deadline_misses")
                sp.event("retry_budget_exhausted", status=status)
                raise RequestFailed(
                    f"request {req.label()} exhausted its retry budget; "
                    f"inline fallback is disabled in the daemon",
                    briefs=briefs, status=status,
                ) from None
            finally:
                self._inflight -= 1

            if degraded:
                # The soft deadline expired inside the worker: the
                # incumbent partition comes back as a 200 with
                # ``degraded: true`` and the ``Degraded[...]`` briefs
                # saying what was cut short.  Never cached — a retry
                # with more headroom deserves (and will get) the
                # full-quality answer under the same key.
                outcome = "degraded"
                sp.event("degraded")
                self.stats.inc("deadline_misses")
                self.stats.inc("degraded_responses")
                self.stats.inc("served")
                body = self._render(req, result, cached=False)
                body["degraded"] = True
                return 200, body, {}

            outcome = "miss"
            try:
                self.cache.put(key, result)
            except Exception as exc:  # noqa: BLE001 - cache loss only
                # A broken cache degrades memoization, never the request.
                print(
                    f"repro-serve: cache write failed ({exc}); serving "
                    f"uncached", file=sys.stderr, flush=True,
                )
            self.stats.inc("served")
            body = self._render(req, result, cached=False)
            if self.cache.read_only and not self._cache_error_surfaced:
                # Surface the journal degradation once, on the response
                # that (first) observed it; /stats carries it
                # permanently.
                self._cache_error_surfaced = True
                body["failures"] = list(body.get("failures", ())) + [
                    self.cache.write_error
                ]
            return 200, body, {}
        finally:
            sp.set(outcome=outcome)
            sp.end()
            _SERVE_LATENCY.labels(outcome=outcome).observe(
                time.monotonic() - t0
            )

    @staticmethod
    def _render(req: PartitionRequest, result: dict, *, cached: bool) -> dict:
        body = dict(result)
        body["cached"] = cached
        if not req.include_parts:
            body.pop("parts", None)
        return body

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _on_connection(self, reader, writer) -> None:
        self.stats.inc("requests")
        try:
            status, body, extra = await self._route(reader)
        except ProtocolError as exc:
            self.stats.inc("rejected")
            status, body, extra = 400, {"error": str(exc)}, {}
        except RequestRejected as exc:
            status = exc.status
            body = {"error": str(exc), "retry_after": exc.retry_after}
            extra = {"Retry-After": f"{exc.retry_after:g}"}
        except RequestFailed as exc:
            status = exc.status
            body = {"error": str(exc), "failures": list(exc.briefs)}
            extra = {}
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - the daemon must live
            # The last line of defence: *nothing* a request does may
            # take the daemon down.  Unknown failures become opaque
            # 500s, with the detail on stderr for the operator.
            self.stats.inc("failed")
            print(
                f"repro-serve: unhandled {type(exc).__name__}: {exc}",
                file=sys.stderr, flush=True,
            )
            status, body = 500, {"error": f"internal error: {type(exc).__name__}"}
            extra = {}
        try:
            writer.write(http_response(status, body, extra))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    async def _route(self, reader) -> tuple[int, dict, dict]:
        request = await read_http_request(reader, self.config.max_body)
        if request is None:
            raise ProtocolError("empty request")
        method, path, _headers, body = request
        if body is None:
            self.stats.inc("shed")
            return 413, {
                "error": f"request body exceeds max_body="
                f"{self.config.max_body} bytes"
            }, {}
        if path == "/healthz":
            self._expect(method, "GET", path)
            return 200, {"ok": True, "draining": self._draining}, {}
        if path == "/readyz":
            self._expect(method, "GET", path)
            if self._ready and not self._draining:
                return 200, {"ready": True}, {}
            return 503, {
                "ready": False,
                "reason": "draining" if self._draining else "warming up",
            }, {"Retry-After": "1"}
        if path == "/stats":
            self._expect(method, "GET", path)
            return 200, self._stats_body(), {}
        if path == "/metrics":
            self._expect(method, "GET", path)
            # Prometheus text exposition 0.0.4 — a raw bytes body, which
            # ``http_response`` passes through untouched.
            return 200, _metrics.render_prometheus().encode("utf-8"), {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
            }
        if path == "/partition":
            self._expect(method, "POST", path)
            try:
                payload = json.loads(body.decode("utf-8") or "null")
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ProtocolError(f"request body is not JSON: {exc}") \
                    from None
            return await self._partition(payload)
        if path == "/drain":
            self._expect(method, "POST", path)
            self._stop.set()
            return 200, {"draining": True}, {}
        return 404, {"error": f"unknown path {path!r}"}, {}

    @staticmethod
    def _expect(method: str, want: str, path: str) -> None:
        if method != want:
            raise RequestRejected(
                f"{path} expects {want}, got {method}", status=405,
                retry_after=0.0,
            )

    def _stats_body(self) -> dict:
        s = self.stats
        return {
            "uptime": round(time.monotonic() - s.started, 3),
            "ready": self._ready,
            "draining": self._draining,
            "inflight": self._inflight,
            "requests": s.requests,
            "served": s.served,
            "failed": s.failed,
            "rejected": s.rejected,
            "shed": s.shed,
            "degraded_responses": s.degraded_responses,
            "deadline_misses": s.deadline_misses,
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": round(self.cache.hit_rate(), 4),
                "read_only": self.cache.read_only,
            },
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _warmup(self) -> None:
        """Pay the cold-start costs (pool spawn, worker imports) before
        declaring readiness, through the exact serving path."""
        rng = np.random.default_rng(0)
        n = 24
        rows = rng.integers(0, n, size=6 * n)
        cols = rng.integers(0, n, size=6 * n)
        matrix = SparseMatrix((n, n), rows, cols)
        req = PartitionRequest(instance="__warmup__", nparts=2)
        self._dispatch(req, matrix)

    async def run(self) -> int:
        """Serve until SIGTERM/SIGINT or ``POST /drain``; returns the
        exit code (0 on a clean drain)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(
                NotImplementedError, RuntimeError, ValueError
            ):
                loop.add_signal_handler(sig, self._stop.set)

        server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if self.config.port_file:
            with open(self.config.port_file, "w", encoding="utf-8") as fh:
                fh.write(str(self.port))
        if self.config.warmup:
            try:
                await loop.run_in_executor(self._exec, self._warmup)
            except Exception as exc:  # noqa: BLE001 - warmup is advisory
                # A failed warmup costs the first caller the cold start;
                # refusing to serve over it would cost everyone.
                print(
                    f"repro-serve: warmup failed "
                    f"({type(exc).__name__}: {exc}); serving cold",
                    file=sys.stderr, flush=True,
                )
        self._ready = True
        print(
            f"repro-serve ready host={self.config.host} port={self.port} "
            f"cache={len(self.cache)} entries",
            flush=True,
        )

        async with server:
            await self._stop.wait()
            # Graceful drain: stop admitting, finish what is inflight.
            self._draining = True
            with contextlib.suppress(Exception):
                # An injected drain fault must degrade the drain (skip
                # straight to shutdown), never hang or crash it.
                faults.fault_point("serve.drain")
            # Let an in-flight ``POST /drain`` acknowledgement flush
            # before the listener goes away.
            await asyncio.sleep(0.05)
            deadline = time.monotonic() + max(
                5.0, self.config.timeout * (self.config.retries + 1)
            )
            while self._inflight and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            server.close()
            await server.wait_closed()

        self._exec.shutdown(wait=True)
        self.cache.close()
        shutdown_pools()
        print(
            f"repro-serve drained: {self.stats.served} served, "
            f"{self.stats.failed} failed, {self.stats.shed} shed",
            flush=True,
        )
        return 0


def run_daemon(config: ServeConfig | None = None) -> int:
    """Blocking entry point behind ``repro-partition serve``."""
    daemon = PartitionDaemon(config)
    if daemon.config.trace_path:
        _trace.enable(daemon.config.trace_path)
    try:
        return asyncio.run(daemon.run())
    finally:
        if daemon.config.trace_path:
            _trace.disable()
