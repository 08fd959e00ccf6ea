"""The ``serve`` workload: a closed loop against a real daemon.

A ``repro-partition serve --jobs 2 --cache <journal>`` daemon is started
as a subprocess (:func:`repro.serve.testing.start_daemon`) and driven by
``CLIENTS`` client threads, each sending its next request only after the
previous one answered.  Requests come in *rounds* of ``ROUND_SIZE``,
every round with fresh partition seeds and the same mix:

* ``repeat`` (45%): a key requested earlier in the same round, so it
  is read from the cache.  It is sent only after its first request has
  answered, so it is a cache hit on every run;
* ``new`` (35%): a fresh p=4 key, computed by a pool worker and
  written to the fsynced journal;
* ``deadline`` (20%): a fresh p=16 key with a 10 ms soft
  ``timeout`` — the anytime path, answered degraded and never cached
  when the deadline expires.

The run repeats whole rounds until ``--seconds`` have elapsed.
Between rounds the loop lets the last requests answer and measures the
machine's slowdown (:func:`common.slowdown`) with nothing in flight;
the round's timings are divided by it.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    EPS, Tally, check_answer, digest, geomean, make_workdir, median,
    peak_rss_mb, percentile, ratio, remove_workdir, slowdown,
)

MATRIX = "sym_grid2d_m"
CLIENTS = 2
#: Per round of 40: 45% hits, 35% new keys, 20% deadline-bound.  The
#: hits are the fastest cluster and the deadline requests the next, so
#: the latency median falls inside the deadline cluster instead of on
#: the gap between two clusters, where it would jump from run to run.
ROUND_MIX = (("repeat", 18), ("new", 14), ("deadline", 8))
ROUND_SIZE = sum(n for _, n in ROUND_MIX)
NEW_NPARTS = 4
DEADLINE_NPARTS = 16
#: Far below one root bisection, so every deadline request runs the
#: root bisection and then the fallback split; a deadline near the
#: bisection time would make the overshoot flip between two values.
DEADLINE_TIMEOUT = 0.01
#: The warm-up request's seed; round seeds are drawn from ``[1, 2**31)``.
WARMUP_SEED = 0
#: Daemon starts per run; one start varies by ±20% (imports, fsync).
SETUPS = 5


@dataclass(frozen=True)
class Request:
    kind: str
    nparts: int
    seed: int
    timeout: float | None = None


def make_round(seed: int, r: int, short: bool) -> list[Request]:
    """Round ``r`` of the request sequence for run seed ``seed``.

    The first request is always ``new``; each ``repeat`` names a ``new``
    key placed before it.  ``short`` keeps the mix at a fifth the size.
    """
    rng = np.random.default_rng([seed, r])
    kinds = [k for k, n in ROUND_MIX for _ in range(n // 5 if short else n)]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    kinds.insert(0, kinds.pop(kinds.index("new")))
    out, fresh = [], []
    for kind in kinds:
        if kind == "repeat":
            src = fresh[int(rng.integers(len(fresh)))]
            out.append(Request("repeat", NEW_NPARTS, src))
            continue
        s = int(rng.integers(1, 2**31))
        if kind == "new":
            fresh.append(s)
            out.append(Request("new", NEW_NPARTS, s))
        else:
            out.append(Request("deadline", DEADLINE_NPARTS, s,
                               DEADLINE_TIMEOUT))
    return out


@dataclass
class Phase:
    """What one timed phase against one daemon measured."""

    requests: int = 0
    round_size: int = 0
    latencies: list = field(default_factory=list)
    overshoots: list = field(default_factory=list)
    #: Position in round 0 -> volume, for round 0's ``new`` answers.
    round0_volumes: dict = field(default_factory=dict)
    #: ``(nparts, seed, round) -> parts digest`` to re-run in-process.
    to_verify: dict = field(default_factory=dict)
    #: Round -> (start, slowdown); round -> last completion time.
    round_starts: dict = field(default_factory=dict)
    round_ends: dict = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        """Requests per second over the median round (a slow stretch of
        the machine then moves it less than a whole-run average)."""
        return ratio(self.round_size, median([
            (self.round_ends[r] - start) / slow
            for r, (start, slow) in self.round_starts.items()
            if r in self.round_ends
        ]))


class Loop:
    """The closed loop of one timed phase against one daemon."""

    def __init__(self, port: int, matrix, seed: int, seconds: float,
                 short: bool, tally: Tally) -> None:
        from repro.serve.client import ServeClient

        self.client = lambda: ServeClient(port=port, retries=4, timeout=60.0)
        self.matrix = matrix
        self.seed = seed
        self.short = short
        self.tally = tally
        self.phase = Phase()
        self.cond = threading.Condition()
        self.t_end = time.perf_counter() + seconds
        self.round = -1
        self.queue: list = []
        self.pos = 0
        self.inflight = 0
        self.starting = False
        self.slow = 1.0
        self.first: dict[int, threading.Event] = {}
        self.digests: dict[int, str] = {}
        self.sampled: set[int] = set()

    def _next(self):
        """The next ``(round, index, request, slowdown)``, or ``None``
        once the time is up at a round boundary."""
        with self.cond:
            while self.pos == len(self.queue):
                if self.starting:  # the other client opens the round
                    self.cond.wait()
                    continue
                if self.round >= 0 and time.perf_counter() >= self.t_end:
                    return None
                self.starting = True
                while self.inflight:
                    self.cond.wait()
                self.cond.release()
                try:
                    slow = slowdown()  # nothing in flight, lock released
                finally:
                    self.cond.acquire()
                self.round += 1
                self.queue = make_round(self.seed, self.round, self.short)
                self.pos = 0
                for req in self.queue:
                    if req.kind == "new":
                        self.first[req.seed] = threading.Event()
                self.slow = slow
                self.phase.round_starts[self.round] = (
                    time.perf_counter(), slow)
                self.starting = False
                self.cond.notify_all()
            i = self.pos
            self.pos += 1
            self.inflight += 1
            return self.round, i, self.queue[i], self.slow

    def _client_loop(self) -> None:
        client = self.client()
        while True:
            item = self._next()
            if item is None:
                return
            r, i, req, slow = item
            if req.kind == "repeat":
                self.first[req.seed].wait(timeout=120.0)
            try:
                self._one(client, r, i, req, slow)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                with self.cond:
                    self.tally.record(f"serve r{r} {req.kind}",
                                      [f"{type(exc).__name__}: {exc}"])
            finally:
                if req.kind == "new":
                    self.first[req.seed].set()
                with self.cond:
                    self.inflight -= 1
                    self.cond.notify_all()

    def _one(self, client, r: int, i: int, req: Request,
             slow: float) -> None:
        what = f"serve r{r} {req.kind} p={req.nparts} seed={req.seed}"
        fields = dict(instance=MATRIX, nparts=req.nparts, eps=EPS,
                      seed=req.seed)
        if req.timeout is not None:
            fields["timeout"] = req.timeout
        t0 = time.perf_counter()
        try:
            body = client.partition(**fields)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            with self.cond:
                self.tally.record(what, [f"{type(exc).__name__}: {exc}"])
            return
        dt = time.perf_counter() - t0
        parts = np.asarray(body.get("parts", ()), dtype=np.int64)
        problems = check_answer(self.matrix, parts, req.nparts,
                                body.get("volume"))
        fingerprint = digest(parts)
        degraded = bool(body.get("degraded"))
        with self.cond:
            ph = self.phase
            ph.requests += 1
            ph.latencies.append(dt / slow)
            ph.round_ends[r] = max(ph.round_ends.get(r, 0.0), t0 + dt)
            if req.kind == "deadline":
                ph.overshoots.append((dt - req.timeout) / slow)
            if req.kind == "new":
                self.digests[req.seed] = fingerprint
                if r == 0:
                    ph.round0_volumes[i] = body["volume"]
                if r == 0 or r not in self.sampled:
                    # All of round 0, then one key per later round.
                    self.sampled.add(r)
                    ph.to_verify[(req.nparts, req.seed, r)] = fingerprint
            elif req.kind == "repeat":
                if fingerprint != self.digests.get(req.seed):
                    problems.append("cache hit differs from its cold twin")
            elif not degraded and r == 0:
                ph.to_verify[(req.nparts, req.seed, r)] = fingerprint
            self.tally.record(what, problems)

    def run(self) -> Phase:
        self.phase.round_size = len(make_round(self.seed, 0, self.short))
        threads = [threading.Thread(target=self._client_loop, daemon=True)
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return self.phase


# -- daemon lifecycle ---------------------------------------------------
def start(work, tag: str, trace_path=None):
    """Start a daemon on a fresh journal and send the warm-up request;
    returns ``(handle, seconds from launch to warm ÷ slowdown)``."""
    from repro.serve.testing import start_daemon

    args = ["--cache", str(work / f"journal-{tag}.jsonl")]
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    slow = slowdown()
    t0 = time.perf_counter()
    handle = start_daemon(work, *args)
    try:
        handle.client(timeout=60.0).partition(
            instance=MATRIX, nparts=NEW_NPARTS, eps=EPS, seed=WARMUP_SEED,
            include_parts=False,
        )
    except BaseException:
        stop(handle)
        raise
    return handle, (time.perf_counter() - t0) / slow


def stop(handle) -> None:
    """Drain the daemon (SIGTERM) and wait until its whole process
    group — the daemon and its pool workers — has exited."""
    try:
        handle.terminate(timeout=30.0)
    except Exception:  # noqa: BLE001 - fall through to the hard kill
        handle.kill()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(handle.proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    else:
        handle.kill()
    if handle.proc.stdout is not None:
        handle.proc.stdout.close()


def _get(port: int, path: str) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", path)
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


def _scrape(port: int) -> tuple[dict, dict]:
    """``(/stats JSON, /metrics counter totals)``."""
    import layers

    stats = json.loads(_get(port, "/stats"))
    totals = layers.registry_totals(
        layers.parse_prometheus(_get(port, "/metrics"))
    )
    return stats, totals


def verify(phases, matrix, tally: Tally) -> None:
    """Every sampled non-degraded answer must equal in-process
    :func:`repro.partition` with the same seed (untimed; each key is
    computed once however many phases sampled it)."""
    from repro import partition

    refs = {}
    for phase in phases:
        for (nparts, seed, r), got in sorted(phase.to_verify.items()):
            if (nparts, seed) not in refs:
                ref = partition(matrix, nparts, method="mediumgrain",
                                eps=EPS, seed=seed, jobs=1)
                refs[nparts, seed] = digest(ref.parts)
            op_id = tally.record(
                f"serve in-process reference r{r} seed={seed}", [])
            if refs[nparts, seed] != got:
                tally.fail(op_id, f"serve r{r} p={nparts} seed={seed}",
                           ["daemon answer differs from in-process "
                            "partition()"])


def run(seed: int, seconds: float, trace: bool, short: bool) -> dict:
    import layers
    from repro.obs.report import read_trace
    from repro.sparse.collection import load_instance

    work = make_workdir("serve")
    tally = Tally()
    handles = []
    try:
        t0 = time.perf_counter()
        matrix = load_instance(MATRIX)
        load_s = time.perf_counter() - t0
        setup_s = []
        for k in range(1 if short else SETUPS):
            if handles:
                stop(handles.pop())
            handle, dt = start(work, f"setup{k}")
            handles.append(handle)
            setup_s.append(dt)
        port = handles[-1].port
        if not trace:
            phase = Loop(port, matrix, seed, seconds, short, tally).run()
            stop(handles.pop())
            verify([phase], matrix, tally)
            metrics = {
                "setup_s": median(setup_s),
                "ops_per_s": phase.ops_per_s,
                "latency_p50_ms": 1000.0 * percentile(phase.latencies, 50),
                "latency_p95_ms": 1000.0 * percentile(phase.latencies, 95),
                "deadline_overshoot_p50_ms": 1000.0 * median(phase.overshoots),
                "volume_geomean": geomean(
                    [v for _, v in sorted(phase.round0_volumes.items())]),
                "ok_frac": 1.0 - ratio(tally.failed, tally.attempted),
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            plain = Loop(port, matrix, seed, seconds / 2, short, tally).run()
            stop(handles.pop())
            path = work / "trace.jsonl"
            handle, _ = start(work, "traced", trace_path=path)
            handles.append(handle)
            stats0, totals0 = _scrape(handle.port)
            traced = Loop(handle.port, matrix, seed, seconds / 2, short,
                          tally).run()
            stats1, totals1 = _scrape(handle.port)
            stop(handles.pop())
            verify([plain, traced], matrix, tally)
            metrics = _layer_metrics(
                layers.Trace(read_trace(str(path))), plain, traced,
                stats0, stats1, totals0, totals1, seed, short,
            )
            metrics["sparse.load_s"] = load_s
    finally:
        for handle in handles:
            stop(handle)
        remove_workdir(work)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "reasons": tally.reasons,
    }


def _layer_metrics(spans, plain: Phase, traced: Phase, stats0, stats1,
                   totals0, totals1, seed: int, short: bool) -> dict:
    import layers

    n = traced.requests
    metrics = layers.zero_metrics()
    requests = spans.named("serve.request")

    def seed_of(rec):
        return rec["attrs"].get("label", "").rsplit("/seed", 1)[-1]

    stages, worker_s = layers.serve_stages(
        spans, [r for r in requests if seed_of(r) != str(WARMUP_SEED)]
    )
    metrics.update(stages)
    # Partitioner/core/kernel layers inside the daemon's workers, over
    # round 0's p=4 requests: the same keys on every same-seed run.
    round0 = {str(q.seed) for q in make_round(seed, 0, short)
              if q.kind != "deadline"}
    roots = [r for r in requests if seed_of(r) in round0]
    metrics.update(layers.fold(spans, roots, len(roots)))

    def dstat(*path):
        a, b = stats0, stats1
        for key in path:
            a, b = a[key], b[key]
        return b - a

    def dtotal(name):
        return totals1.get(name, 0.0) - totals0.get(name, 0.0)

    hits, misses = dstat("cache", "hits"), dstat("cache", "misses")
    metrics.update({
        "serve.cache.hit_ratio": ratio(hits, hits + misses),
        "serve.degraded": ratio(dstat("degraded_responses"), n),
        "serve.shed": ratio(dstat("shed"), n),
        "utils.executor.tasks": ratio(
            dtotal("repro_executor_tasks_total"), n),
        "utils.executor.retries": ratio(
            dtotal("repro_executor_retries_total"), n),
        "utils.executor.wait_s": ratio(
            dtotal("repro_executor_task_seconds") - worker_s, n),
        "obs.trace_overhead_frac": ratio(
            plain.ops_per_s, traced.ops_per_s) - 1.0,
    })
    return metrics
