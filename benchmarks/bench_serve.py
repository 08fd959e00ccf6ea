"""Serving-tier benchmark: cache speedup and saturation under faults.

Where ``bench_e2e`` times the batch pipeline, this times the *daemon*
(:mod:`repro.serve`) as a black box over HTTP, the way a caller sees it.
Every stage drives a real ``repro-partition serve`` subprocess via
:func:`repro.serve.testing.start_daemon`.

Three gated stages:

``cache``
    Each request key is submitted cold (computed) and then warm (served
    from the content-addressed partition cache).  The gate is the point
    of memoizing at all: the median warm latency must be at least
    **20x** faster than the median cold latency, and every warm answer
    must be bit-identical to its cold twin.
``saturation``
    A thread fleet saturates the admission lanes of two daemons with
    identical workloads: one fault-free, one with a **10% injected
    worker-crash rate** (real SIGKILLs via :mod:`repro.utils.faults`,
    absorbed by the daemon's retry machinery).  Rounds of fresh seeds
    alternate between the two.  The gate is graceful degradation: the
    median faulted round p99 must stay within **3x** of the median
    fault-free round p99, with every completed answer bit-identical
    across the two daemons and at most one faulted request dropped.
``deadline``
    The same workload twice more: once unconstrained (the quality
    baseline), once under a deliberately tight per-request soft
    deadline (a quarter of the baseline median latency).  The gate is
    the anytime contract: at least **95%** of the deadline-constrained
    requests must answer 200 — degraded 200s count, that is the point —
    and every request that *didn't* degrade must be bit-identical to
    its unconstrained baseline twin.

Latencies are wall-clock per request as measured by the client,
including HTTP framing — the serving contract, not the kernel time.

Usage::

    python -m benchmarks.bench_serve             # write BENCH_serve.json
    python -m benchmarks.bench_serve --check     # re-run, enforce gates
    python -m benchmarks.bench_serve --smoke     # CI smoke (no timings)
    make bench-serve                             # the --check mode
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.errors import ServeError
from repro.serve.client import DegradedResult
from repro.serve.protocol import DEFAULT_SEED
from repro.serve.testing import start_daemon
from repro.utils import faults
from repro.utils.rng import spawn_seeds

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"
BASE_SEED = 2014

#: Large enough that one request is real work (the cache stage's cold
#: side and the saturation stage's service time), small enough that the
#: whole benchmark stays in CI territory.
INSTANCE = "sym_grid2d_m"
NPARTS = 4

#: Gates (mirrored into the report so the JSON is self-describing).
GATE_CACHE_SPEEDUP = 20.0
GATE_FAULT_P99_RATIO = 3.0
GATE_DEADLINE_200_RATE = 0.95
CRASH_RATE = 0.1

#: Saturation rounds per side.  One p99 of a couple dozen requests is
#: just the slowest request, so a single pair of runs cannot resolve a
#: change (ratios of 0.76 to 1.14 on one tree); the gate takes the
#: median of the per-round p99s instead.
SAT_ROUNDS = 5

#: Deadline stage: the soft deadline is this fraction of the baseline
#: median latency, floored so HTTP framing alone can't expire it.
DEADLINE_FRACTION = 0.25
DEADLINE_FLOOR_S = 0.05


def _p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    index = max(0, int(round(0.99 * len(ordered))) - 1)
    return ordered[index]


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


# --------------------------------------------------------------------- #
# Stage 1: cold vs cached latency
# --------------------------------------------------------------------- #
def bench_cache(tmp_path: Path, keys: int, jobs: int) -> dict:
    """Cold-vs-warm latency over ``keys`` distinct request keys."""
    handle = start_daemon(
        tmp_path, "--jobs", str(jobs),
        "--cache", str(tmp_path / "bench.cache"),
    )
    try:
        client = handle.client()
        seeds = spawn_seeds(BASE_SEED, keys)
        cold, warm = [], []
        for seed in seeds:
            t0 = time.perf_counter()
            first = client.partition(
                instance=INSTANCE, nparts=NPARTS, seed=seed
            )
            cold.append(time.perf_counter() - t0)
            if first["cached"]:
                raise AssertionError(f"seed {seed}: first request was warm")
            t0 = time.perf_counter()
            again = client.partition(
                instance=INSTANCE, nparts=NPARTS, seed=seed
            )
            warm.append(time.perf_counter() - t0)
            if not again["cached"]:
                raise AssertionError(f"seed {seed}: resubmission missed")
            if again["parts"] != first["parts"]:
                raise AssertionError(
                    f"seed {seed}: cached partition differs from computed"
                )
        median_cold = statistics.median(cold)
        median_warm = statistics.median(warm)
        return {
            "instance": INSTANCE,
            "nparts": NPARTS,
            "keys": keys,
            "cold_ms": [_ms(t) for t in cold],
            "warm_ms": [_ms(t) for t in warm],
            "median_cold_ms": _ms(median_cold),
            "median_warm_ms": _ms(median_warm),
            "speedup_cache": round(median_cold / median_warm, 2),
            "bit_identical": True,
            "gate_min_speedup": GATE_CACHE_SPEEDUP,
        }
    finally:
        handle.kill()


# --------------------------------------------------------------------- #
# Stage 2: saturation, fault-free vs 10% worker crashes
# --------------------------------------------------------------------- #
def _start(tmp_path: Path, jobs: int, env: dict | None):
    return start_daemon(
        tmp_path, "--jobs", str(jobs), "--retries", "3", env=env,
    )


def _fire(handle, seeds: list[int], timeout: float | None = None) -> list:
    """Submit ``seeds`` from a 4-thread fleet; per-seed outcomes.

    A non-``None`` ``timeout`` rides along on every request as its soft
    anytime deadline.
    """
    extra = {} if timeout is None else {"timeout": timeout}

    def submit(seed: int):
        client = handle.client()
        t0 = time.perf_counter()
        try:
            result = client.partition(
                instance=INSTANCE, nparts=NPARTS, seed=seed,
                include_parts=False, **extra,
            )
        except ServeError as exc:
            return seed, time.perf_counter() - t0, None, type(exc).__name__
        # Degraded[...] briefs mean "deadline cut", not "fault
        # recovered" — keep the two stories apart.
        recovered = any(
            not b.startswith("Degraded") for b in result["failures"]
        )
        return seed, time.perf_counter() - t0, result, recovered

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(submit, seeds))
    if not handle.alive():
        raise AssertionError("daemon died during the saturation run")
    return outcomes


def _summarize(outcomes: list) -> dict:
    """Per-seed latencies and volumes of a batch of outcomes; degraded
    200s are counted (and listed by seed) separately from full-quality
    answers."""
    served = [(s, t, r, f) for s, t, r, f in outcomes if r is not None]
    latencies = [t for _, t, _, _ in served]
    degraded = [s for s, _, r, _ in served if isinstance(r, DegradedResult)]
    return {
        "requests": len(outcomes),
        "served": len(served),
        "failed": len(outcomes) - len(served),
        "recovered": sum(1 for _, _, _, f in served if f is True),
        "degraded": len(degraded),
        "degraded_seeds": [str(s) for s in degraded],
        "volumes": {str(s): r["volume"] for s, _, r, _ in served},
        "latencies_ms": [_ms(t) for t in latencies],
        "p50_ms": _ms(statistics.median(latencies)),
        "p99_ms": _ms(_p99(latencies)),
    }


def _saturate(
    tmp_path: Path, seeds: list[int], jobs: int, env: dict | None,
    timeout: float | None = None,
) -> dict:
    """One saturation run on a fresh daemon; see :func:`_summarize`."""
    handle = _start(tmp_path, jobs, env)
    try:
        return _summarize(_fire(handle, seeds, timeout))
    finally:
        handle.kill()


def bench_saturation(tmp_path: Path, requests: int, jobs: int) -> dict:
    """The same saturating workload, fault-free and under crash faults.

    ``SAT_ROUNDS`` rounds of ``requests`` fresh seeds alternate between
    a fault-free and a faulted daemon (which goes first alternates too,
    so drift in the host's load cancels).  Each round yields one p99 per
    side; the gate ratio is the median faulted round p99 over the
    median fault-free one, and the per-round ratios record the spread.
    """
    seeds = spawn_seeds(BASE_SEED + 1, requests * SAT_ROUNDS)
    plan = faults.plan_to_env([
        faults.FaultRule(
            point="executor.task", kind="crash", hits=(),
            rate=CRASH_RATE, seed=BASE_SEED, scope="worker",
        )
    ])
    daemons = {
        "fault_free": _start(tmp_path, jobs, None),
        "faulted": _start(tmp_path, jobs, {"REPRO_FAULTS": plan}),
    }
    outcomes = {side: [] for side in daemons}
    round_p99 = {side: [] for side in daemons}
    try:
        # Untimed warm-up on seeds of their own (the cache would answer
        # a repeat): the first requests of a fresh daemon pay its cold
        # start, which would otherwise inflate the first round only.
        for handle in daemons.values():
            _fire(handle, spawn_seeds(BASE_SEED + 3, 4))
        for r in range(SAT_ROUNDS):
            batch = seeds[r * requests:(r + 1) * requests]
            order = list(daemons) if r % 2 == 0 else list(daemons)[::-1]
            for side in order:
                got = _fire(daemons[side], batch)
                outcomes[side].extend(got)
                round_p99[side].append(
                    _ms(_p99([t for _, t, res, _ in got if res is not None]))
                )
    finally:
        for handle in daemons.values():
            handle.kill()
    fault_free = _summarize(outcomes["fault_free"])
    faulted = _summarize(outcomes["faulted"])
    if fault_free["failed"]:
        raise AssertionError("fault-free saturation run dropped requests")

    # Completed answers must be bit-identical across the two runs: a
    # crash the daemon absorbed is invisible in the result.
    for seed, volume in faulted["volumes"].items():
        if fault_free["volumes"][seed] != volume:
            raise AssertionError(
                f"seed {seed}: faulted volume {volume} != fault-free "
                f"{fault_free['volumes'][seed]}"
            )
    for side in (fault_free, faulted):
        del side["volumes"]  # checked above; hundreds of seeds long
    fault_free["round_p99_ms"] = round_p99["fault_free"]
    faulted["round_p99_ms"] = round_p99["faulted"]
    ratios = [
        round(f / c, 2)
        for c, f in zip(round_p99["fault_free"], round_p99["faulted"])
    ]
    return {
        "instance": INSTANCE,
        "nparts": NPARTS,
        "threads": 4,
        "crash_rate": CRASH_RATE,
        "rounds": SAT_ROUNDS,
        "requests_per_round": requests,
        "fault_free": fault_free,
        "faulted": faulted,
        "p99_ratio": round(
            statistics.median(round_p99["faulted"])
            / statistics.median(round_p99["fault_free"]), 2
        ),
        "round_p99_ratios": ratios,
        "p99_ratio_range": [min(ratios), max(ratios)],
        "bit_identical": True,
        "gate_max_p99_ratio": GATE_FAULT_P99_RATIO,
    }


# --------------------------------------------------------------------- #
# Stage 3: anytime deadlines — degraded 200s, never wrong answers
# --------------------------------------------------------------------- #
def bench_deadline(tmp_path: Path, requests: int, jobs: int) -> dict:
    """The same workload unconstrained, then under a tight soft deadline.

    The constrained run must keep answering 200 (degraded counts), and
    any request that *didn't* degrade must be bit-identical to its
    unconstrained twin — the deadline may cost quality, never
    correctness.
    """
    seeds = spawn_seeds(BASE_SEED + 2, requests)
    baseline = _saturate(tmp_path, seeds, jobs, env=None)
    if baseline["failed"]:
        raise AssertionError("baseline deadline run dropped requests")
    if baseline["degraded"]:
        raise AssertionError("baseline run degraded without a deadline")

    soft = max(DEADLINE_FLOOR_S, DEADLINE_FRACTION * baseline["p50_ms"] / 1e3)
    constrained = _saturate(tmp_path, seeds, jobs, env=None, timeout=soft)

    # Full-quality answers under the deadline are the *same* answers.
    degraded_seeds = set(constrained["degraded_seeds"])
    for seed, volume in constrained["volumes"].items():
        if seed in degraded_seeds:
            continue
        if baseline["volumes"][seed] != volume:
            raise AssertionError(
                f"seed {seed}: non-degraded volume {volume} != baseline "
                f"{baseline['volumes'][seed]}"
            )
    return {
        "instance": INSTANCE,
        "nparts": NPARTS,
        "threads": 4,
        "soft_deadline_ms": _ms(soft),
        "baseline": baseline,
        "constrained": constrained,
        "rate_200": round(constrained["served"] / constrained["requests"], 4),
        "degraded_200s": constrained["degraded"],
        "bit_identical_full_quality": True,
        "gate_min_200_rate": GATE_DEADLINE_200_RATE,
    }


def enforce_gates(report: dict) -> int:
    """Print and enforce the serving gates; returns failure count."""
    failures = 0
    speedup = report["cache"]["speedup_cache"]
    ok = speedup >= GATE_CACHE_SPEEDUP
    print(
        f"  gate cache-speedup : x{speedup:<8.2f} "
        f"(>= x{GATE_CACHE_SPEEDUP:.0f})  {'ok' if ok else 'FAIL'}"
    )
    failures += not ok
    ratio = report["saturation"]["p99_ratio"]
    ok = ratio <= GATE_FAULT_P99_RATIO
    print(
        f"  gate faulted-p99   : x{ratio:<8.2f} "
        f"(<= x{GATE_FAULT_P99_RATIO:.0f})  {'ok' if ok else 'FAIL'}"
    )
    failures += not ok
    dropped = report["saturation"]["faulted"]["failed"]
    ok = dropped <= 1
    print(
        f"  gate faulted-drops : {dropped} of "
        f"{report['saturation']['faulted']['requests']} "
        f"(<= 1)  {'ok' if ok else 'FAIL'}"
    )
    failures += not ok
    rate = report["deadline"]["rate_200"]
    ok = rate >= GATE_DEADLINE_200_RATE
    print(
        f"  gate deadline-200s : {rate:<8.0%} "
        f"(>= {GATE_DEADLINE_200_RATE:.0%}, "
        f"{report['deadline']['degraded_200s']} degraded)  "
        f"{'ok' if ok else 'FAIL'}"
    )
    failures += not ok
    return failures


def run_benchmarks(tmp_path: Path, keys: int, requests: int, jobs: int) -> dict:
    report = {
        "schema": 1,
        "base_seed": BASE_SEED,
        "jobs": jobs,
        "cache": bench_cache(tmp_path, keys, jobs),
        "saturation": bench_saturation(tmp_path, requests, jobs),
        "deadline": bench_deadline(tmp_path, requests, jobs),
    }
    cache = report["cache"]
    sat = report["saturation"]
    dl = report["deadline"]
    print(
        f"  cache      : cold {cache['median_cold_ms']:8.1f} ms   warm "
        f"{cache['median_warm_ms']:6.2f} ms   x{cache['speedup_cache']:.1f}"
    )
    print(
        f"  saturation : median round p99 x{sat['p99_ratio']:.2f} "
        f"(rounds x{sat['p99_ratio_range'][0]:.2f}.."
        f"x{sat['p99_ratio_range'][1]:.2f})   "
        f"({sat['faulted']['recovered']} recovered crashes)"
    )
    print(
        f"  deadline   : soft {dl['soft_deadline_ms']:8.1f} ms   "
        f"200-rate {dl['rate_200']:.0%}   "
        f"({dl['degraded_200s']} of {dl['constrained']['requests']} degraded)"
    )
    return report


# --------------------------------------------------------------------- #
# CI smoke: both algorithms, cache hit, /metrics scrape, clean drain
# --------------------------------------------------------------------- #
def _scrape_metrics(port: int) -> dict[str, float]:
    """GET /metrics and parse the Prometheus text exposition format.

    Returns ``{sample_name_with_labels: value}``; raises
    ``AssertionError`` on any structural violation (a family without
    HELP/TYPE headers, a malformed sample line, a sample outside its
    family) — the smoke test's format gate.
    """
    import http.client
    import re

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        body = resp.read().decode("utf-8")
        if resp.status != 200:
            raise AssertionError(f"GET /metrics answered {resp.status}")
        ctype = resp.getheader("Content-Type", "")
        if not ctype.startswith("text/plain"):
            raise AssertionError(f"GET /metrics Content-Type: {ctype!r}")
    finally:
        conn.close()

    sample_re = re.compile(
        r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
        r'(?P<labels>\{[^}]*\})?'
        r' (?P<value>[0-9eE.+-]+|\+Inf|-Inf|NaN)$'
    )
    samples: dict[str, float] = {}
    family = None
    typed = set()
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            family = line.split(" ", 3)[2]
        elif line.startswith("# TYPE "):
            name, kind = line.split(" ", 3)[2:4]
            if name != family:
                raise AssertionError(f"TYPE {name} does not follow its HELP")
            if kind not in ("counter", "gauge", "histogram", "untyped"):
                raise AssertionError(f"unknown metric type {kind!r}")
            typed.add(name)
        else:
            m = sample_re.match(line)
            if m is None:
                raise AssertionError(f"malformed sample line: {line!r}")
            if family is None or not m.group("name").startswith(family):
                raise AssertionError(
                    f"sample {m.group('name')} outside family {family}"
                )
            samples[m.group("name") + (m.group("labels") or "")] = float(
                m.group("value").replace("+Inf", "inf")
            )
    if family is not None and not typed:
        raise AssertionError("exposition has HELP lines but no TYPE lines")
    return samples


def run_smoke(tmp_path: Path) -> int:
    """Boot a daemon, submit p in {2, 4} over both algorithms, verify a
    cache hit on resubmission, scrape and validate ``GET /metrics``,
    and drain it cleanly.  **No wall-clock gating** — this proves the
    serving plumbing on a cold CI runner."""
    failures = 0
    handle = start_daemon(
        tmp_path, "--cache", str(tmp_path / "smoke.cache"),
    )
    client = handle.client()
    for algo in ("recursive", "kway"):
        for nparts in (2, 4):
            first = client.partition(
                instance="sym_grid2d_s", nparts=nparts, algo=algo,
                seed=DEFAULT_SEED,
            )
            again = client.partition(
                instance="sym_grid2d_s", nparts=nparts, algo=algo,
                seed=DEFAULT_SEED,
            )
            ok = (
                not first["cached"] and again["cached"]
                and again["parts"] == first["parts"]
                and again["volume"] == first["volume"]
            )
            failures += not ok
            print(
                f"  {algo:10s} p={nparts}  volume={first['volume']:<6d} "
                f"cache-hit={'ok' if ok else 'MISMATCH'}"
            )
    try:
        samples = _scrape_metrics(handle.port)
    except AssertionError as exc:
        failures += 1
        print(f"  metrics: FAIL ({exc})")
    else:
        requests = samples.get(
            'repro_serve_events_total{event="requests"}', 0.0
        )
        served = samples.get('repro_serve_events_total{event="served"}', 0.0)
        lat_count = sum(
            v for k, v in samples.items()
            if k.startswith("repro_serve_request_seconds_count")
        )
        ok = requests >= 8 and served >= 8 and lat_count >= 8
        failures += not ok
        print(
            f"  metrics: {len(samples)} samples  "
            f"requests={requests:.0f} served={served:.0f} "
            f"latency-observations={lat_count:.0f} "
            f"{'ok' if ok else 'FAIL (expected >= 8 of each)'}"
        )
    stats = client.stats()
    rc = handle.terminate(timeout=60)
    ok = rc == 0
    failures += not ok
    print(
        f"  drain: exit {rc} {'ok' if ok else 'FAIL'}   "
        f"served={stats['served']} cache_hits={stats['cache']['hits']}"
    )
    print(f"\nserve smoke: {failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    import tempfile

    parser = argparse.ArgumentParser(
        prog="bench_serve",
        description="serving-tier latency / saturation benchmark",
    )
    parser.add_argument("--check", action="store_true",
                        help="re-run and enforce the serving gates "
                             "without rewriting the committed JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: both algorithms, cache hit on "
                             "resubmit, clean drain (no timings, no JSON)")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--keys", type=int, default=5,
                        help="distinct request keys for the cache stage")
    parser.add_argument("--requests", type=int, default=24,
                        help="requests per saturation round (and per "
                             "deadline run)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="daemon worker-pool size")
    args = parser.parse_args(argv)
    out = Path(args.out)

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        tmp_path = Path(tmp)
        if args.smoke:
            print("serving smoke (both algorithms, cache hit, drain)")
            return run_smoke(tmp_path)

        if args.check:
            # Serving latency is host-dependent; the committed file
            # records one trajectory point, the *gates* are the
            # contract — so --check re-measures and enforces them.
            keys = max(3, args.keys // 2)
            requests = max(12, args.requests // 2)
            print(
                f"checking the serving gates ({keys} keys, "
                f"{requests} requests per saturation round)"
            )
            report = run_benchmarks(tmp_path, keys, requests, args.jobs)
            if out.exists():
                committed = json.loads(out.read_text(encoding="utf-8"))
                print(
                    f"  committed  : cache x"
                    f"{committed['cache']['speedup_cache']:.1f}   "
                    f"faulted p99 x"
                    f"{committed['saturation']['p99_ratio']:.2f}"
                )
            failures = enforce_gates(report)
            if failures:
                print(f"\n{failures} serving gate(s) failed")
                return 1
            print("\nserving gates hold")
            return 0

        print(
            f"timing the serving tier on {INSTANCE} p={NPARTS} "
            f"({args.keys} cache keys, {args.requests} requests per "
            f"saturation round, jobs={args.jobs})"
        )
        report = run_benchmarks(tmp_path, args.keys, args.requests, args.jobs)
        failures = enforce_gates(report)
        if failures:
            print(f"\n{failures} serving gate(s) failed — not writing {out}")
            return 1
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"written to {out}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
