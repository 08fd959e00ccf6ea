"""Chaos suite for the serving daemon.

Four stories, each against a *real* daemon subprocess:

* a SIGKILLed worker mid-request is absorbed — the response carries the
  ``WorkerCrash`` brief and the bit-identical partition;
* a poisoned request fails alone — concurrent good requests succeed and
  the daemon lives;
* overload sheds as fast 503s while admitted work and cache hits keep
  their latency;
* a daemon SIGKILLed mid-cache-write restarts warm and replays its
  cache bit-identically (zero corrupted entries).
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.recursive import partition
from repro.errors import RequestFailed, ServeError
from repro.serve.cache import PartitionCache
from repro.serve.testing import start_daemon
from repro.sparse.collection import load_instance
from repro.utils import faults

pytestmark = pytest.mark.chaos

INSTANCE = "sym_grid2d_s"


def _plan(point, kind, *, hits=(), scope="worker", token=None):
    return faults.plan_to_env([
        faults.FaultRule(
            point=point, kind=kind, hits=tuple(hits), scope=scope,
            once_token=str(token) if token else None,
        )
    ])


@pytest.fixture
def daemon(tmp_path):
    handles = []

    def _start(*args, **kwargs):
        handle = start_daemon(tmp_path, *args, **kwargs)
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.kill()


# --------------------------------------------------------------------- #
# 1. SIGKILLed worker mid-request
# --------------------------------------------------------------------- #
def test_worker_sigkill_recovers_bit_identically(tmp_path, daemon):
    env = {"REPRO_FAULTS": _plan(
        "executor.task", "crash", token=tmp_path / "once-crash",
    )}
    handle = daemon("--retries", "2", env=env)
    result = handle.client().partition(instance=INSTANCE, nparts=4, seed=7)
    assert any("WorkerCrash" in b for b in result["failures"])
    reference = partition(load_instance(INSTANCE), 4, seed=7, jobs=1)
    assert result["parts"] == [int(p) for p in reference.parts]
    assert result["volume"] == reference.volume
    assert handle.alive()


def test_hung_worker_is_killed_by_watchdog(tmp_path, daemon):
    env = {"REPRO_FAULTS": _plan(
        "executor.task", "hang", token=tmp_path / "once-hang",
    )}
    handle = daemon("--retries", "2", "--timeout", "3", env=env)
    result = handle.client().partition(instance=INSTANCE, nparts=2, seed=7)
    assert any("Timeout" in b for b in result["failures"])
    assert handle.alive()


def test_exhausted_retries_return_structured_500_not_death(tmp_path, daemon):
    # Every worker attempt crashes (no once-token, fresh workers re-fire
    # hits=(1,) after each pool rebuild): the budget runs dry and the
    # daemon must answer with briefs, refuse inline fallback, and live.
    env = {"REPRO_FAULTS": _plan("executor.task", "crash", hits=(1,))}
    handle = daemon("--retries", "1", env=env)
    client = handle.client(retries=0)
    with pytest.raises(RequestFailed) as err:
        client.partition(instance=INSTANCE, nparts=2, seed=7)
    assert any("WorkerCrash" in b for b in err.value.briefs)
    assert "inline fallback is disabled" in str(err.value)
    assert handle.alive()
    assert client.health()["ok"] is True


# --------------------------------------------------------------------- #
# 2. Poisoned request isolated from concurrent good requests
# --------------------------------------------------------------------- #
def test_poisoned_request_is_isolated(tmp_path, daemon):
    # The daemon-side fault fires on exactly one admitted request (the
    # second to reach the point); its neighbours must not notice.
    env = {"REPRO_FAULTS": _plan(
        "serve.request", "exception", hits=(2,), scope="any",
    )}
    handle = daemon("--max-inflight", "4", env=env)
    client = handle.client(retries=0)

    def submit(seed):
        try:
            return client.partition(
                instance=INSTANCE, nparts=2, seed=seed
            )
        except ServeError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(submit, range(100, 104)))
    failed = [o for o in outcomes if isinstance(o, Exception)]
    good = [o for o in outcomes if isinstance(o, dict)]
    assert len(failed) == 1 and isinstance(failed[0], RequestFailed)
    assert len(good) == 3
    assert all(g["feasible"] in (True, False) for g in good)
    assert handle.alive()
    # Which request reached the point second is a race, so find the
    # poisoned seed from the outcomes.  Its neighbours were cached, and
    # it works fine on resubmission (the fault was the request's moment,
    # not the daemon's state).
    poisoned = 100 + outcomes.index(failed[0])
    neighbour = 100 + outcomes.index(good[0])
    client = handle.client()
    assert client.partition(
        instance=INSTANCE, nparts=2, seed=neighbour
    )["cached"] is True
    assert client.partition(
        instance=INSTANCE, nparts=2, seed=poisoned
    )["cached"] is False


def test_poisoned_result_is_caught_and_retried(tmp_path, daemon):
    env = {"REPRO_FAULTS": _plan(
        "executor.result", "poison", token=tmp_path / "once-poison",
    )}
    handle = daemon("--retries", "2", env=env)
    result = handle.client().partition(instance=INSTANCE, nparts=4, seed=7)
    assert any("ResultValidationError" in b for b in result["failures"])
    reference = partition(load_instance(INSTANCE), 4, seed=7, jobs=1)
    assert result["parts"] == [int(p) for p in reference.parts]


# --------------------------------------------------------------------- #
# 3. Overload sheds without latency collapse
# --------------------------------------------------------------------- #
def test_overload_sheds_503_and_cache_hits_stay_fast(tmp_path, daemon):
    handle = daemon(
        "--max-inflight", "1", "--queue-cap", "1",
        "--cache", str(tmp_path / "overload.cache"),
    )
    warm_client = handle.client()
    warm = warm_client.partition(instance=INSTANCE, nparts=2, seed=1)
    assert warm["cached"] is False

    def submit(seed):
        client = handle.client(retries=0)
        t0 = time.monotonic()
        try:
            result = client.partition(
                instance=INSTANCE, nparts=4, seed=seed,
                include_parts=False,
            )
            return "ok", time.monotonic() - t0, result
        except ServeError as exc:
            return type(exc).__name__, time.monotonic() - t0, exc

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(submit, 200 + i) for i in range(8)]
        # While the lanes are saturated, a cache hit must still be
        # served immediately: the probe happens before admission.
        t0 = time.monotonic()
        hit = handle.client(retries=0).partition(
            instance=INSTANCE, nparts=2, seed=1
        )
        hit_latency = time.monotonic() - t0
        outcomes = [f.result() for f in futures]

    shed = [o for o in outcomes if o[0] == "RequestRejected"]
    served = [o for o in outcomes if o[0] == "ok"]
    assert shed, "8 submissions against 2 admission slots must shed"
    assert served, "admitted requests must still complete"
    # A shed response is a refusal, not a wait: it must come back far
    # faster than the work it refused to queue.
    assert max(o[1] for o in shed) < 2.0
    assert hit["cached"] is True and hit_latency < 2.0
    stats = handle.client().stats()
    assert stats["shed"] >= len(shed)
    assert handle.alive()


# --------------------------------------------------------------------- #
# 4. Daemon SIGKILLed mid-cache-write replays bit-identically
# --------------------------------------------------------------------- #
def test_daemon_sigkill_mid_write_restarts_warm(tmp_path, daemon):
    cache = tmp_path / "killed.cache"
    # The third journal write crashes the daemon (SIGKILL, scope=any:
    # the fault fires in the daemon process itself, mid-put).
    env = {"REPRO_FAULTS": _plan(
        "serve.cache", "crash", hits=(3,), scope="any",
    )}
    first = daemon("--cache", str(cache), env=env)
    client = first.client(retries=0)
    r1 = client.partition(instance=INSTANCE, nparts=2, seed=1)
    r2 = client.partition(instance=INSTANCE, nparts=2, seed=2)
    with pytest.raises(OSError):
        client.partition(instance=INSTANCE, nparts=2, seed=3)
    first.proc.wait(timeout=10)
    assert not first.alive()

    # The journal the corpse left must load cleanly: fsync-per-entry
    # means everything before the kill survived, torn tail excluded.
    replay = PartitionCache(cache, cap=64)
    assert len(replay) == 2
    replay.close()
    assert not cache.with_name(cache.name + ".corrupt").exists()

    second = daemon("--cache", str(cache))
    warm = second.client()
    w1 = warm.partition(instance=INSTANCE, nparts=2, seed=1)
    w2 = warm.partition(instance=INSTANCE, nparts=2, seed=2)
    assert w1["cached"] is True and w1["parts"] == r1["parts"]
    assert w2["cached"] is True and w2["parts"] == r2["parts"]
    # The request the kill interrupted simply recomputes.
    w3 = warm.partition(instance=INSTANCE, nparts=2, seed=3)
    assert w3["cached"] is False and w3["feasible"] in (True, False)


def test_drain_fault_does_not_hang_shutdown(tmp_path, daemon):
    env = {"REPRO_FAULTS": _plan(
        "serve.drain", "exception", hits=(1,), scope="any",
    )}
    handle = daemon(env=env)
    assert handle.client().health()["ok"] is True
    # SIGTERM with an injected drain fault: still a clean exit 0.
    assert handle.terminate(timeout=30) == 0


def test_cache_journal_has_no_corrupt_entries_after_kill(tmp_path, daemon):
    cache = tmp_path / "audit.cache"
    handle = daemon("--cache", str(cache))
    client = handle.client()
    for seed in range(5):
        client.partition(
            instance=INSTANCE, nparts=2, seed=seed, include_parts=False
        )
    handle.kill()  # SIGKILL, no drain: the journal must already be safe
    lines = cache.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"partition_cache": 1}
    entries = [json.loads(line) for line in lines[1:]]
    assert len(entries) == 5
    assert all({"key", "result"} <= set(e) for e in entries)
