"""The daemon end to end: endpoints, admission, caching, drain.

One module-scoped daemon serves most tests (startup pays pool spawn);
lifecycle tests (SIGTERM drain, restart-warm) run their own.
"""

import http.client
import json

import pytest

from repro.core.recursive import partition
from repro.serve.protocol import DEFAULT_SEED
from repro.sparse.collection import load_instance
from repro.sparse.io_mm import write_matrix_market

INSTANCE = "sym_grid2d_s"


def _raw(handle, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else {}, dict(
            resp.getheaders()
        )
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# Probes and protocol errors
# --------------------------------------------------------------------- #
def test_healthz_and_readyz(served):
    client = served.client()
    assert client.health() == {"ok": True, "draining": False}
    assert client.ready() is True


def test_stats_shape(served):
    stats = served.client().stats()
    assert stats["ready"] is True
    assert {"requests", "served", "failed", "shed", "cache"} <= set(stats)


def test_unknown_path_404(served):
    status, body, _ = _raw(served, "GET", "/nope")
    assert status == 404 and "unknown path" in body["error"]


def test_wrong_method_405(served):
    status, _, _ = _raw(served, "GET", "/partition")
    assert status == 405
    status, _, _ = _raw(served, "POST", "/healthz")
    assert status == 405


def test_malformed_json_400(served):
    status, body, _ = _raw(
        served, "POST", "/partition", body=b"{not json",
        headers={"Content-Length": "9"},
    )
    assert status == 400 and "not JSON" in body["error"]


def test_unknown_field_400(served):
    status, body, _ = _raw(
        served, "POST", "/partition",
        body=json.dumps({"instance": INSTANCE, "nprts": 4}).encode(),
    )
    assert status == 400 and "unknown request field" in body["error"]


def test_flat_kway_request_400(served):
    status, body, _ = _raw(
        served, "POST", "/partition",
        body=json.dumps(
            {"instance": INSTANCE, "nparts": 4, "algo": "kway",
             "kway_vcycles": 0}
        ).encode(),
    )
    assert status == 400 and "flat direct k-way" in body["error"]


def test_unknown_instance_400(served):
    status, body, _ = _raw(
        served, "POST", "/partition",
        body=json.dumps({"instance": "no_such_matrix"}).encode(),
    )
    assert status == 400


def test_bad_upload_400(served):
    status, body, _ = _raw(
        served, "POST", "/partition",
        body=json.dumps({"matrix_market": "%%Garbage\n1 2\n"}).encode(),
    )
    assert status == 400 and "matrix_market" in body["error"]


def test_oversized_body_413(tmp_path, daemon):
    handle = daemon("--max-inflight", "1")
    # The daemon's max_body default is 8 MiB; claim more than that
    # without sending it — the 413 must come back without buffering.
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
    try:
        conn.putrequest("POST", "/partition")
        conn.putheader("Content-Length", str(64 * 1024 * 1024))
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 413
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# Partitioning, equivalence with the batch path, caching
# --------------------------------------------------------------------- #
def test_partition_matches_batch_path(served):
    result = served.client().partition(instance=INSTANCE, nparts=4)
    assert result["cached"] is False
    reference = partition(
        load_instance(INSTANCE), 4, seed=DEFAULT_SEED, jobs=1
    )
    assert result["parts"] == [int(p) for p in reference.parts]
    assert result["volume"] == reference.volume
    assert result["feasible"] == reference.feasible


def test_cache_hit_is_bit_identical(served):
    client = served.client()
    first = client.partition(instance=INSTANCE, nparts=4, seed=5)
    second = client.partition(instance=INSTANCE, nparts=4, seed=5)
    assert first["cached"] is False and second["cached"] is True
    assert second["parts"] == first["parts"]
    assert second["volume"] == first["volume"]


def test_include_parts_false_strips_vector_but_hits_cache(served):
    client = served.client()
    full = client.partition(instance=INSTANCE, nparts=2, seed=9)
    slim = client.partition(
        instance=INSTANCE, nparts=2, seed=9, include_parts=False
    )
    assert "parts" not in slim and slim["cached"] is True
    assert slim["volume"] == full["volume"]


def test_upload_equals_named_instance(served, tmp_path):
    client = served.client()
    path = tmp_path / "m.mtx"
    write_matrix_market(load_instance(INSTANCE), path)
    uploaded = client.partition(
        matrix_market=path.read_text(encoding="utf-8"), nparts=4, seed=3
    )
    named = client.partition(instance=INSTANCE, nparts=4, seed=3)
    # Same content => same digest => the second call is a cache hit of
    # the first, whatever the spelling of the matrix.
    assert uploaded["digest"] == named["digest"]
    assert named["cached"] is True
    assert uploaded["parts"] == named["parts"]


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #
def test_sigterm_drains_and_exits_zero(tmp_path, daemon):
    handle = daemon()
    assert handle.client().partition(
        instance=INSTANCE, nparts=2
    )["feasible"] in (True, False)
    assert handle.terminate() == 0


def test_drain_endpoint_exits_zero(tmp_path, daemon):
    handle = daemon()
    handle.client().drain()
    assert handle.proc.wait(timeout=30) == 0


def test_restart_replays_cache(tmp_path, daemon):
    cache = tmp_path / "restart.cache"
    first = daemon("--cache", str(cache))
    cold = first.client().partition(instance=INSTANCE, nparts=4, seed=11)
    first.client().drain()
    first.proc.wait(timeout=30)

    second = daemon("--cache", str(cache))
    warm = second.client().partition(instance=INSTANCE, nparts=4, seed=11)
    assert warm["cached"] is True
    assert warm["parts"] == cold["parts"]
