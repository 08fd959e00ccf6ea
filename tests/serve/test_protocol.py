"""Request validation, content-addressed identity, and the HTTP helpers."""

import asyncio
import json

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.serve.protocol import (
    DEFAULT_SEED,
    MAX_KWAY_VCYCLES,
    MAX_NPARTS,
    PartitionRequest,
    http_response,
    matrix_digest,
    read_http_request,
)
from repro.sparse.matrix import SparseMatrix


def _matrix(seed=0, n=12):
    rng = np.random.default_rng(seed)
    return SparseMatrix(
        (n, n), rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    )


# --------------------------------------------------------------------- #
# PartitionRequest.from_payload
# --------------------------------------------------------------------- #
def test_minimal_payload_fills_defaults():
    req = PartitionRequest.from_payload({"instance": "sym_grid2d_s"})
    assert req.instance == "sym_grid2d_s"
    assert req.nparts == 2
    assert req.seed == DEFAULT_SEED
    assert req.include_parts is True
    assert req.timeout is None
    assert req.kway_vcycles == 1  # one multilevel cycle unless asked


def test_kway_vcycles_accepted_in_range():
    req = PartitionRequest.from_payload(
        {"instance": "x", "algo": "kway", "kway_vcycles": MAX_KWAY_VCYCLES}
    )
    assert req.kway_vcycles == MAX_KWAY_VCYCLES


def test_kway_vcycles_zero_rejected_for_kway_only():
    """``0`` selected the removed flat path: a k-way request naming it
    dies at admission; recursive requests never read the field."""
    with pytest.raises(ProtocolError, match="flat direct k-way"):
        PartitionRequest.from_payload(
            {"instance": "x", "algo": "kway", "kway_vcycles": 0}
        )
    req = PartitionRequest.from_payload(
        {"instance": "x", "algo": "recursive", "kway_vcycles": 0}
    )
    assert req.kway_vcycles == 0


def test_payload_must_be_object():
    with pytest.raises(ProtocolError, match="JSON object"):
        PartitionRequest.from_payload([1, 2, 3])


def test_unknown_fields_rejected():
    with pytest.raises(ProtocolError, match="unknown request field"):
        PartitionRequest.from_payload(
            {"instance": "x", "npart": 4}  # typo'd knob must not pass
        )


@pytest.mark.parametrize(
    "payload",
    [
        {},  # neither source
        {"instance": "x", "matrix_market": "%%MatrixMarket ..."},  # both
    ],
)
def test_exactly_one_matrix_source(payload):
    with pytest.raises(ProtocolError, match="exactly one"):
        PartitionRequest.from_payload(payload)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("nparts", 1, r"nparts must be in"),
        ("nparts", MAX_NPARTS + 1, r"nparts must be in"),
        ("nparts", True, r"must be int"),
        ("nparts", "4", r"must be int"),
        ("eps", 0.0, r"eps must be in"),
        ("eps", 1.5, r"eps must be in"),
        ("method", "nope", r"unknown method"),
        ("algo", "nope", r"unknown algo"),
        ("kway_vcycles", -1, r"kway_vcycles must be in"),
        ("kway_vcycles", MAX_KWAY_VCYCLES + 1, r"kway_vcycles must be in"),
        ("kway_vcycles", True, r"must be int"),
        ("kway_vcycles", "2", r"must be int"),
        ("config", "nope", r"unknown config preset"),
        ("timeout", -1.0, r"timeout must be positive"),
        ("refine", "yes", r"must be bool"),
    ],
)
def test_bad_knobs_rejected(field, value, match):
    payload = {"instance": "x", field: value}
    with pytest.raises(ProtocolError, match=match):
        PartitionRequest.from_payload(payload)


def test_int_promotes_to_float_for_eps_and_timeout():
    req = PartitionRequest.from_payload(
        {"instance": "x", "eps": 1, "timeout": 5}
    )
    assert req.eps == 1.0 and isinstance(req.eps, float)
    assert req.timeout == 5.0 and isinstance(req.timeout, float)


# --------------------------------------------------------------------- #
# Content-addressed identity
# --------------------------------------------------------------------- #
def test_matrix_digest_depends_on_content_only():
    a, b = _matrix(0), _matrix(0)
    assert matrix_digest(a) == matrix_digest(b)
    assert matrix_digest(a) != matrix_digest(_matrix(1))


def test_matrix_digest_is_cached():
    m = _matrix()
    assert matrix_digest(m) is matrix_digest(m)


def test_cache_key_covers_result_determining_knobs():
    digest = matrix_digest(_matrix())
    base = PartitionRequest.from_payload({"instance": "x"})
    key = base.cache_key(digest)
    for change in (
        {"nparts": 4},
        {"eps": 0.1},
        {"method": "finegrain"},
        {"refine": True},
        {"algo": "kway"},
        {"seed": 7},
        {"config": "patoh"},
    ):
        other = PartitionRequest.from_payload({"instance": "x", **change})
        assert other.cache_key(digest) != key, change
    assert base.cache_key("other-digest") != key
    # The k-way cycle count determines k-way results only.
    kway = PartitionRequest.from_payload({"instance": "x", "algo": "kway"})
    more = PartitionRequest.from_payload(
        {"instance": "x", "algo": "kway", "kway_vcycles": 2}
    )
    assert more.cache_key(digest) != kway.cache_key(digest)


def test_cache_key_ignores_speed_and_transport_knobs():
    digest = matrix_digest(_matrix())
    base = PartitionRequest.from_payload({"instance": "x"})
    same = PartitionRequest.from_payload(
        {"instance": "x", "include_parts": False, "timeout": 5.0}
    )
    assert same.cache_key(digest) == base.cache_key(digest)
    # Recursive requests never read kway_vcycles.
    for vcycles in (0, 2):
        other = PartitionRequest.from_payload(
            {"instance": "x", "kway_vcycles": vcycles}
        )
        assert other.cache_key(digest) == base.cache_key(digest), vcycles


# --------------------------------------------------------------------- #
# Wire helpers
# --------------------------------------------------------------------- #
def _parse(raw: bytes, max_body: int = 1 << 20):
    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_http_request(reader, max_body)

    return asyncio.run(inner())


def test_read_http_request_roundtrip():
    body = b'{"x": 1}'
    raw = (
        b"POST /partition HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    method, path, headers, got = _parse(raw)
    assert (method, path) == ("POST", "/partition")
    assert headers["content-type"] == "application/json"
    assert got == body


def test_read_http_request_empty_connection():
    assert _parse(b"") is None


@pytest.mark.parametrize(
    "raw",
    [
        b"GARBAGE\r\n\r\n",
        b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    ],
)
def test_read_http_request_malformed(raw):
    with pytest.raises(ProtocolError):
        _parse(raw)


def test_oversized_body_is_not_buffered():
    raw = (
        b"POST /partition HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
        + b"x" * 10  # far less than declared: must not be awaited
    )
    method, path, _headers, body = _parse(raw, max_body=100)
    assert body is None  # the 413 signal, without reading the payload


def test_http_response_shape():
    raw = http_response(503, {"error": "full"}, {"Retry-After": "0.5"})
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 503 Service Unavailable")
    assert b"Retry-After: 0.5" in head
    assert f"Content-Length: {len(body)}".encode() in head
    assert json.loads(body) == {"error": "full"}
