"""Request/response model and wire helpers of the partitioning service.

Three concerns live here because daemon and client must agree on them:

* :class:`PartitionRequest` — the validated request schema.  Parsing is
  strict (unknown fields, wrong types, and out-of-range knobs raise
  :class:`~repro.errors.ProtocolError`) so every malformed request dies
  at the admission boundary as an HTTP 400 instead of inside a worker.
* Content-addressed identity — :func:`matrix_digest` fingerprints a
  matrix's exact nonzero structure and values, and
  :meth:`PartitionRequest.cache_key` combines it with every
  result-determining knob ``(digest, nparts, eps, method, refine, algo,
  kway_vcycles, seed, config)``.  Two requests with equal keys are guaranteed the
  same partition (partitioning is deterministic in the seed), which is
  what makes the partition cache safe to serve from.
* Minimal HTTP/1.1 — the daemon speaks just enough HTTP for stdlib
  clients (``http.client``, ``curl``) to talk to it: one request per
  connection, ``Content-Length`` framing, JSON bodies.

Everything here is stdlib-only by design; the daemon must not grow
dependencies the batch CLI does not have.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.errors import ProtocolError

__all__ = [
    "DEFAULT_SEED",
    "MAX_NPARTS",
    "MAX_KWAY_VCYCLES",
    "PartitionRequest",
    "matrix_digest",
    "read_http_request",
    "http_response",
]

#: Requests that do not pin a seed get this one: a memoizing service
#: must be deterministic, so "no seed" means "the well-known seed", not
#: "fresh randomness" (the paper's base seed, as elsewhere in the repo).
DEFAULT_SEED = 2014

#: Admission-control ceiling on the requested part count: a request for
#: an absurd ``nparts`` is refused up front instead of exhausting a
#: worker.
MAX_NPARTS = 4096

#: Admission-control ceiling on ``kway_vcycles`` — each V-cycle is a
#: full coarsen/refine sweep, so an absurd count is a denial-of-service
#: knob, not a quality knob.
MAX_KWAY_VCYCLES = 64

_DIGEST_KEY = "serve_digest"


def matrix_digest(matrix) -> str:
    """Content digest of a matrix: shape + exact nonzero arrays.

    Cached on the (immutable) matrix object, so repeated requests
    against one resident matrix pay the hash once.
    """
    cached = matrix._cache.get(_DIGEST_KEY)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(repr(matrix.shape).encode())
    h.update(matrix.rows.tobytes())
    h.update(matrix.cols.tobytes())
    h.update(matrix.vals.tobytes())
    digest = h.hexdigest()[:32]
    matrix._cache[_DIGEST_KEY] = digest
    return digest


@dataclass(frozen=True)
class PartitionRequest:
    """One validated partitioning request.

    Exactly one of ``instance`` (a named collection matrix, resident in
    the daemon's hot matrix cache) or ``matrix_market`` (an uploaded
    MatrixMarket text, parsed — and rejected with a 400 — at admission)
    identifies the matrix.  The remaining fields mirror the
    ``repro-partition partition`` knobs that determine the result;
    speed-only knobs (exec backend, jobs) deliberately have no
    place in a request — they would fragment the cache without changing
    any answer.
    """

    instance: str = ""
    matrix_market: str = ""
    nparts: int = 2
    eps: float = 0.03
    method: str = "mediumgrain"
    refine: bool = False
    algo: str = "recursive"
    #: Multilevel V-cycle count for ``algo="kway"`` (0 = the flat direct
    #: k-way path).  Result-determining, so it is part of the cache key.
    kway_vcycles: int = 0
    seed: int = DEFAULT_SEED
    config: str = "mondriaan"
    #: Echo the per-nonzero part vector in the response (the one field
    #: that can dominate response size; ``False`` returns metrics only).
    include_parts: bool = True
    #: Per-request deadline override in seconds (``None`` = the
    #: daemon's configured default).
    timeout: Optional[float] = None

    @classmethod
    def from_payload(cls, payload) -> "PartitionRequest":
        """Parse and validate a decoded JSON body (strict)."""
        from repro.core.methods import ALGO_NAMES, METHOD_NAMES
        from repro.partitioner.config import PRESETS

        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ProtocolError(
                f"unknown request field(s) {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        instance = _typed(payload, "instance", str, "")
        matrix_market = _typed(payload, "matrix_market", str, "")
        if bool(instance) == bool(matrix_market):
            raise ProtocolError(
                "exactly one of 'instance' or 'matrix_market' must be "
                "given"
            )
        nparts = _typed(payload, "nparts", int, 2)
        if not 2 <= nparts <= MAX_NPARTS:
            raise ProtocolError(
                f"nparts must be in [2, {MAX_NPARTS}], got {nparts}"
            )
        eps = _typed(payload, "eps", float, 0.03)
        if not 0.0 < eps <= 1.0:
            raise ProtocolError(f"eps must be in (0, 1], got {eps}")
        method = _typed(payload, "method", str, "mediumgrain")
        if method not in METHOD_NAMES:
            raise ProtocolError(
                f"unknown method {method!r}; expected one of "
                f"{tuple(METHOD_NAMES)}"
            )
        algo = _typed(payload, "algo", str, "recursive")
        if algo not in ALGO_NAMES:
            raise ProtocolError(
                f"unknown algo {algo!r}; expected one of "
                f"{tuple(ALGO_NAMES)}"
            )
        kway_vcycles = _typed(payload, "kway_vcycles", int, 0)
        if not 0 <= kway_vcycles <= MAX_KWAY_VCYCLES:
            raise ProtocolError(
                f"kway_vcycles must be in [0, {MAX_KWAY_VCYCLES}], got "
                f"{kway_vcycles}"
            )
        config = _typed(payload, "config", str, "mondriaan")
        if config not in PRESETS:
            raise ProtocolError(
                f"unknown config preset {config!r}; expected one of "
                f"{sorted(PRESETS)}"
            )
        timeout = payload.get("timeout")
        if timeout is not None:
            timeout = _typed(payload, "timeout", float, None)
            if timeout <= 0:
                raise ProtocolError(
                    f"timeout must be positive, got {timeout}"
                )
        return cls(
            instance=instance,
            matrix_market=matrix_market,
            nparts=nparts,
            eps=eps,
            method=method,
            refine=_typed(payload, "refine", bool, False),
            algo=algo,
            kway_vcycles=kway_vcycles,
            seed=_typed(payload, "seed", int, DEFAULT_SEED),
            config=config,
            include_parts=_typed(payload, "include_parts", bool, True),
            timeout=timeout,
        )

    def cache_key(self, digest: str) -> str:
        """Content-addressed identity of this request's *result*.

        Keyed on the matrix digest plus every result-determining knob —
        and nothing else, so equal keys imply bit-identical partitions.
        """
        raw = (
            f"{digest}:{self.nparts}:{self.eps!r}:{self.method}:"
            f"{int(self.refine)}:{self.algo}:{self.kway_vcycles}:"
            f"{self.seed}:{self.config}"
        )
        return hashlib.sha256(raw.encode()).hexdigest()[:32]

    def label(self) -> str:
        """Short human label for failure briefs and logs."""
        what = self.instance or "upload"
        return f"{what}/p{self.nparts}/{self.algo}/seed{self.seed}"


def _typed(payload: dict, key: str, want: type, default):
    value = payload.get(key, default)
    if value is default:
        return default
    if want is float and isinstance(value, int) and not isinstance(
        value, bool
    ):
        value = float(value)
    if want is int and isinstance(value, bool):
        raise ProtocolError(f"field {key!r} must be {want.__name__}")
    if not isinstance(value, want):
        raise ProtocolError(
            f"field {key!r} must be {want.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


# --------------------------------------------------------------------- #
# Minimal HTTP/1.1
# --------------------------------------------------------------------- #
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard ceiling on accepted header block size (shed before buffering).
_MAX_HEADER_BYTES = 16 * 1024


async def read_http_request(reader, max_body: int):
    """Read one HTTP/1.1 request; returns ``(method, path, headers,
    body)`` or ``None`` on a closed/empty connection.

    ``body`` is ``None`` (instead of bytes) when the declared
    ``Content-Length`` exceeds ``max_body`` — the caller responds 413
    *without ever buffering* the oversized payload (admission control
    has to fire before memory pressure, not after).
    """
    line = await reader.readline()
    if not line:
        return None
    try:
        method, path, _version = line.decode("latin-1").split()
    except ValueError:
        raise ProtocolError(
            f"malformed request line {line[:60]!r}"
        ) from None
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise ProtocolError("header block too large")
        if line in (b"\r\n", b"\n", b""):
            break
        key, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line[:60]!r}")
        headers[key.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ProtocolError("malformed Content-Length header") from None
    if length < 0:
        raise ProtocolError("negative Content-Length")
    if length > max_body:
        return method.upper(), path, headers, None
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


def http_response(
    status: int, payload, extra_headers: dict | None = None
) -> bytes:
    """Serialize one HTTP/1.1 response (JSON body, connection closed)."""
    body = (
        payload if isinstance(payload, bytes)
        else json.dumps(payload).encode("utf-8")
    )
    extra = extra_headers or {}
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if "Content-Type" not in extra:
        lines.append("Content-Type: application/json")
    for key, value in extra.items():
        lines.append(f"{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
