"""Wire format shared by the sweep service's server and client.

Requests and responses travel as JSON envelopes over HTTP/1.1.  The
JSON layer carries everything a human or a load balancer might care
about (client id, priority, counts, failure reports); the simulation
payloads — ``(benchmark, SimConfig)`` cells and
:class:`~repro.core.results.SimulationResult` objects — are pickled and
base64-wrapped inside the envelope, the same pickling the result store
already uses on disk (frozen dataclasses with enums and nested tuples
are not JSON-native).

Malformed payloads raise :class:`~repro.errors.ServiceError`
(deterministic under the failure taxonomy: a bad request reproduces
identically on retry, so the client must not retry it).
"""

from __future__ import annotations

import base64
import binascii
import json
import pickle
from dataclasses import dataclass, field

from repro.config import SimConfig
from repro.core.results import MissingResult, SimulationResult, SweepFailure
from repro.errors import ServiceError

#: Protocol version; servers reject envelopes from a different one.
WIRE_VERSION = 1

#: Default client identity when a request does not name one.
DEFAULT_CLIENT = "anonymous"


@dataclass(frozen=True, slots=True)
class SweepRequest:
    """One client's batch of sweep cells plus scheduling hints."""

    cells: tuple[tuple[str, SimConfig], ...]
    trace_length: int
    warmup: int
    seed: int
    client: str = DEFAULT_CLIENT
    #: Larger runs first; ties share the pool round-robin per client.
    priority: int = 0
    #: ``"raise"`` fails the whole request on a dead cell;
    #: ``"skip"`` degrades dead cells to ``MissingResult`` placeholders
    #: plus a structured failure report (per-request graceful
    #: degradation).
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if not self.cells:
            raise ServiceError("sweep request contains no cells")
        if self.trace_length < 1:
            raise ServiceError(
                f"trace_length must be >= 1: {self.trace_length}"
            )
        if not 0 <= self.warmup < self.trace_length:
            raise ServiceError(
                f"warmup {self.warmup} must lie in "
                f"[0, trace_length={self.trace_length})"
            )
        if self.on_error not in ("raise", "skip"):
            raise ServiceError(
                f"on_error must be 'raise' or 'skip': {self.on_error!r}"
            )
        if not self.client or "\n" in self.client:
            raise ServiceError(f"bad client id {self.client!r}")
        for name, config in self.cells:
            if not isinstance(name, str) or not isinstance(config, SimConfig):
                raise ServiceError(
                    "cells must be (benchmark, SimConfig) pairs"
                )


@dataclass(frozen=True, slots=True)
class SweepResponse:
    """The finished batch: results in cell order plus a failure report."""

    results: tuple[SimulationResult | MissingResult, ...]
    failures: tuple[SweepFailure, ...] = ()
    #: Per-request accounting: ``cells``, ``store_hits``, ``deduped``,
    #: ``cells_simulated``, ``failed``.
    stats: dict[str, int] = field(default_factory=dict)


def _pack(obj: object) -> str:
    """Pickle *obj* and wrap it for a JSON envelope."""
    return base64.b64encode(pickle.dumps(obj, protocol=4)).decode("ascii")


def _unpack(text: object) -> object:
    """Inverse of :func:`_pack`; raises :class:`ServiceError` on damage."""
    if not isinstance(text, str):
        raise ServiceError(f"expected base64 payload, got {type(text).__name__}")
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii"), validate=True))
    except (binascii.Error, ValueError, pickle.UnpicklingError, EOFError,
            AttributeError, ImportError, UnicodeEncodeError) as exc:
        raise ServiceError(f"undecodable payload: {exc}") from None


def _envelope(body: bytes) -> dict:
    """Parse and version-check a JSON envelope."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServiceError(f"request body is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ServiceError("request body must be a JSON object")
    if data.get("wire_version") != WIRE_VERSION:
        raise ServiceError(
            f"wire version mismatch: got {data.get('wire_version')!r}, "
            f"this build speaks {WIRE_VERSION}"
        )
    return data


def encode_request(request: SweepRequest) -> bytes:
    """Serialise a :class:`SweepRequest` for the wire."""
    return json.dumps(
        {
            "wire_version": WIRE_VERSION,
            "client": request.client,
            "priority": request.priority,
            "trace_length": request.trace_length,
            "warmup": request.warmup,
            "seed": request.seed,
            "on_error": request.on_error,
            "cells": _pack(list(request.cells)),
        },
        separators=(",", ":"),
    ).encode("utf-8")


def decode_request(body: bytes) -> SweepRequest:
    """Rebuild a :class:`SweepRequest`; :class:`ServiceError` on damage."""
    data = _envelope(body)
    cells = _unpack(data.get("cells"))
    if not isinstance(cells, list):
        raise ServiceError("cells payload must decode to a list")
    try:
        return SweepRequest(
            cells=tuple((name, config) for name, config in cells),
            trace_length=int(data.get("trace_length", 0)),
            warmup=int(data.get("warmup", -1)),
            seed=int(data.get("seed", 0)),
            client=str(data.get("client", DEFAULT_CLIENT)),
            priority=int(data.get("priority", 0)),
            on_error=str(data.get("on_error", "raise")),
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"malformed sweep request: {exc}") from None


def encode_response(response: SweepResponse) -> bytes:
    """Serialise a :class:`SweepResponse` for the wire."""
    return json.dumps(
        {
            "wire_version": WIRE_VERSION,
            "results": _pack(list(response.results)),
            "failures": [failure.as_dict() for failure in response.failures],
            "stats": dict(response.stats),
        },
        separators=(",", ":"),
    ).encode("utf-8")


def decode_response(body: bytes) -> SweepResponse:
    """Rebuild a :class:`SweepResponse`; :class:`ServiceError` on damage."""
    data = _envelope(body)
    results = _unpack(data.get("results"))
    if not isinstance(results, list) or not all(
        isinstance(r, (SimulationResult, MissingResult)) for r in results
    ):
        raise ServiceError("results payload must decode to result objects")
    failures = data.get("failures", [])
    if not isinstance(failures, list):
        raise ServiceError("failures must be a list")
    try:
        decoded_failures = tuple(
            SweepFailure(**failure) for failure in failures
        )
    except TypeError as exc:
        raise ServiceError(f"malformed failure report: {exc}") from None
    stats = data.get("stats", {})
    if not isinstance(stats, dict):
        raise ServiceError("stats must be an object")
    return SweepResponse(
        results=tuple(results),
        failures=decoded_failures,
        stats={str(k): int(v) for k, v in stats.items()},
    )


def error_body(message: str, **extra: object) -> bytes:
    """A JSON error payload for non-200 responses."""
    payload: dict[str, object] = {"wire_version": WIRE_VERSION, "error": message}
    payload.update(extra)
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_error(body: bytes) -> tuple[str, dict]:
    """Best-effort parse of an error payload (never raises)."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return body.decode("utf-8", "replace")[:200], {}
    if not isinstance(data, dict):
        return str(data)[:200], {}
    return str(data.get("error", "unknown error")), data
