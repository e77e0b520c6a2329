"""Request observability: request ids and structured request logs.

Two small pieces, dependency-free:

* :func:`new_request_id` — 16-hex-char request ids; the API honours an
  incoming ``X-Request-Id`` header (so ids propagate through proxies) and
  echoes the id on every response.
* :class:`RequestLogger` — one canonical-JSON line per request on the
  ``repro.api`` logger (timestamp, request id, method, route, status,
  duration, client, body size), machine-parseable by construction because it
  goes through the same :func:`repro.api.codec.canonical_json` as the API's
  response bodies.

The ``GET /metrics`` primitives live in :mod:`repro.obs.metrics`.  Metric
label values are always *route patterns* (``/truth/{entity}``), never raw
paths, so cardinality is bounded by the route table.
"""

from __future__ import annotations

import logging
import secrets
import time
from typing import Callable

from repro.api.codec import canonical_json

__all__ = ["new_request_id", "RequestLogger"]


def new_request_id() -> str:
    """A fresh 16-hex-char request id."""
    return secrets.token_hex(8)


class RequestLogger:
    """Structured JSON request logging on the ``repro.api`` logger."""

    def __init__(
        self,
        logger: logging.Logger | None = None,
        *,
        wall_clock: Callable[[], float] = time.time,
    ):
        self.logger = logger if logger is not None else logging.getLogger("repro.api")
        self._wall_clock = wall_clock

    def log_request(
        self,
        *,
        request_id: str,
        method: str,
        path: str,
        route: str | None,
        status: int,
        duration_s: float,
        client: str,
        body_bytes: int,
    ) -> None:
        """Emit the one-line JSON record of a completed request."""
        record = {
            "ts": round(self._wall_clock(), 6),
            "event": "request",
            "request_id": request_id,
            "method": method,
            "path": path,
            "route": route,
            "status": int(status),
            "duration_ms": round(duration_s * 1000.0, 3),
            "client": client,
            "body_bytes": int(body_bytes),
        }
        level = logging.WARNING if status >= 500 else logging.INFO
        self.logger.log(level, "%s", canonical_json(record))
