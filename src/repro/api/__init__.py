"""``repro.api`` — the stdlib ASGI network serving tier.

The fifth pillar: an HTTP front for the hot-swappable
:class:`~repro.serving.TruthService`, so the reproduction serves
multi-client network traffic instead of in-process calls only.  It reads
and writes through that service alone; training stays offline.

* :func:`create_app` / :class:`~repro.api.app.TruthAPI` — a dependency-free
  ASGI 3.0 application exposing ``/truth/{entity}``, ``/batch``, ``/top-k``,
  ``/score``, ``/ingest``, ``/refresh``, ``/healthz`` and ``/metrics``, with
  per-client token-bucket rate limiting, idempotency-keyed ingest, request
  ids, structured JSON logs and Prometheus metrics.
* :class:`~repro.api.server.APIServer` — a bundled stdlib ``asyncio``
  HTTP/1.1 server (``repro-truth serve`` needs zero extra installs); any
  external ASGI server runs the same app byte-identically (install the
  ``[api]`` extra for uvicorn).
* :mod:`repro.api.codec` — the canonical JSON serializer shared by the API
  responses and ``repro-truth query --json``.
* :class:`~repro.api.testing.ASGIClient` — an in-process request harness
  for tests and load benchmarks.

Quickstart::

    from repro.api import create_app
    app = create_app("artifacts/movies-v1")     # any artifact directory
    # run under uvicorn: `uvicorn module:app`, or stdlib:
    import asyncio
    from repro.api.server import run
    asyncio.run(run(app, port=8799))
"""

from repro.api.app import Request, Response, TruthAPI, create_app
from repro.api.codec import canonical_json, encode_json, fact_row
from repro.api.idempotency import IdempotencyCache
from repro.api.observability import RequestLogger, new_request_id
from repro.api.rate_limit import RateLimiter
from repro.api.routing import Router
from repro.api.server import APIServer
from repro.api.testing import ASGIClient
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TruthAPI",
    "create_app",
    "Request",
    "Response",
    "APIServer",
    "ASGIClient",
    "RateLimiter",
    "IdempotencyCache",
    "MetricsRegistry",
    "RequestLogger",
    "Router",
    "canonical_json",
    "encode_json",
    "fact_row",
    "new_request_id",
]
