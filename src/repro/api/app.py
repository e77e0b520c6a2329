"""The ASGI 3.0 truth-serving application.

:class:`TruthAPI` is the network tier over
:class:`~repro.serving.TruthService` — the paper's Section 5.4 train/serve
split made operational: LTM re-trains offline, publishes
:class:`~repro.serving.TruthArtifact` snapshots, and this app serves them
over HTTP with zero-downtime hot swaps.  It is a plain ASGI 3.0 callable —
run it under any ASGI server (``uvicorn repro.api:app``-style via
:func:`create_app`) or under the bundled dependency-free
:mod:`repro.api.server` (``repro-truth serve``).

Endpoints
---------
===============================  ==============================================
``GET /truth/{entity}``          ranked facts of one entity; ``?attribute=``
                                 for an O(1) point lookup, ``?top=`` to limit
``POST /batch``                  vectorised point lookups over JSON pairs
``GET /top-k``                   global or per-entity highest-scored facts
``POST /score``                  closed-form LTMinc scoring of unseen claims
``POST /ingest``                 score new triples under the served quality
                                 (idempotency keys) and hot-swap them in
``POST /refresh``                hot-swap onto a re-published artifact path
``GET /healthz``                 liveness + served-artifact identity
``GET /metrics``                 Prometheus text metrics
===============================  ==============================================

Operational behaviour:

* **rate limiting** — per-client token bucket
  (:class:`~repro.api.rate_limit.RateLimiter`); clients are identified by
  the ``X-API-Key`` header when present, else by peer address; over-limit
  requests get ``429`` with ``Retry-After``.  ``/healthz`` and ``/metrics``
  are exempt so monitoring never competes with traffic.
* **idempotency** — ``POST /ingest`` honours ``Idempotency-Key``
  (:mod:`repro.api.idempotency`): replays return the stored response with
  ``Idempotency-Replay: true``; key reuse with a different body is a 409.
* **observability** — every request gets an ``X-Request-Id`` (propagated
  from the client when supplied) and one structured JSON log line
  (:mod:`repro.api.observability`); counters and latency histograms
  (:mod:`repro.obs.metrics`) are exposed at ``/metrics``.
* **hot swap** — ``/ingest`` and ``/refresh`` publish through the atomic
  :meth:`TruthService.integrate` / :meth:`TruthService.refresh`; readers
  racing a swap see the old or the new snapshot in full, never a mixture,
  and every reply reads the service's monotonic generation.  All writer
  paths serialise on one ``asyncio.Lock``.

Responses are canonical JSON (:mod:`repro.api.codec`) — byte-identical for
the same request regardless of which server fronts the app, which is what
makes the bundled-server-vs-ASGI-harness parity tests possible.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import math
import time
from pathlib import Path
from typing import Any, Awaitable, Callable, Iterable, Mapping

from repro.api.codec import canonical_json, encode_json, fact_row
from repro.api.idempotency import IdempotencyCache, body_digest
from repro.api.observability import RequestLogger, new_request_id
from repro.api.rate_limit import RateLimiter
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.api.routing import MethodNotAllowed, NotFound, Router
from repro.exceptions import (
    ArtifactError,
    ConfigurationError,
    DataModelError,
    NotFittedError,
    ReproError,
)
from repro.serving.artifact import TruthArtifact
from repro.serving.service import TruthService

__all__ = ["TruthAPI", "Request", "Response", "create_app"]

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclasses.dataclass
class Request:
    """One parsed HTTP request, as handed to endpoint handlers."""

    method: str
    path: str
    params: dict[str, str]
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    client: str
    request_id: str

    def json_object(self, *, allow_empty: bool = False) -> dict[str, Any]:
        """The request body parsed as a JSON object (400 on anything else)."""
        import json

        if not self.body:
            if allow_empty:
                return {}
            raise HTTPError(400, "invalid_json", "request body must be a JSON object")
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HTTPError(400, "invalid_json", f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise HTTPError(400, "invalid_json", "request body must be a JSON object")
        return payload


@dataclasses.dataclass
class Response:
    """One response: status, body bytes and wire headers."""

    status: int
    body: bytes
    content_type: str = JSON_CONTENT_TYPE
    headers: list[tuple[str, str]] = dataclasses.field(default_factory=list)

    @classmethod
    def json(cls, status: int, payload: Any, **headers: str) -> "Response":
        return cls(
            status=status,
            body=encode_json(payload),
            headers=[(k.replace("_", "-"), v) for k, v in headers.items()],
        )


class HTTPError(Exception):
    """An error with a definite HTTP status and machine-readable code."""

    def __init__(
        self, status: int, code: str, message: str, headers: Iterable[tuple[str, str]] = ()
    ):
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.headers = list(headers)

    def to_response(self) -> Response:
        response = Response.json(
            self.status, {"error": self.code, "message": self.message}
        )
        response.headers.extend(self.headers)
        return response


def _coerce_text(value: Any, what: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise HTTPError(400, "invalid_payload", f"{what} must be a string")


def _string_rows(
    payload: Mapping[str, Any], field: str, arity: int, max_items: int
) -> list[tuple[str, ...]]:
    """Validate ``payload[field]`` as a list of ``arity``-string rows."""
    rows = payload.get(field)
    if not isinstance(rows, list):
        raise HTTPError(400, "invalid_payload", f"body must carry a {field!r} list")
    if len(rows) > max_items:
        raise HTTPError(
            413,
            "too_many_items",
            f"{field} carries {len(rows)} rows; the limit is {max_items}",
        )
    out: list[tuple[str, ...]] = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != arity:
            raise HTTPError(
                400,
                "invalid_payload",
                f"{field}[{i}] must be a {arity}-item row",
            )
        out.append(tuple(_coerce_text(cell, f"{field}[{i}][{j}]") for j, cell in enumerate(row)))
    return out


def _int_query(query: Mapping[str, str], name: str, default: int) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise HTTPError(400, "invalid_query", f"query parameter {name!r} must be an integer")


class TruthAPI:
    """ASGI 3.0 application serving a :class:`~repro.serving.TruthService`.

    Parameters
    ----------
    service:
        The service to front — a :class:`TruthService`, a
        :class:`~repro.serving.TruthArtifact`, or an artifact directory path
        (which also becomes the default ``POST /refresh`` target).
    rate, burst:
        Per-client token-bucket limit (requests/second and bucket size);
        ``rate=None`` or ``0`` disables limiting.
    idempotency_ttl:
        Seconds an ``Idempotency-Key`` replay stays answerable.
    max_body_bytes, max_items:
        Request body size cap and per-request row cap (413 beyond either).
    clock, wall_clock, request_id_factory, logger:
        Injectable monotonic clock (rate limiter, latency, idempotency TTL),
        wall clock (log timestamps), request-id generator, and logger —
        deterministic tests override these.
    """

    def __init__(
        self,
        service: TruthService | TruthArtifact | str | Path,
        *,
        artifact_path: str | Path | None = None,
        rate: float | None = 100.0,
        burst: float | None = None,
        rate_exempt: tuple[str, ...] = ("/healthz", "/metrics"),
        idempotency_ttl: float = 3600.0,
        max_body_bytes: int = 8 * 1024 * 1024,
        max_items: int = 10_000,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
        request_id_factory: Callable[[], str] = new_request_id,
        logger: logging.Logger | None = None,
    ):
        if isinstance(service, (str, Path)):
            artifact_path = service if artifact_path is None else artifact_path
            service = TruthService(service)
        elif isinstance(service, TruthArtifact):
            service = TruthService(service)
        if not isinstance(service, TruthService):
            raise ConfigurationError(
                f"TruthAPI needs a TruthService, TruthArtifact or artifact path, "
                f"got {type(service).__name__}"
            )
        self.service = service
        self._artifact_path = str(artifact_path) if artifact_path is not None else None
        self._clock = clock
        self._limiter = (
            RateLimiter(rate, burst, clock=clock) if rate else None
        )
        self._rate_exempt = frozenset(rate_exempt)
        self._idempotency = IdempotencyCache(idempotency_ttl, clock=clock)
        self._max_body_bytes = int(max_body_bytes)
        self._max_items = int(max_items)
        self._request_id_factory = request_id_factory
        self._log = RequestLogger(logger, wall_clock=wall_clock)
        self._write_lock = asyncio.Lock()

        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_api_requests_total", "Requests served, by method/route/status."
        )
        self._m_latency = self.metrics.histogram(
            "repro_api_request_seconds", "Request wall time in seconds, by route."
        )
        self._m_rate_limited = self.metrics.counter(
            "repro_api_rate_limited_total", "Requests rejected by the rate limiter."
        )
        self._m_replays = self.metrics.counter(
            "repro_api_idempotent_replays_total",
            "Ingest requests answered from the idempotency cache.",
        )
        self._m_ingested = self.metrics.counter(
            "repro_api_ingested_triples_total", "Triples accepted by POST /ingest."
        )
        self._m_refreshes = self.metrics.counter(
            "repro_api_refreshes_total", "Successful snapshot hot swaps."
        )
        self._m_snapshot_gen = self.metrics.gauge(
            "repro_api_snapshot_generation",
            "Monotonic generation of the served snapshot.",
        )
        self._m_facts = self.metrics.gauge(
            "repro_api_facts", "Facts in the served snapshot."
        )
        self._m_snapshot_gen.set(self.generation)
        self._m_facts.set(len(self.service))

        self.router = Router()
        self.router.add("GET", "/healthz", self._handle_healthz)
        self.router.add("GET", "/metrics", self._handle_metrics)
        self.router.add("GET", "/truth/{entity}", self._handle_truth)
        self.router.add("POST", "/batch", self._handle_batch)
        self.router.add("GET", "/top-k", self._handle_top_k)
        self.router.add("POST", "/score", self._handle_score)
        self.router.add("POST", "/ingest", self._handle_ingest)
        self.router.add("POST", "/refresh", self._handle_refresh)

    # -- snapshot state -------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The served snapshot's generation (:attr:`TruthService.generation`)."""
        return self.service.generation

    def _published(self) -> int:
        """Record a swap the service just made (writer lock held)."""
        self._m_snapshot_gen.set(self.generation)
        self._m_facts.set(len(self.service))
        self._m_refreshes.inc()
        return self.generation

    # -- ASGI entry point -----------------------------------------------------------
    async def __call__(self, scope: dict, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(f"TruthAPI only handles http scopes, got {scope['type']!r}")
        await self._handle_http(scope, receive, send)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _handle_http(self, scope: dict, receive, send) -> None:
        start = self._clock()
        method = scope["method"].upper()
        path = scope.get("path", "/")
        headers = {
            name.decode("latin-1").lower(): value.decode("latin-1")
            for name, value in scope.get("headers", ())
        }
        request_id = headers.get("x-request-id") or self._request_id_factory()
        peer = scope.get("client")
        client = headers.get("x-api-key") or (peer[0] if peer else "anonymous")

        route_pattern = "-"
        try:
            body = await self._read_body(receive)
            # Yield once so many in-flight requests interleave even under
            # purely synchronous handlers (exercised by the refresh race test).
            await asyncio.sleep(0)
            if self._limiter is not None and path not in self._rate_exempt:
                allowed, retry_after = self._limiter.check(client)
                if not allowed:
                    self._m_rate_limited.inc()
                    raise HTTPError(
                        429,
                        "rate_limited",
                        "per-client request rate exceeded",
                        headers=[("Retry-After", str(max(1, math.ceil(retry_after))))],
                    )
            handler, route_pattern, params = self.router.match(method, path)
            request = Request(
                method=method,
                path=path,
                params=params,
                query=self._parse_query(scope.get("query_string", b"")),
                headers=headers,
                body=body,
                client=client,
                request_id=request_id,
            )
            response = await handler(request)
        except HTTPError as exc:
            response = exc.to_response()
        except NotFound:
            response = HTTPError(404, "not_found", f"no route for {path!r}").to_response()
        except MethodNotAllowed as exc:
            response = HTTPError(
                405,
                "method_not_allowed",
                f"{method} is not supported on {path!r}",
                headers=[("Allow", ", ".join(exc.allowed))],
            ).to_response()
        except ReproError as exc:
            response = HTTPError(500, "internal_error", str(exc)).to_response()
            self._log.logger.exception("unhandled library error serving %s %s", method, path)
        except Exception:
            response = HTTPError(
                500, "internal_error", "unexpected error; see server logs"
            ).to_response()
            self._log.logger.exception("unhandled error serving %s %s", method, path)

        duration = self._clock() - start
        self._m_requests.inc(
            method=method, route=route_pattern, status=str(response.status)
        )
        self._m_latency.observe(duration, route=route_pattern)
        self._log.log_request(
            request_id=request_id,
            method=method,
            path=path,
            route=route_pattern if route_pattern != "-" else None,
            status=response.status,
            duration_s=duration,
            client=client,
            body_bytes=len(response.body),
        )
        await self._send_response(send, response, request_id)

    async def _read_body(self, receive) -> bytes:
        chunks: list[bytes] = []
        total = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise HTTPError(400, "disconnected", "client disconnected mid-request")
            chunk = message.get("body", b"")
            total += len(chunk)
            if total > self._max_body_bytes:
                raise HTTPError(
                    413,
                    "body_too_large",
                    f"request body exceeds {self._max_body_bytes} bytes",
                )
            chunks.append(chunk)
            if not message.get("more_body", False):
                return b"".join(chunks)

    @staticmethod
    def _parse_query(query_string: bytes) -> dict[str, str]:
        from urllib.parse import parse_qsl

        return dict(parse_qsl(query_string.decode("latin-1"), keep_blank_values=True))

    async def _send_response(self, send, response: Response, request_id: str) -> None:
        headers = [
            (b"content-type", response.content_type.encode("latin-1")),
            (b"x-request-id", request_id.encode("latin-1")),
        ]
        headers.extend(
            (name.encode("latin-1"), value.encode("latin-1"))
            for name, value in response.headers
        )
        await send(
            {
                "type": "http.response.start",
                "status": response.status,
                "headers": headers,
            }
        )
        await send({"type": "http.response.body", "body": response.body})

    # -- endpoint handlers ----------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> Response:
        return Response.json(
            200,
            {
                "status": "ok",
                "generation": self.generation,
                "artifact": self.service.artifact.summary(),
            },
        )

    async def _handle_metrics(self, request: Request) -> Response:
        # One scrape sees both tiers: the per-app request series, then the
        # process-global engine/store/parallel/serving series (when any
        # exist).  The app registry renders first so its output stays
        # byte-identical to the pre-repro.obs exposition.
        body = self.metrics.render()
        global_reg = global_registry()
        if global_reg is not self.metrics and len(global_reg):
            body += global_reg.render()
        return Response(
            status=200,
            body=body.encode("utf-8"),
            content_type=TEXT_CONTENT_TYPE,
        )

    async def _handle_truth(self, request: Request) -> Response:
        snapshot = self.service.snapshot()
        threshold = snapshot.artifact.config.threshold
        entity = request.params["entity"]
        attribute = request.query.get("attribute")
        if attribute is not None:
            score = snapshot.scores.get((entity, attribute))
            if score is None:
                raise HTTPError(
                    404, "unknown_fact", f"no stored fact ({entity!r}, {attribute!r})"
                )
            return Response.json(200, fact_row(entity, attribute, score, threshold))
        ranked = snapshot.entity_top(entity)
        if not ranked:
            raise HTTPError(404, "unknown_entity", f"no stored facts for {entity!r}")
        top = _int_query(request.query, "top", len(ranked))
        if top < 0:
            raise HTTPError(400, "invalid_query", "query parameter 'top' must be >= 0")
        facts = [fact_row(entity, attr, score, threshold) for attr, score in ranked[:top]]
        return Response.json(200, {"entity": entity, "facts": facts, "count": len(facts)})

    async def _handle_batch(self, request: Request) -> Response:
        payload = request.json_object()
        pairs = _string_rows(payload, "pairs", 2, self._max_items)
        scores = self.service.batch(pairs) if pairs else []
        return Response.json(
            200,
            {"scores": [float(s) for s in scores], "count": len(pairs)},
        )

    async def _handle_top_k(self, request: Request) -> Response:
        k = _int_query(request.query, "k", 10)
        if k < 0:
            raise HTTPError(400, "invalid_query", "query parameter 'k' must be >= 0")
        entity = request.query.get("entity")
        snapshot = self.service.snapshot()
        threshold = snapshot.artifact.config.threshold
        rows = snapshot.top(k, entity)
        if entity is not None and not snapshot.entity_top(entity):
            raise HTTPError(404, "unknown_entity", f"no stored facts for {entity!r}")
        facts = [fact_row(e, a, s, threshold) for e, a, s in rows]
        return Response.json(200, {"facts": facts, "count": len(facts)})

    async def _handle_score(self, request: Request) -> Response:
        payload = request.json_object()
        triples = _string_rows(payload, "triples", 3, self._max_items)
        if not triples:
            return Response.json(200, {"scores": [], "count": 0})
        try:
            facts = self.service.score_facts(triples)
        except NotFittedError as exc:
            raise HTTPError(422, "not_scorable", str(exc))
        except DataModelError as exc:
            raise HTTPError(400, "invalid_payload", str(exc))
        scores = [facts[(entity, attribute)] for entity, attribute, _ in triples]
        return Response.json(200, {"scores": scores, "count": len(scores)})

    async def _handle_ingest(self, request: Request) -> Response:
        payload = request.json_object()
        triples = _string_rows(payload, "triples", 3, self._max_items)
        if not triples:
            raise HTTPError(400, "invalid_payload", "cannot ingest an empty batch")
        key = request.headers.get("idempotency-key")
        digest = body_digest(request.body)

        async with self._write_lock:
            if key:
                cached, conflict = self._idempotency.lookup(key, digest)
                if conflict:
                    raise HTTPError(
                        409,
                        "idempotency_key_conflict",
                        f"idempotency key {key!r} was already used with a "
                        f"different request body",
                    )
                if cached is not None:
                    self._m_replays.inc()
                    return Response(
                        status=cached.status,
                        body=cached.body,
                        content_type=cached.content_type,
                        headers=[("Idempotency-Replay", "true")],
                    )
            try:
                self.service.integrate(triples)
            except DataModelError as exc:
                raise HTTPError(400, "invalid_payload", str(exc))
            generation = self._published()
            self._m_ingested.inc(len(triples))
            response = Response.json(
                200,
                {
                    "ingested": len(triples),
                    "total_facts": len(self.service),
                    "generation": generation,
                },
            )
            if key:
                self._idempotency.store(
                    key, digest, response.status, response.body, response.content_type
                )
            return response

    async def _handle_refresh(self, request: Request) -> Response:
        payload = request.json_object(allow_empty=True)
        path = payload.get("artifact") or self._artifact_path
        if not path:
            raise HTTPError(
                400,
                "no_artifact_path",
                "no artifact path given and the app was not built from one",
            )
        if not isinstance(path, str):
            raise HTTPError(400, "invalid_payload", "'artifact' must be a path string")
        try:
            artifact = TruthArtifact.load(path)
        except ArtifactError as exc:
            raise HTTPError(400, "artifact_error", str(exc))
        async with self._write_lock:
            self.service.refresh(artifact)
            generation = self._published()
            if payload.get("artifact"):
                self._artifact_path = path
        return Response.json(
            200,
            {"generation": generation, "artifact": self.service.artifact.summary()},
        )


def create_app(
    service: TruthService | TruthArtifact | str | Path, **options: Any
) -> TruthAPI:
    """Build a :class:`TruthAPI` — the factory the CLI and ASGI servers use.

    ``service`` may be a live :class:`~repro.serving.TruthService`, a
    :class:`~repro.serving.TruthArtifact`, or an artifact directory path;
    keyword options are forwarded to :class:`TruthAPI`.
    """
    return TruthAPI(service, **options)
