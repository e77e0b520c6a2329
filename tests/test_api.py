"""Tests for the :mod:`repro.api` network serving tier (in-process ASGI).

Covers the response codec, the token-bucket rate limiter, the idempotency
cache, the metrics/logging observability pieces, the router, every HTTP
endpoint of :class:`~repro.api.TruthAPI` (success and error paths), and the
concurrency contract: many reader tasks in flight while a writer republishes
artifacts through the hot-swap endpoints — no torn reads, no 5xx, a
monotonic generation counter.

The bundled HTTP/1.1 server and the CLI are exercised in
``tests/test_api_server.py``; this module drives the app through the
socketless :class:`~repro.api.ASGIClient` harness.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging

import numpy as np
import pytest

from repro.api import (
    ASGIClient,
    IdempotencyCache,
    MetricsRegistry,
    RateLimiter,
    Router,
    TruthAPI,
    canonical_json,
    create_app,
    encode_json,
    fact_row,
)
from repro.api.codec import sanitize
from repro.api.observability import RequestLogger
from repro.api.routing import MethodNotAllowed, NotFound
from repro.engine import TruthEngine
from repro.engine.config import EngineConfig
from repro.exceptions import ConfigurationError
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.serving import TruthArtifact, TruthService


class FakeClock:
    """A hand-advanced monotonic clock for deterministic timing tests."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def ltm_artifact():
    engine = TruthEngine(method="ltm", iterations=30, seed=7).fit("paper_example")
    return engine.to_artifact(name="api-test")


@pytest.fixture(scope="module")
def voting_artifact():
    engine = TruthEngine(method="voting").fit("paper_example")
    return engine.to_artifact(name="api-voting")


def make_app(artifact, **options) -> TruthAPI:
    options.setdefault("rate", None)
    return create_app(artifact, **options)


def fetch(app, method, target, **kwargs):
    return asyncio.run(ASGIClient(app).request(method, target, **kwargs))


def mini_artifact(name: str, facts: dict, threshold: float = 0.5) -> TruthArtifact:
    """A hand-built artifact with exactly the given (entity, attr) -> score."""
    pairs = list(facts.items())
    return TruthArtifact(
        config=EngineConfig(method="voting", threshold=threshold),
        fact_entity=np.array([entity for (entity, _), _ in pairs], dtype=str),
        fact_attribute=np.array([attr for (_, attr), _ in pairs], dtype=str),
        fact_score=np.array([score for _, score in pairs], dtype=float),
        name=name,
    )


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------
class TestCodec:
    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_non_finite_floats_become_null(self):
        assert canonical_json({"x": float("nan"), "y": float("inf")}) == '{"x":null,"y":null}'

    def test_numpy_scalars_unwrap(self):
        assert canonical_json({"s": np.float64(0.5), "n": np.int64(3)}) == '{"n":3,"s":0.5}'
        assert sanitize(np.bool_(True)) is True

    def test_unicode_not_escaped(self):
        assert canonical_json({"e": "café"}) == '{"e":"café"}'

    def test_encode_json_appends_newline(self):
        assert encode_json({"a": 1}) == b'{"a":1}\n'

    def test_unserialisable_type_raises(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_fact_row_shape(self):
        row = fact_row("e", "a", 0.75, threshold=0.5)
        assert row == {"entity": "e", "attribute": "a", "score": 0.75, "accepted": True}
        assert fact_row("e", "a", 0.25) == {"entity": "e", "attribute": "a", "score": 0.25}


# ---------------------------------------------------------------------------
# rate limiting
# ---------------------------------------------------------------------------
class TestRateLimiter:
    def test_burst_then_429_then_refill(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, burst=3, clock=clock)
        assert [limiter.check("c")[0] for _ in range(3)] == [True, True, True]
        allowed, retry = limiter.check("c")
        assert not allowed and retry == pytest.approx(0.5)
        clock.advance(0.5)  # one token refilled at 2/s
        assert limiter.check("c")[0]
        assert not limiter.check("c")[0]

    def test_clients_are_independent(self):
        limiter = RateLimiter(rate=1.0, burst=1, clock=FakeClock())
        assert limiter.check("a")[0]
        assert not limiter.check("a")[0]
        assert limiter.check("b")[0]

    def test_bucket_caps_at_burst(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=100.0, burst=2, clock=clock)
        clock.advance(1000.0)
        assert limiter.check("c")[0]
        assert limiter.check("c")[0]
        assert not limiter.check("c")[0]

    def test_lru_eviction_bounds_memory(self):
        limiter = RateLimiter(rate=1.0, burst=1, clock=FakeClock(), max_clients=2)
        limiter.check("a")
        limiter.check("b")
        limiter.check("c")
        assert len(limiter) == 2
        # 'a' was evicted, so it starts over with a full bucket.
        assert limiter.check("a")[0]

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            RateLimiter(rate=0)
        with pytest.raises(ConfigurationError):
            RateLimiter(rate=5, burst=0.5)


# ---------------------------------------------------------------------------
# idempotency
# ---------------------------------------------------------------------------
class TestIdempotencyCache:
    def test_store_and_replay(self):
        cache = IdempotencyCache(ttl=10.0, clock=FakeClock())
        cache.store("k", "digest", 200, b"body", "application/json")
        cached, conflict = cache.lookup("k", "digest")
        assert not conflict and cached.status == 200 and cached.body == b"body"

    def test_conflict_on_different_body(self):
        cache = IdempotencyCache(ttl=10.0, clock=FakeClock())
        cache.store("k", "digest-1", 200, b"body", "application/json")
        cached, conflict = cache.lookup("k", "digest-2")
        assert cached is None and conflict

    def test_keys_expire(self):
        clock = FakeClock()
        cache = IdempotencyCache(ttl=5.0, clock=clock)
        cache.store("k", "d", 200, b"body", "application/json")
        clock.advance(5.1)
        assert cache.lookup("k", "d") == (None, False)
        assert len(cache) == 0

    def test_capacity_eviction_drops_oldest(self):
        cache = IdempotencyCache(ttl=100.0, clock=FakeClock(), max_keys=2)
        for key in ("a", "b", "c"):
            cache.store(key, "d", 200, b"x", "t")
        assert cache.lookup("a", "d") == (None, False)
        assert cache.lookup("c", "d")[0] is not None


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
class TestObservability:
    def test_counter_and_gauge(self):
        counter = Counter("c", "help")
        counter.inc(method="GET")
        counter.inc(2, method="GET")
        assert counter.value(method="GET") == 3
        gauge = Gauge("g", "help")
        gauge.set(7)
        assert gauge.value() == 7

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram("h", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value, route="/x")
        lines = list(hist.render())
        assert 'h_bucket{route="/x",le="0.1"} 1' in lines
        assert 'h_bucket{route="/x",le="1"} 2' in lines
        assert 'h_bucket{route="/x",le="+Inf"} 3' in lines
        assert 'h_count{route="/x"} 3' in lines

    def test_registry_renders_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("requests", "Requests.").inc(status="200")
        text = registry.render()
        assert "# HELP requests Requests.\n# TYPE requests counter\n" in text
        assert 'requests{status="200"} 1\n' in text

    def test_registry_rejects_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("m", "x")
        with pytest.raises(TypeError):
            registry.gauge("m", "x")

    def test_request_logger_emits_canonical_json(self, caplog):
        logger = logging.getLogger("repro.api.test")
        with caplog.at_level(logging.INFO, logger="repro.api.test"):
            RequestLogger(logger, wall_clock=lambda: 123.0).log_request(
                request_id="rid",
                method="GET",
                path="/x",
                route="/x",
                status=200,
                duration_s=0.001,
                client="c",
                body_bytes=10,
            )
        record = json.loads(caplog.records[0].getMessage())
        assert record["request_id"] == "rid"
        assert record["status"] == 200
        assert record["ts"] == 123.0
        assert record["duration_ms"] == 1.0


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
class TestRouter:
    def make(self):
        router = Router()
        router.add("GET", "/truth/{entity}", "truth")
        router.add("POST", "/batch", "batch")
        return router

    def test_match_binds_decoded_segments(self):
        handler, pattern, params = self.make().match("GET", "/truth/Harry%20Potter")
        assert handler == "truth"
        assert pattern == "/truth/{entity}"
        assert params == {"entity": "Harry Potter"}

    def test_unknown_path_is_not_found(self):
        with pytest.raises(NotFound):
            self.make().match("GET", "/nope")

    def test_wrong_method_is_405_with_allow(self):
        with pytest.raises(MethodNotAllowed) as excinfo:
            self.make().match("GET", "/batch")
        assert excinfo.value.allowed == ("POST",)


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "GET", "/healthz")
        payload = response.json()
        assert response.status == 200
        assert payload["status"] == "ok"
        assert payload["generation"] == 1
        assert payload["artifact"]["name"] == "api-test"
        assert payload["artifact"]["facts"] == 5

    def test_truth_entity_listing(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "GET", "/truth/Harry%20Potter")
        payload = response.json()
        assert response.status == 200
        assert payload["entity"] == "Harry Potter"
        assert payload["count"] == 4
        scores = [fact["score"] for fact in payload["facts"]]
        assert scores == sorted(scores, reverse=True)
        assert all(set(f) == {"entity", "attribute", "score", "accepted"} for f in payload["facts"])

    def test_truth_top_limits(self, ltm_artifact):
        app = make_app(ltm_artifact)
        response = fetch(app, "GET", "/truth/Harry%20Potter?top=2")
        assert response.json()["count"] == 2
        response = fetch(app, "GET", "/truth/Harry%20Potter?top=-1")
        assert response.status == 400
        assert response.json()["error"] == "invalid_query"

    def test_truth_point_lookup(self, ltm_artifact):
        response = fetch(
            make_app(ltm_artifact),
            "GET",
            "/truth/Harry%20Potter?attribute=Daniel%20Radcliffe",
        )
        payload = response.json()
        assert response.status == 200
        assert payload["attribute"] == "Daniel Radcliffe"
        assert payload["accepted"] is True

    def test_truth_unknown_entity_404(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "GET", "/truth/Nobody")
        assert response.status == 404
        assert response.json()["error"] == "unknown_entity"

    def test_truth_unknown_fact_404(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "GET", "/truth/Harry%20Potter?attribute=Nobody")
        assert response.status == 404
        assert response.json()["error"] == "unknown_fact"

    def test_batch_lookup_with_unknown_null(self, ltm_artifact):
        response = fetch(
            make_app(ltm_artifact),
            "POST",
            "/batch",
            json_body={"pairs": [["Harry Potter", "Daniel Radcliffe"], ["no", "no"]]},
        )
        payload = response.json()
        assert response.status == 200
        assert payload["count"] == 2
        assert payload["scores"][0] == pytest.approx(1.0)
        assert payload["scores"][1] is None

    def test_batch_empty_is_ok(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "POST", "/batch", json_body={"pairs": []})
        assert response.status == 200
        assert response.json() == {"count": 0, "scores": []}

    def test_top_k_global(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "GET", "/top-k?k=3")
        payload = response.json()
        assert response.status == 200
        assert payload["count"] == 3
        scores = [fact["score"] for fact in payload["facts"]]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_entity_scoped(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "GET", "/top-k?k=2&entity=Harry%20Potter")
        payload = response.json()
        assert payload["count"] == 2
        assert all(fact["entity"] == "Harry Potter" for fact in payload["facts"])

    def test_top_k_unknown_entity_404(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "GET", "/top-k?entity=Nobody")
        assert response.status == 404

    def test_score_unseen_claims(self, ltm_artifact):
        response = fetch(
            make_app(ltm_artifact),
            "POST",
            "/score",
            json_body={"triples": [["New", "Thing", "imdb"], ["New", "Thing", "unseen"]]},
        )
        payload = response.json()
        assert response.status == 200
        assert payload["count"] == 2
        assert all(0.0 <= score <= 1.0 for score in payload["scores"])

    def test_score_without_quality_is_422(self, voting_artifact):
        response = fetch(
            make_app(voting_artifact),
            "POST",
            "/score",
            json_body={"triples": [["a", "b", "c"]]},
        )
        assert response.status == 422
        assert response.json()["error"] == "not_scorable"

    def test_metrics_exposition(self, ltm_artifact):
        app = make_app(ltm_artifact)
        fetch(app, "GET", "/healthz")
        response = fetch(app, "GET", "/metrics")
        text = response.body.decode()
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        assert 'repro_api_requests_total{method="GET",route="/healthz",status="200"} 1' in text
        assert "repro_api_snapshot_generation 1" in text
        assert "repro_api_request_seconds_bucket" in text

    def test_unknown_route_404(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "GET", "/nope")
        assert response.status == 404
        assert response.json()["error"] == "not_found"

    def test_wrong_method_405_with_allow(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "POST", "/healthz")
        assert response.status == 405
        assert response.headers["allow"] == "GET"

    def test_invalid_json_400(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "POST", "/batch", body=b"not json")
        assert response.status == 400
        assert response.json()["error"] == "invalid_json"

    def test_malformed_rows_400(self, ltm_artifact):
        response = fetch(
            make_app(ltm_artifact), "POST", "/batch", json_body={"pairs": [["only-one"]]}
        )
        assert response.status == 400
        assert response.json()["error"] == "invalid_payload"

    def test_too_many_items_413(self, ltm_artifact):
        app = make_app(ltm_artifact, max_items=2)
        response = fetch(
            app, "POST", "/batch", json_body={"pairs": [["a", "b"]] * 3}
        )
        assert response.status == 413
        assert response.json()["error"] == "too_many_items"

    def test_body_too_large_413(self, ltm_artifact):
        app = make_app(ltm_artifact, max_body_bytes=16)
        response = fetch(app, "POST", "/batch", body=b"x" * 64)
        assert response.status == 413
        assert response.json()["error"] == "body_too_large"

    def test_request_id_propagates(self, ltm_artifact):
        response = fetch(
            make_app(ltm_artifact), "GET", "/healthz", headers={"X-Request-Id": "trace-me"}
        )
        assert response.headers["x-request-id"] == "trace-me"

    def test_request_id_generated_when_absent(self, ltm_artifact):
        app = make_app(ltm_artifact, request_id_factory=lambda: "generated")
        response = fetch(app, "GET", "/healthz")
        assert response.headers["x-request-id"] == "generated"

    def test_structured_log_line(self, ltm_artifact, caplog):
        app = make_app(ltm_artifact)
        with caplog.at_level(logging.INFO, logger="repro.api"):
            fetch(app, "GET", "/truth/Harry%20Potter")
        record = json.loads(caplog.records[-1].getMessage())
        assert record["event"] == "request"
        assert record["method"] == "GET"
        assert record["route"] == "/truth/{entity}"
        assert record["status"] == 200
        assert record["body_bytes"] > 0

    def test_lifespan_protocol(self, ltm_artifact):
        app = make_app(ltm_artifact)

        async def run_lifespan():
            incoming = iter(
                [{"type": "lifespan.startup"}, {"type": "lifespan.shutdown"}]
            )
            sent = []

            async def receive():
                return next(incoming)

            async def send(message):
                sent.append(message["type"])

            await app({"type": "lifespan"}, receive, send)
            return sent

        assert asyncio.run(run_lifespan()) == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]

    def test_app_from_service_and_path(self, ltm_artifact, tmp_path):
        path = ltm_artifact.save(tmp_path / "artifact")
        app = make_app(str(path))
        assert fetch(app, "GET", "/healthz").status == 200
        app2 = make_app(TruthService(ltm_artifact))
        assert fetch(app2, "GET", "/healthz").status == 200

    def test_app_rejects_non_service(self):
        with pytest.raises(ConfigurationError):
            TruthAPI(42)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# rate limiting through the app
# ---------------------------------------------------------------------------
class TestAppRateLimiting:
    def test_429_with_retry_after(self, ltm_artifact):
        clock = FakeClock()
        app = create_app(ltm_artifact, rate=2.0, burst=2, clock=clock)
        assert fetch(app, "GET", "/top-k").status == 200
        assert fetch(app, "GET", "/top-k").status == 200
        response = fetch(app, "GET", "/top-k")
        assert response.status == 429
        assert response.json()["error"] == "rate_limited"
        assert response.headers["retry-after"] == "1"
        clock.advance(1.0)
        assert fetch(app, "GET", "/top-k").status == 200

    def test_clients_limited_independently(self, ltm_artifact):
        app = create_app(ltm_artifact, rate=1.0, burst=1, clock=FakeClock())
        assert fetch(app, "GET", "/top-k", headers={"X-API-Key": "a"}).status == 200
        assert fetch(app, "GET", "/top-k", headers={"X-API-Key": "a"}).status == 429
        assert fetch(app, "GET", "/top-k", headers={"X-API-Key": "b"}).status == 200

    def test_healthz_and_metrics_exempt(self, ltm_artifact):
        app = create_app(ltm_artifact, rate=1.0, burst=1, clock=FakeClock())
        assert fetch(app, "GET", "/top-k").status == 200
        assert fetch(app, "GET", "/top-k").status == 429
        assert fetch(app, "GET", "/healthz").status == 200
        assert fetch(app, "GET", "/metrics").status == 200

    def test_rate_limited_requests_counted(self, ltm_artifact):
        app = create_app(ltm_artifact, rate=1.0, burst=1, clock=FakeClock())
        fetch(app, "GET", "/top-k")
        fetch(app, "GET", "/top-k")
        text = fetch(app, "GET", "/metrics").body.decode()
        assert "repro_api_rate_limited_total 1" in text


# ---------------------------------------------------------------------------
# ingest + idempotency through the app
# ---------------------------------------------------------------------------
class TestIngest:
    def test_ingest_integrates_and_hot_swaps(self, ltm_artifact):
        app = make_app(ltm_artifact)
        before = fetch(app, "GET", "/healthz").json()
        response = fetch(
            app,
            "POST",
            "/ingest",
            json_body={"triples": [["New Movie", "Someone", "imdb"]]},
        )
        payload = response.json()
        assert response.status == 200
        assert payload["ingested"] == 1
        assert payload["generation"] == before["generation"] + 1
        assert payload["total_facts"] == before["artifact"]["facts"] + 1
        # The new fact is immediately servable from the swapped snapshot.
        lookup = fetch(app, "GET", "/truth/New%20Movie")
        assert lookup.status == 200
        assert lookup.json()["facts"][0]["attribute"] == "Someone"

    def test_ingest_publishes_engine_stream_payload(
        self, ltm_artifact, voting_artifact, tmp_path
    ):
        """Each /ingest publishes the bytes of the engine's streaming path.

        The oracle rebuilds a scoring-only engine from the served artifact,
        ``partial_fit``\\ s the batch and exports it under the served name.
        """

        def oracle(served, batch):
            config = dataclasses.replace(
                served.config, retrain_every=0, retain_history=False, export_dir=None
            )
            engine = TruthEngine.from_artifact(dataclasses.replace(served, config=config))
            engine.partial_fit([tuple(row) for row in batch])
            return engine.to_artifact(name=served.name).payload()

        new_entity = [["New Movie", "Someone", "IMDB"], ["New Movie", "Other", "Hulu.com"]]
        # Re-scores served facts; "Fresh.org" is a source the fit never saw.
        rescored = [
            ["Harry Potter", "Daniel Radcliffe", "Fresh.org"],
            ["Harry Potter", "Johnny Depp", "IMDB"],
        ]
        after_refresh = [["Pirates 4", "Orlando Bloom", "Fresh.org"]]
        for artifact in (ltm_artifact, voting_artifact):
            path = artifact.save(tmp_path / artifact.name)
            app = make_app(str(path))
            for step, batch in enumerate((new_entity, rescored, None, after_refresh)):
                if batch is None:
                    assert fetch(app, "POST", "/refresh").status == 200
                    continue
                expected = oracle(app.service.artifact, batch)
                generation = app.generation
                response = fetch(app, "POST", "/ingest", json_body={"triples": batch})
                assert response.json() == {
                    "ingested": len(batch),
                    "total_facts": len(app.service),
                    "generation": generation + 1,
                }
                assert app.service.artifact.payload() == expected, (artifact.name, step)
            published = app.service.artifact.config
            assert published.retain_history is False
            assert published.retrain_every == 0

    def test_ingest_without_quality_uses_voting_fallback(self, voting_artifact):
        app = make_app(voting_artifact)
        response = fetch(
            app,
            "POST",
            "/ingest",
            json_body={"triples": [["X", "y", "s1"], ["X", "y", "s2"], ["X", "z", "s2"]]},
        )
        assert response.status == 200
        assert fetch(app, "GET", "/truth/X").status == 200

    def test_ingest_empty_batch_400(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "POST", "/ingest", json_body={"triples": []})
        assert response.status == 400

    def test_idempotent_replay_returns_cached_bytes(self, ltm_artifact):
        app = make_app(ltm_artifact)
        body = {"triples": [["R", "r", "s"]]}
        headers = {"Idempotency-Key": "key-1"}
        first = fetch(app, "POST", "/ingest", json_body=body, headers=headers)
        replay = fetch(app, "POST", "/ingest", json_body=body, headers=headers)
        assert first.status == replay.status == 200
        assert replay.body == first.body
        assert replay.headers["idempotency-replay"] == "true"
        assert "idempotency-replay" not in first.headers
        # The write was applied exactly once: generation did not advance again.
        assert fetch(app, "GET", "/healthz").json()["generation"] == first.json()["generation"]
        text = fetch(app, "GET", "/metrics").body.decode()
        assert "repro_api_idempotent_replays_total 1" in text

    def test_idempotency_key_conflict_409(self, ltm_artifact):
        app = make_app(ltm_artifact)
        headers = {"Idempotency-Key": "key-1"}
        assert (
            fetch(app, "POST", "/ingest", json_body={"triples": [["A", "a", "s"]]}, headers=headers).status
            == 200
        )
        conflict = fetch(
            app, "POST", "/ingest", json_body={"triples": [["B", "b", "s"]]}, headers=headers
        )
        assert conflict.status == 409
        assert conflict.json()["error"] == "idempotency_key_conflict"

    def test_idempotency_keys_expire(self, ltm_artifact):
        clock = FakeClock()
        app = make_app(ltm_artifact, idempotency_ttl=10.0, clock=clock)
        body = {"triples": [["E", "e", "s"]]}
        headers = {"Idempotency-Key": "key-1"}
        first = fetch(app, "POST", "/ingest", json_body=body, headers=headers)
        clock.advance(11.0)
        again = fetch(app, "POST", "/ingest", json_body=body, headers=headers)
        assert "idempotency-replay" not in again.headers
        assert again.json()["generation"] == first.json()["generation"] + 1


# ---------------------------------------------------------------------------
# refresh + the concurrency contract
# ---------------------------------------------------------------------------
class TestRefresh:
    def test_refresh_from_explicit_path(self, ltm_artifact, tmp_path):
        app = make_app(ltm_artifact)
        replacement = mini_artifact("v2", {("only", "fact"): 0.9})
        path = replacement.save(tmp_path / "v2")
        response = fetch(app, "POST", "/refresh", json_body={"artifact": str(path)})
        payload = response.json()
        assert response.status == 200
        assert payload["generation"] == 2
        assert payload["artifact"]["name"] == "v2"
        assert fetch(app, "GET", "/truth/only").status == 200

    def test_refresh_defaults_to_boot_path(self, ltm_artifact, tmp_path):
        path = ltm_artifact.save(tmp_path / "boot")
        app = make_app(str(path))
        response = fetch(app, "POST", "/refresh")
        assert response.status == 200
        assert response.json()["generation"] == 2

    def test_refresh_without_any_path_400(self, ltm_artifact):
        response = fetch(make_app(ltm_artifact), "POST", "/refresh")
        assert response.status == 400
        assert response.json()["error"] == "no_artifact_path"

    def test_refresh_bad_artifact_400(self, ltm_artifact, tmp_path):
        response = fetch(
            make_app(ltm_artifact), "POST", "/refresh", json_body={"artifact": str(tmp_path)}
        )
        assert response.status == 400
        assert response.json()["error"] == "artifact_error"

    def test_refresh_resets_ingest_writer(self, ltm_artifact, tmp_path):
        app = make_app(ltm_artifact)
        fetch(app, "POST", "/ingest", json_body={"triples": [["Old", "o", "s"]]})
        path = mini_artifact("clean", {("fresh", "f"): 1.0}).save(tmp_path / "clean")
        fetch(app, "POST", "/refresh", json_body={"artifact": str(path)})
        # Ingest after refresh continues from the *new* snapshot: the pre-swap
        # ingested fact is gone, the refreshed fact stays.
        fetch(app, "POST", "/ingest", json_body={"triples": [["newer", "n", "s"]]})
        assert fetch(app, "GET", "/truth/Old").status == 404
        assert fetch(app, "GET", "/truth/fresh").status == 200
        assert fetch(app, "GET", "/truth/newer").status == 200


class TestRefreshRace:
    """Many concurrent readers while a writer republishes: the hot-swap contract."""

    def test_concurrent_readers_during_hot_swap(self, tmp_path):
        artifact_a = mini_artifact(
            "gen-a", {("city", "blue"): 0.9, ("city", "red"): 0.2, ("marker", "A"): 1.0}
        )
        artifact_b = mini_artifact(
            "gen-b", {("city", "blue"): 0.1, ("city", "red"): 0.8, ("marker", "B"): 1.0}
        )
        path_a = artifact_a.save(tmp_path / "a")
        path_b = artifact_b.save(tmp_path / "b")

        # The exact bodies each artifact serves, captured from static apps.
        body_city_a = fetch(make_app(artifact_a), "GET", "/truth/city").body
        body_city_b = fetch(make_app(artifact_b), "GET", "/truth/city").body
        assert body_city_a != body_city_b

        app = make_app(str(path_a))
        client = ASGIClient(app)
        writer_generations: list[int] = []
        statuses: list[int] = []

        async def reader() -> None:
            last_generation = 0
            for _ in range(40):
                response = await client.get("/truth/city")
                statuses.append(response.status)
                # No torn reads: every response is exactly artifact A's or
                # exactly artifact B's rendering, never a mixture.
                assert response.body in (body_city_a, body_city_b)
                health = await client.get("/healthz")
                statuses.append(health.status)
                generation = health.json()["generation"]
                # The generation a reader observes never goes backwards.
                assert generation >= last_generation
                last_generation = generation

        async def writer() -> None:
            for i in range(25):
                target = path_b if i % 2 == 0 else path_a
                response = await client.post(
                    "/refresh", json_body={"artifact": str(target)}
                )
                assert response.status == 200
                writer_generations.append(response.json()["generation"])
                await asyncio.sleep(0)

        async def race() -> None:
            await asyncio.gather(*[reader() for _ in range(8)], writer())

        asyncio.run(race())
        assert all(status < 500 for status in statuses)
        assert statuses.count(200) == len(statuses)
        # Strictly monotonic generations: one bump per successful republish.
        assert writer_generations == list(range(2, 27))
        assert app.generation == 26


class TestServiceRefreshUnderAsyncio:
    """TruthService.refresh itself, driven by raw asyncio tasks (no HTTP)."""

    def test_snapshot_reads_are_atomic_across_refresh(self):
        artifact_a = mini_artifact("a", {("e", "x"): 0.9, ("e", "y"): 0.1})
        artifact_b = mini_artifact("b", {("e", "x"): 0.2, ("e", "y"): 0.7})
        service = TruthService(artifact_a)
        valid = {
            ("a", (("x", 0.9), ("y", 0.1))),
            ("b", (("y", 0.7), ("x", 0.2))),
        }

        async def reader() -> None:
            for _ in range(200):
                snapshot = service.snapshot()
                ranked = tuple(
                    (attr, round(score, 6)) for attr, score in snapshot.entity_top("e")
                )
                assert (snapshot.artifact.name, ranked) in valid
                await asyncio.sleep(0)

        async def writer() -> None:
            for i in range(100):
                service.refresh(artifact_b if i % 2 == 0 else artifact_a)
                await asyncio.sleep(0)

        async def race() -> None:
            await asyncio.gather(*[reader() for _ in range(4)], writer())

        asyncio.run(race())
