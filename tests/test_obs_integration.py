"""Cross-layer telemetry integration tests.

Covers the acceptance contracts of the observability pillar:

* an engine fit emits one ``fit`` root span with chunked ``gibbs.iteration``
  children, and ``engine.last_trace`` exposes the sampler diagnostics
  consistent with :meth:`~repro.core.gibbs.GibbsConfig.paper_schedule`;
* a sharded fit exports one merged span tree — plan → per-shard fit (with
  the worker-side Gibbs chunks grafted across process boundaries) → merge —
  with non-overlapping shard timings on the serial backend;
* enabling telemetry never changes scores, on any backend;
* store, serving and artifact operations land spans and process-global
  metric series, and ``GET /metrics`` exposes them next to the per-app
  request series — whose output stays byte-identical to the pre-refactor
  renderer;
* engine-fit span JSONL is byte-stable under an injected fake clock;
* the CLI round-trip: ``integrate --telemetry --trace-out`` then
  ``obs summary`` / ``obs tail``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import cli, obs
from repro.api import ASGIClient, create_app
from repro.core.gibbs import GibbsConfig
from repro.engine import TruthEngine
from repro.engine.config import EngineConfig, ExecutionConfig
from repro.obs.metrics import global_registry, reset_global_registry
from repro.obs.render import load_spans
from repro.store import ClaimStore
from repro.types import Triple


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    obs.reset()
    yield
    obs.reset()


class FakeClock:
    """A deterministic counting clock: every read advances by ``step``."""

    def __init__(self, now: float = 0.0, step: float = 0.5):
        self.now = now
        self.step = step

    def __call__(self) -> float:
        current = self.now
        self.now += self.step
        return current


def _triples_for(num_entities: int, good_sources: int = 4) -> list[Triple]:
    triples = []
    for e in range(num_entities):
        for s in range(good_sources):
            triples.append(Triple(f"e{e}", f"true_{e}", f"good{s}"))
        triples.append(Triple(f"e{e}", f"junk_{e}", "spammer"))
    return triples


def _by_name(spans):
    grouped: dict[str, list] = {}
    for span in spans:
        grouped.setdefault(span["name"], []).append(span)
    return grouped


def fetch(app, method, target, **kwargs):
    return asyncio.run(ASGIClient(app).request(method, target, **kwargs))


# ---------------------------------------------------------------------------
# engine fit spans + sampler diagnostics
# ---------------------------------------------------------------------------
class TestEngineFitSpans:
    def test_fit_emits_root_span_with_chunked_gibbs_children(self):
        tracer = obs.configure()
        TruthEngine(method="ltm", iterations=30, seed=7).fit("paper_example")
        spans = _by_name(tracer.collector.spans)
        fit = spans["fit"][0]
        assert fit["parent_id"] is None
        attrs = fit["attributes"]
        assert attrs["method"] == "ltm"
        assert attrs["backend"] == "serial"
        assert attrs["iterations"] == 30
        assert attrs["triples"] > 0 and attrs["facts"] > 0
        assert 0.0 <= attrs["flip_fraction"] <= 1.0
        # 30 sweeps in chunks of 30 // 10 = 3 → exactly 10 chunk spans, all
        # children of the fit root, jointly covering every sweep.
        chunks = spans["gibbs.iteration"]
        assert len(chunks) == 10
        assert all(chunk["parent_id"] == fit["span_id"] for chunk in chunks)
        assert sum(chunk["attributes"]["iterations"] for chunk in chunks) == 30
        for chunk in chunks:
            assert 0.0 <= chunk["attributes"]["flip_fraction"] <= 1.0

    def test_last_trace_matches_paper_schedule(self):
        engine = TruthEngine(method="ltm", iterations=50, seed=3).fit("paper_example")
        trace = engine.last_trace
        schedule = GibbsConfig.paper_schedule(50)
        assert trace is not None
        assert trace.total_iterations == 50
        assert trace.samples_collected == schedule.num_samples
        assert schedule.num_samples == len(range(schedule.burn_in, 50, schedule.thin))

    def test_fit_span_sample_count_matches_paper_schedule(self):
        tracer = obs.configure()
        TruthEngine(method="ltm", iterations=50, seed=3).fit("paper_example")
        fit = _by_name(tracer.collector.spans)["fit"][0]
        assert fit["attributes"]["samples"] == GibbsConfig.paper_schedule(50).num_samples

    def test_non_sampling_method_has_no_trace_or_sampler_attrs(self):
        tracer = obs.configure()
        engine = TruthEngine(method="voting").fit("paper_example")
        assert engine.last_trace is None
        fit = _by_name(tracer.collector.spans)["fit"][0]
        assert "iterations" not in fit["attributes"]
        assert "flip_fraction" not in fit["attributes"]

    def test_engine_telemetry_config_writes_trace_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        config = EngineConfig(
            method="ltm",
            params={"iterations": 10, "seed": 7},
            telemetry={"enabled": True, "trace_path": str(path)},
        )
        TruthEngine(config).fit("paper_example")
        obs.shutdown()
        names = {span["name"] for span in load_spans(str(path))}
        assert "fit" in names and "gibbs.iteration" in names

    def test_metrics_recorded_even_without_tracing(self):
        TruthEngine(method="ltm", iterations=10, seed=7).fit("paper_example")
        rendered = global_registry().render()
        assert 'repro_engine_fits_total{method="ltm",mode="batch"} 1' in rendered
        assert 'repro_engine_fit_seconds_count{backend="serial",method="ltm"} 1' in rendered
        assert 'repro_engine_triples_ingested_total{path="fit"}' in rendered
        assert "repro_gibbs_flip_fraction_count 1" in rendered

    def test_discover_labels_fit_with_method_key(self):
        import repro
        from repro.engine import default_registry

        repro.discover("paper_example", method="voting")
        repro.discover("paper_example", method="voting", registry=default_registry())
        rendered = global_registry().render()
        assert 'repro_engine_fits_total{method="voting",mode="batch"} 2' in rendered
        assert 'method="ltm"' not in rendered


# ---------------------------------------------------------------------------
# sharded fits: one merged tree across workers
# ---------------------------------------------------------------------------
BACKENDS = ["serial", "processes"]


class TestShardedSpans:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merged_span_tree_covers_plan_fit_merge(self, backend):
        tracer = obs.configure()
        engine = TruthEngine(
            method="ltm",
            iterations=10,
            seed=5,
            execution=ExecutionConfig(num_shards=3, backend=backend),
        ).fit(_triples_for(12))
        assert engine.is_fitted
        spans = _by_name(tracer.collector.spans)
        fit = spans["fit"][0]
        assert len(spans["shard.plan"]) == 1
        assert len(spans["shard.fit"]) == 3
        assert len(spans["shard.merge"]) == 1
        # 10 sweeps → chunk size 1 → 10 gibbs chunks per shard.
        assert len(spans["gibbs.iteration"]) == 30
        plan, merge = spans["shard.plan"][0], spans["shard.merge"][0]
        assert plan["parent_id"] == fit["span_id"]
        assert merge["parent_id"] == fit["span_id"]
        assert plan["attributes"]["strategy"] == "eager"
        assert merge["attributes"]["shards"] == 3
        shard_ids = set()
        for shard in spans["shard.fit"]:
            assert shard["parent_id"] == fit["span_id"]
            assert shard["trace_id"] == fit["trace_id"]
            shard_ids.add(shard["span_id"])
            assert shard["attributes"]["triples"] > 0
        assert {chunk["parent_id"] for chunk in spans["gibbs.iteration"]} == shard_ids
        assert len({span["trace_id"] for span in tracer.collector.spans}) == 1

    def test_serial_shard_fits_do_not_overlap(self):
        tracer = obs.configure()
        TruthEngine(
            method="ltm",
            iterations=10,
            seed=5,
            execution=ExecutionConfig(num_shards=4, backend="serial"),
        ).fit(_triples_for(12))
        shards = sorted(_by_name(tracer.collector.spans)["shard.fit"], key=lambda s: s["start"])
        assert len(shards) == 4
        for earlier, later in zip(shards, shards[1:]):
            assert later["start"] >= earlier["end"]

    def test_store_shard_fit_owns_its_store_read(self, tmp_path):
        path = tmp_path / "claims.db"
        with ClaimStore(path) as store:
            store.append(_triples_for(12))
        execution = ExecutionConfig(num_shards=2, backend="serial")
        tracer = obs.configure()
        TruthEngine(method="voting", execution=execution).fit(f"store://{path}")
        spans = _by_name(tracer.collector.spans)
        assert len(spans["shard.fit"]) == 2
        assert len(spans["store.read"]) == 2
        for shard in spans["shard.fit"]:
            reads = [r for r in spans["store.read"] if r["parent_id"] == shard["span_id"]]
            assert len(reads) == 1
            read = reads[0]["attributes"]
            assert read["entities"] > 0
            assert read["triples"] == shard["attributes"]["triples"] > 0

        obs.reset()
        tracer = obs.configure()
        TruthEngine(method="voting", execution=execution).fit(_triples_for(12))
        spans = _by_name(tracer.collector.spans)
        assert len(spans["shard.fit"]) == 2
        assert "store.read" not in spans

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_telemetry_never_changes_scores(self, backend):
        def run(telemetry: bool) -> np.ndarray:
            obs.reset()
            if telemetry:
                obs.configure()
            engine = TruthEngine(
                method="ltm",
                iterations=10,
                seed=11,
                execution=ExecutionConfig(num_shards=3, backend=backend),
            ).fit(_triples_for(9))
            return engine.predict_proba()

        np.testing.assert_array_equal(run(telemetry=True), run(telemetry=False))

    def test_shard_fit_metrics_count_shards(self):
        TruthEngine(
            method="ltm",
            iterations=7,
            seed=5,
            execution=ExecutionConfig(num_shards=3, backend="serial"),
        ).fit(_triples_for(9))
        rendered = global_registry().render()
        assert 'repro_parallel_shard_fit_seconds_count{backend="serial"} 3' in rendered


# ---------------------------------------------------------------------------
# store spans + series
# ---------------------------------------------------------------------------
class TestStoreTelemetry:
    TRIPLES = [
        ("e1", "a1", "s1"),
        ("e1", "a2", "s2"),
        ("e2", "a3", "s1"),
        ("e2", "a4", "s3"),
    ]

    def test_append_and_compact_record_spans(self):
        tracer = obs.configure()
        with ClaimStore() as store:
            store.append(self.TRIPLES[:2])
            store.append(self.TRIPLES[2:])
            store.compact(keep_last=1)
        spans = _by_name(tracer.collector.spans)
        appends = spans["store.append"]
        assert [span["attributes"]["rows"] for span in appends] == [2, 2]
        assert appends[0]["attributes"]["generation"] != appends[1]["attributes"]["generation"]
        compact = spans["store.compact"][0]
        assert compact["attributes"]["rows"] == 2  # generation 1 evicted

    def test_store_series_in_global_registry(self):
        with ClaimStore() as store:
            store.append(self.TRIPLES)
            store.compact(keep_last=1)
        rendered = global_registry().render()
        assert 'repro_store_rows_total{op="append"} 4' in rendered
        assert 'repro_store_op_seconds_count{op="append"} 1' in rendered
        assert 'repro_store_op_seconds_count{op="compact"} 1' in rendered


# ---------------------------------------------------------------------------
# serving: artifact spans + service gauges
# ---------------------------------------------------------------------------
class TestServingTelemetry:
    def test_artifact_save_load_and_service_refresh(self, tmp_path):
        from repro.serving import TruthService

        engine = TruthEngine(method="ltm", iterations=10, seed=7).fit("paper_example")
        first = tmp_path / "one"
        second = tmp_path / "two"
        engine.save(first)
        engine.save(second)

        tracer = obs.configure()
        service = TruthService(str(first))
        service.refresh(str(second))
        spans = _by_name(tracer.collector.spans)
        assert len(spans["artifact.load"]) == 2  # construction + refresh
        refresh = spans["service.refresh"][0]
        assert spans["artifact.load"][1]["parent_id"] == refresh["span_id"]
        assert refresh["attributes"]["generation"] == 2
        assert refresh["attributes"]["facts"] == len(engine.fact_scores)
        rendered = global_registry().render()
        assert "repro_serving_snapshot_generation 2" in rendered
        assert "repro_serving_artifact_age_seconds" in rendered

    def test_artifact_save_span(self, tmp_path):
        engine = TruthEngine(method="voting").fit("paper_example")
        tracer = obs.configure()
        engine.save(tmp_path / "artifact")
        save = _by_name(tracer.collector.spans)["artifact.save"][0]
        assert save["attributes"]["artifact"] == "voting"
        assert save["attributes"]["facts"] == len(engine.fact_scores)


# ---------------------------------------------------------------------------
# /metrics: merged exposition + pre-refactor byte identity
# ---------------------------------------------------------------------------
class TestMetricsEndpoint:
    @pytest.fixture()
    def artifact(self):
        return TruthEngine(method="ltm", iterations=10, seed=7).fit("paper_example").to_artifact(
            name="obs-test"
        )

    def test_exposes_engine_series_next_to_request_series(self, artifact):
        # The module-scope fit above already populated the global registry.
        app = create_app(artifact, rate=None)
        fetch(app, "GET", "/healthz")
        text = fetch(app, "GET", "/metrics").body.decode()
        assert 'repro_api_requests_total{method="GET",route="/healthz",status="200"} 1' in text
        assert 'repro_engine_fits_total{method="ltm",mode="batch"} 1' in text
        assert "repro_gibbs_flip_fraction_count 1" in text

    def test_request_series_byte_identical_to_app_registry(self, artifact):
        app = create_app(artifact, rate=None)
        fetch(app, "GET", "/healthz")
        # Engine fits (artifact fixture, service construction) touched the
        # global registry; empty it so only the per-app series remain —
        # the pre-refactor output.
        reset_global_registry()
        # The handler renders before its own request lands in the series, so
        # the body must be byte-identical to a render taken just before it.
        expected = app.metrics.render().encode("utf-8")
        response = fetch(app, "GET", "/metrics")
        assert response.body == expected
        text = response.body.decode()
        assert "repro_engine_fits_total" not in text
        # Pin the exposition shape the pre-refactor renderer produced: the
        # histogram's le label is appended after the sorted route label.
        assert 'repro_api_requests_total{method="GET",route="/healthz",status="200"} 1' in text
        assert 'repro_api_request_seconds_bucket{route="/healthz",le="0.0005"}' in text
        assert 'repro_api_request_seconds_bucket{route="/healthz",le="+Inf"} 1' in text


# ---------------------------------------------------------------------------
# byte-stable span export under an injected clock
# ---------------------------------------------------------------------------
class TestByteStableExport:
    def test_engine_fit_jsonl_is_byte_identical_across_runs(self, tmp_path):
        def run(path):
            obs.reset()
            obs.configure(trace_path=str(path), clock=FakeClock(step=0.25))
            TruthEngine(method="ltm", iterations=10, seed=7).fit("paper_example")
            obs.shutdown()
            return path.read_bytes()

        first = run(tmp_path / "one.jsonl")
        second = run(tmp_path / "two.jsonl")
        assert first == second
        names = [span["name"] for span in load_spans(str(tmp_path / "one.jsonl"))]
        assert names.count("gibbs.iteration") == 10
        assert names[-1] == "fit"


# ---------------------------------------------------------------------------
# CLI round-trip
# ---------------------------------------------------------------------------
class TestCliTelemetry:
    def test_integrate_trace_out_then_obs_summary_and_tail(self, tmp_path, capsys):
        data = tmp_path / "books.tsv"
        trace = tmp_path / "spans.jsonl"
        assert cli.main(["simulate", "books", str(data), "--entities", "20"]) == 0
        capsys.readouterr()

        code = cli.main(
            [
                "integrate",
                str(data),
                "--iterations",
                "10",
                "--shards",
                "2",
                "--backend",
                "serial",
                "--telemetry",
                "--trace-out",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Telemetry" in out
        assert "fit (" in out
        assert f"trace written to {trace}" in out

        spans = load_spans(str(trace))
        names = {span["name"] for span in spans}
        assert {"fit", "shard.plan", "shard.fit", "shard.merge", "gibbs.iteration"} <= names

        assert cli.main(["obs", "summary", str(trace)]) == 0
        summary = capsys.readouterr().out
        assert "shard.merge" in summary
        assert f"{len(spans)} spans" in summary

        assert cli.main(["obs", "tail", str(trace), "--last", "3"]) == 0
        tail = capsys.readouterr().out
        assert len(tail.strip().split("\n")) == 3

    def test_obs_summary_rejects_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert cli.main(["obs", "summary", str(bad)]) == 2
        assert "bad.jsonl:1" in capsys.readouterr().err

    def test_obs_tail_rejects_non_positive_last(self, tmp_path, capsys):
        trace = tmp_path / "spans.jsonl"
        trace.write_text("")
        assert cli.main(["obs", "tail", str(trace), "--last", "0"]) == 2
