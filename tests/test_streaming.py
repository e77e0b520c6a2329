"""Tests for entity-grouped arrival batches and the engine's streaming lifecycle."""

import pytest

from repro.engine import EngineConfig, TruthEngine
from repro.exceptions import StreamError
from repro.io import as_source, split_prefix
from repro.types import ClaimBatch, Triple


def _streaming_engine(retrain_every=5, iterations=30, cumulative=True, seed=1):
    """A streaming-configured LTM engine (the former OnlineTruthFinder shape)."""
    return TruthEngine(
        EngineConfig(
            method="ltm",
            params={"iterations": iterations, "seed": seed},
            retrain_every=retrain_every,
            cumulative=cumulative,
        )
    )


def _triples_for(num_entities: int, good_sources: int = 5) -> list[Triple]:
    triples = []
    for e in range(num_entities):
        for s in range(good_sources):
            triples.append(Triple(f"e{e}", f"true_{e}", f"good{s}"))
        triples.append(Triple(f"e{e}", f"junk_{e}", "spammer"))
    return triples


class TestClaimStream:
    """Arrival batches from ``DataSource.iter_batches(n, by_entity=True)``."""

    def test_batches_group_entities(self):
        batches = list(as_source(_triples_for(10)).iter_batches(4, by_entity=True))
        assert len(batches) == 3
        assert sum(len(b.entities) for b in batches) == 10
        assert batches[0].index == 0 and batches[-1].index == 2

    def test_batch_contains_all_entity_triples(self):
        batch = next(as_source(_triples_for(4)).iter_batches(2, by_entity=True))
        for entity in batch.entities:
            expected = [t for t in _triples_for(4) if t.entity == entity]
            got = [t for t in batch.triples if t.entity == entity]
            assert len(got) == len(expected)

    def test_shuffle_is_deterministic_per_seed(self):
        triples = _triples_for(12)
        source = as_source(triples)
        a = [b.entities for b in source.iter_batches(3, by_entity=True, shuffle=True, seed=1)]
        b = [b.entities for b in source.iter_batches(3, by_entity=True, shuffle=True, seed=1)]
        c = [b.entities for b in source.iter_batches(3, by_entity=True, shuffle=True, seed=2)]
        assert a == b
        assert a != c

    def test_invalid_batch_size(self):
        with pytest.raises(StreamError):
            list(as_source(_triples_for(2)).iter_batches(0, by_entity=True))

    def test_split_prefix(self):
        triples = _triples_for(10)
        historical, future = split_prefix(triples, fraction=0.5, seed=3)
        historical_entities = {t.entity for t in historical}
        future_entities = {t.entity for t in future}
        assert historical_entities.isdisjoint(future_entities)
        assert len(historical_entities) == 5

    def test_split_prefix_invalid_fraction(self):
        with pytest.raises(StreamError):
            split_prefix(_triples_for(4), fraction=1.5)

    def test_split_prefix_reads_rows_by_index(self):
        triples = _triples_for(10)
        tuples = [tuple(t) for t in triples]
        assert split_prefix(tuples, fraction=0.3, seed=4) == split_prefix(
            triples, fraction=0.3, seed=4
        )

    def test_claim_batch_len(self):
        batch = ClaimBatch(index=0, triples=(Triple("e", "a", "s"),))
        assert len(batch) == 1
        assert batch.entities == ["e"]


class TestStreamingEngine:
    def test_bootstrap_then_stream(self):
        triples = _triples_for(30)
        historical, future = split_prefix(triples, fraction=0.5, seed=0)
        engine = _streaming_engine(retrain_every=0, iterations=30, seed=1)
        engine.ingest(historical)
        engine.fit()
        assert engine.source_quality is not None

        for batch in as_source(future).iter_batches(5, by_entity=True):
            engine.partial_fit(batch)
        reports = engine.reports
        assert len(reports) >= 1
        assert all(report.num_facts > 0 for report in reports)
        # The spammer's junk facts should be overwhelmingly rejected while the
        # consensus facts are accepted.
        merged = engine.merged_records(threshold=0.5)
        accepted_values = {v for values in merged.values() for v in values}
        accepted_junk = sum(1 for v in accepted_values if v.startswith("junk_"))
        accepted_true = sum(1 for v in accepted_values if v.startswith("true_"))
        assert accepted_true >= 25
        assert accepted_junk <= 3

    def test_cold_start_falls_back_to_voting(self):
        engine = _streaming_engine(retrain_every=2, iterations=20, seed=1)
        batches = list(as_source(_triples_for(8)).iter_batches(4, by_entity=True))
        report = engine.partial_fit(batches[0]).last_report
        assert report.retrained is False
        assert engine.source_quality is None
        report2 = engine.partial_fit(batches[1]).last_report
        assert report2.retrained is True
        assert engine.source_quality is not None

    def test_periodic_retraining_counts(self):
        engine = _streaming_engine(retrain_every=2, iterations=15, seed=1)
        for batch in as_source(_triples_for(12)).iter_batches(3, by_entity=True):
            engine.partial_fit(batch)
        retrain_flags = [r.retrained for r in engine.reports]
        assert retrain_flags == [False, True, False, True]

    def test_non_cumulative_retraining(self):
        engine = _streaming_engine(retrain_every=1, iterations=15, cumulative=False, seed=1)
        for batch in as_source(_triples_for(9)).iter_batches(3, by_entity=True):
            engine.partial_fit(batch)
        assert all(r.retrained for r in engine.reports)
        assert engine.source_quality is not None

    def test_empty_batch_rejected(self):
        engine = _streaming_engine()
        with pytest.raises(StreamError):
            engine.partial_fit(ClaimBatch(index=0, triples=()))

    def test_fit_requires_triples(self):
        from repro.exceptions import EmptyDatasetError

        engine = _streaming_engine()
        with pytest.raises(EmptyDatasetError):
            engine.fit()

    def test_step_report_accepted_facts(self):
        engine = _streaming_engine(retrain_every=0, iterations=20, seed=1)
        engine.ingest(_triples_for(10))
        engine.fit()
        batch = next(as_source(_triples_for(20)[30:]).iter_batches(50, by_entity=True))
        report = engine.partial_fit(batch).last_report
        accepted = report.accepted_facts(threshold=0.5)
        assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in accepted)
