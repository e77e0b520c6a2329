"""Tests for :class:`~repro.io.store_source.StoreSource` and its plumbing.

The out-of-core contract pinned here (see ISSUE 7):

* a store-backed source yields **bit-identical entity-batch sequences** to
  the in-memory and file sources over the same triples — unshuffled
  (first-seen order) and for any seeded shuffle — so every downstream
  consumer (engine, planner, stream replays) is storage-agnostic;
* ``as_source`` resolves ``store://`` URLs and sniffs SQLite files, and
  claim stores register in the dataset catalog as streaming datasets;
* :class:`~repro.io.sources.TripleFileSource` reads its file lazily — peak
  rows in flight are bounded by the batch size, never the file size;
* the engine fits a store-backed corpus without materialising it, and
  ``retain_history=False`` keeps streaming memory bounded by the window.
"""

import numpy as np
import pytest

from repro.data.loaders import save_triples_csv
from repro.engine import EngineConfig, TruthEngine
from repro.exceptions import ConfigurationError, StoreError, StreamError
from repro.io import MemorySource, StoreSource, as_source, seeded_entity_order
from repro.io.catalog import DatasetCatalog
from repro.io.sources import TripleFileSource
from repro.store import ClaimStore
from repro.types import Triple

TRIPLES = [
    Triple("e1", "a", "s1"),
    Triple("e1", "a", "s2"),
    Triple("e1", "b", "s3"),
    Triple("e2", "c", "s1"),
    Triple("e2", "c", "s3"),
    Triple("e3", "d", "s2"),
]


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "claims.db"
    with ClaimStore(path) as store:
        store.append(TRIPLES)
    return path


@pytest.fixture
def tsv_path(tmp_path):
    path = tmp_path / "claims.tsv"
    save_triples_csv(TRIPLES, path)
    return path


class TestStoreSource:
    def test_schema_and_flags(self, store_path):
        with StoreSource(store_path) as source:
            info = source.schema()
            assert info.kind == "store"
            assert info.name == "claims"
            assert info.num_triples == len(TRIPLES)
            assert info.metadata["entities"] == 3
        assert StoreSource.streams
        assert not MemorySource.streams

    def test_iter_triples_matches_ingest_order(self, store_path):
        with StoreSource(store_path) as source:
            assert list(source.iter_triples()) == TRIPLES

    def test_entity_scans_are_indexed(self, store_path):
        with StoreSource(store_path) as source:
            assert list(source.iter_entities()) == ["e1", "e2", "e3"]
            assert source.entity_triples(["e3", "e1"]) == TRIPLES[5:] + TRIPLES[:3]

    def test_entity_batches_read_one_chunk_per_batch(self, store_path, monkeypatch):
        with ClaimStore(store_path, read_only=True) as store:
            reads = []
            read = store.entity_triples
            monkeypatch.setattr(
                store, "entity_triples", lambda keys: reads.append(list(keys)) or read(keys)
            )
            monkeypatch.setattr(store, "iter_triples", lambda **_: pytest.fail("full scan"))
            batches = StoreSource(store).iter_batches(2, by_entity=True)
            assert next(batches).entities == ["e1", "e2"]
            assert reads == [["e1", "e2"]]
            assert [b.entities for b in batches] == [["e3"]]
            assert reads == [["e1", "e2"], ["e3"]]

    def test_claim_matrix_identical_to_memory_source(self, store_path):
        expected = MemorySource(TRIPLES).to_claim_matrix()
        with StoreSource(store_path) as source:
            matrix = source.to_claim_matrix()
        assert np.array_equal(matrix.claim_fact, expected.claim_fact)
        assert np.array_equal(matrix.claim_obs, expected.claim_obs)

    def test_wraps_open_store_without_owning_it(self, store_path):
        with ClaimStore(store_path, read_only=True) as store:
            source = StoreSource(store, name="shared")
            assert source.schema().name == "shared"
            source.close()  # must NOT close the borrowed store handle
            assert len(store) == len(TRIPLES)

    def test_owned_store_closes_with_the_source(self, store_path):
        source = StoreSource(store_path)
        source.close()
        with pytest.raises(StoreError, match="closed"):
            list(source.iter_triples())

    def test_invalid_chunk_size(self, store_path):
        with pytest.raises(StreamError):
            StoreSource(store_path, chunk_size=0)


class TestEntityBatchParity:
    """All three storage tiers must stream identical batch sequences."""

    def _sources(self, store_path, tsv_path):
        return [
            MemorySource(TRIPLES),
            TripleFileSource(tsv_path),
            StoreSource(store_path),
        ]

    def test_unshuffled_first_seen_order(self, store_path, tsv_path):
        expected = [
            b.triples for b in MemorySource(TRIPLES).iter_batches(2, by_entity=True)
        ]
        for source in self._sources(store_path, tsv_path):
            got = [b.triples for b in source.iter_batches(2, by_entity=True)]
            assert got == expected, type(source).__name__

    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_seeded_shuffle_order(self, store_path, tsv_path, seed):
        expected = [
            b.triples
            for b in MemorySource(TRIPLES).iter_batches(
                2, by_entity=True, shuffle=True, seed=seed
            )
        ]
        for source in self._sources(store_path, tsv_path):
            got = [
                b.triples
                for b in source.iter_batches(2, by_entity=True, shuffle=True, seed=seed)
            ]
            assert got == expected, (type(source).__name__, seed)

    def test_seeded_order_is_the_shared_helper(self, seed=7):
        entities = ["e1", "e2", "e3"]
        ordered = seeded_entity_order(entities, seed)
        assert sorted(ordered) == sorted(entities)
        batches = MemorySource(TRIPLES).iter_batches(
            1, by_entity=True, shuffle=True, seed=seed
        )
        assert [b.entities[0] for b in batches] == ordered


class TestAsSourceStore:
    def test_store_url_absolute(self, store_path):
        source = as_source(f"store://{store_path}")
        assert isinstance(source, StoreSource)
        assert list(source.iter_triples()) == TRIPLES

    def test_store_url_relative(self, store_path, monkeypatch):
        monkeypatch.chdir(store_path.parent)
        source = as_source("store://claims.db")
        assert isinstance(source, StoreSource)
        assert source.schema().num_triples == len(TRIPLES)

    def test_store_url_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            as_source(f"store://{tmp_path / 'absent.db'}")
        with pytest.raises(ConfigurationError, match="names no claim store"):
            as_source("store://")

    def test_sqlite_file_path_is_sniffed(self, store_path):
        # A plain path to a .db file resolves to the store tier, not the
        # CSV reader.
        source = as_source(str(store_path))
        assert isinstance(source, StoreSource)

    def test_catalog_register_store(self, store_path):
        catalog = DatasetCatalog()
        catalog.register_store("crawl", store_path, summary="test crawl")
        spec = catalog.spec("crawl")
        assert spec.kind == "store"
        assert spec.streams
        source = catalog.create("crawl")
        assert isinstance(source, StoreSource)
        assert list(source.iter_triples()) == TRIPLES

    def test_catalog_metadata_lists_streaming(self, store_path):
        catalog = DatasetCatalog()
        catalog.register_store("crawl", store_path)
        assert catalog.spec("crawl").metadata()["streams"] is True


class _CountingFileSource(TripleFileSource):
    """A file source that counts rows pulled off the reader seam."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows_read = 0

    def _read_rows(self):
        def counted(rows):
            for row in rows:
                self.rows_read += 1
                yield row

        return counted(super()._read_rows())


class TestTripleFileStreaming:
    """Regression: the file source must not materialise the file up front."""

    def _big_file(self, tmp_path, rows=100):
        path = tmp_path / "big.tsv"
        save_triples_csv(
            [Triple(f"e{i}", f"a{i}", "s") for i in range(rows)], path
        )
        return path

    def test_iter_triples_is_lazy(self, tmp_path):
        source = _CountingFileSource(self._big_file(tmp_path))
        iterator = source.iter_triples()
        assert source.rows_read == 0
        next(iterator)
        assert source.rows_read == 1

    def test_plain_batches_bound_rows_in_flight(self, tmp_path):
        source = _CountingFileSource(self._big_file(tmp_path))
        batches = source.iter_batches(5)
        first = next(batches)
        assert len(first) == 5
        # Peak rows pulled to produce one batch == the batch size, never
        # the whole file (the pre-fix behaviour materialised all 100).
        assert source.rows_read == 5
        assert sum(len(b) for b in batches) == 95
        assert source.rows_read == 100

    def test_num_triples_cached_only_after_full_pass(self, tmp_path):
        source = _CountingFileSource(self._big_file(tmp_path))
        iterator = source.iter_triples()
        next(iterator)
        assert source.schema().num_triples is None  # partial pass: unknown
        list(iterator)
        assert source.schema().num_triples == 100


class TestEngineOutOfCore:
    def _quality_triples(self, num_entities=12):
        triples = []
        for e in range(num_entities):
            for s in range(4):
                triples.append(Triple(f"e{e}", f"true_{e}", f"good{s}"))
            triples.append(Triple(f"e{e}", f"junk_{e}", "spammer"))
        return triples

    @pytest.fixture
    def quality_store(self, tmp_path):
        path = tmp_path / "quality.db"
        with ClaimStore(path) as store:
            store.append(self._quality_triples())
        return path

    def test_fit_from_store_matches_in_memory(self, quality_store):
        from_store = TruthEngine(method="voting")
        from_store.fit(f"store://{quality_store}")
        in_memory = TruthEngine(method="voting")
        in_memory.fit(self._quality_triples())
        assert from_store.fact_scores == in_memory.fact_scores

    def test_fit_from_store_keeps_sharded_parity(self, quality_store):
        from repro.engine import ExecutionConfig

        sharded = TruthEngine(
            EngineConfig(
                method="voting",
                execution=ExecutionConfig(num_shards=3, backend="processes"),
            )
        )
        sharded.fit(f"store://{quality_store}")
        serial = TruthEngine(method="voting")
        serial.fit(self._quality_triples())
        assert sharded.fact_scores == serial.fact_scores

    def test_retain_history_false_bounds_engine_memory(self, quality_store):
        config = EngineConfig(
            method="voting", retrain_every=2, cumulative=False, retain_history=False
        )
        engine = TruthEngine(config)
        with StoreSource(quality_store) as source:
            for batch in source.iter_batches(3, by_entity=True):
                engine.partial_fit(batch)
                # The full-stream history stays empty: memory is bounded by
                # the re-train window, not the corpus.
                assert len(engine._history) == 0
        assert engine.fact_scores  # windowed re-fits still produce scores

    def test_retain_history_false_rejects_cumulative_retraining(self):
        with pytest.raises(ConfigurationError, match="retain_history"):
            EngineConfig(retain_history=False, cumulative=True, retrain_every=5)
        # Both escape hatches named in the error are valid configs.
        EngineConfig(retain_history=False, cumulative=False, retrain_every=5)
        EngineConfig(retain_history=False, cumulative=True, retrain_every=0)
