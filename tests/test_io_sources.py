"""Tests for the concrete :mod:`repro.io` data sources."""

import numpy as np
import pytest

from repro.data.claim_builder import build_dataset
from repro.data.loaders import save_dataset_json, save_labels_csv, save_triples_csv
from repro.data.raw import RawDatabase
from repro.exceptions import StreamError
from repro.io import as_source
from repro.io.base import DataSource, SourceSchema
from repro.io.sources import (
    DatasetSource,
    JsonDatasetSource,
    MemorySource,
    SyntheticSource,
    TripleFileSource,
)
from repro.types import Triple

TRIPLES = [
    Triple("e1", "a", "s1"),
    Triple("e1", "a", "s2"),
    Triple("e1", "b", "s3"),
    Triple("e2", "c", "s1"),
    Triple("e2", "c", "s3"),
    Triple("e3", "d", "s2"),
]
TRUTH = {("e1", "a"): True, ("e1", "b"): False, ("e2", "c"): True}


class TestMemorySource:
    def test_schema_and_triples(self):
        source = MemorySource(TRIPLES, truth=TRUTH, name="mem")
        info = source.schema()
        assert info == SourceSchema(
            name="mem", kind="memory", has_labels=True, num_triples=len(TRIPLES)
        )
        assert list(source.iter_triples()) == TRIPLES
        assert source.labels() == TRUTH

    def test_accepts_tuples_generators_and_rawdb(self):
        from_tuples = MemorySource([t.as_tuple() for t in TRIPLES])
        from_gen = MemorySource(t for t in TRIPLES)
        from_raw = MemorySource(RawDatabase(TRIPLES))
        for source in (from_tuples, from_gen, from_raw):
            assert list(source.iter_triples()) == TRIPLES
        # Generators are materialised: re-iteration works.
        assert list(from_gen.iter_triples()) == TRIPLES

    def test_to_dataset_uses_labels(self):
        dataset = MemorySource(TRIPLES, truth=TRUTH, name="mem").to_dataset()
        assert dataset.name == "mem"
        expected = build_dataset(TRIPLES, truth=TRUTH)
        assert dataset.labels == expected.labels
        assert np.array_equal(dataset.claims.claim_obs, expected.claims.claim_obs)

    def test_to_claim_matrix_matches_build_dataset(self):
        matrix = MemorySource(TRIPLES).to_claim_matrix()
        expected = build_dataset(TRIPLES).claims
        assert np.array_equal(matrix.claim_fact, expected.claim_fact)
        assert np.array_equal(matrix.claim_obs, expected.claim_obs)


class TestIterBatches:
    def test_chunked_batches_cover_all_triples(self):
        source = MemorySource(TRIPLES)
        batches = list(source.iter_batches(4))
        assert [b.index for b in batches] == [0, 1]
        assert [len(b) for b in batches] == [4, 2]
        assert [t for b in batches for t in b.triples] == TRIPLES

    def test_by_entity_groups_whole_entities(self):
        batches = list(MemorySource(TRIPLES).iter_batches(2, by_entity=True))
        assert [b.entities for b in batches] == [["e1", "e2"], ["e3"]]
        assert sum(len(b) for b in batches) == len(TRIPLES)

    def test_shuffle_is_deterministic_per_seed(self):
        source = MemorySource(TRIPLES)
        a = [b.triples for b in source.iter_batches(2, shuffle=True, seed=1)]
        b = [b.triples for b in source.iter_batches(2, shuffle=True, seed=1)]
        assert a == b

    def test_invalid_batch_size(self):
        with pytest.raises(StreamError):
            list(MemorySource(TRIPLES).iter_batches(0))

    def test_claim_stream_accepts_sources_and_catalog_keys(self):
        via_source = list(as_source(MemorySource(TRIPLES)).iter_batches(2, by_entity=True))
        via_list = list(as_source(TRIPLES).iter_batches(2, by_entity=True))
        assert [b.triples for b in via_source] == [b.triples for b in via_list]
        assert len(list(as_source("paper_example").iter_batches(1, by_entity=True))) == 2


class TestTripleFileSource:
    def test_round_trip_tsv(self, tmp_path):
        path = tmp_path / "crawl.tsv"
        save_triples_csv(TRIPLES, path)
        source = TripleFileSource(path)
        assert source.schema().kind == "file"
        assert source.schema().num_triples is None  # not read yet
        assert sorted(t.as_tuple() for t in source.iter_triples()) == sorted(
            t.as_tuple() for t in TRIPLES
        )
        assert source.schema().num_triples == len(TRIPLES)  # cached after read

    def test_csv_delimiter_inferred(self, tmp_path):
        path = tmp_path / "crawl.csv"
        save_triples_csv(TRIPLES, path, delimiter=",")
        assert len(list(TripleFileSource(path).iter_triples())) == len(TRIPLES)

    def test_labels_file(self, tmp_path):
        path = tmp_path / "crawl.tsv"
        labels_path = tmp_path / "labels.tsv"
        save_triples_csv(TRIPLES, path)
        save_labels_csv(TRUTH, labels_path)
        source = TripleFileSource(path, labels_path=labels_path)
        assert source.schema().has_labels
        assert source.labels() == TRUTH
        assert source.to_dataset().labels == build_dataset(TRIPLES, truth=TRUTH).labels

    def test_labels_file_delimiter_follows_its_own_extension(self, tmp_path):
        path = tmp_path / "crawl.tsv"
        labels_path = tmp_path / "labels.csv"
        save_triples_csv(TRIPLES, path)
        save_labels_csv(TRUTH, labels_path, delimiter=",")
        source = TripleFileSource(path, labels_path=labels_path)
        assert source.labels() == TRUTH


class TestJsonDatasetSource:
    def test_round_trip(self, tmp_path):
        dataset = build_dataset(TRIPLES, truth=TRUTH, name="json-ds")
        path = tmp_path / "ds.json"
        save_dataset_json(dataset, path)
        source = JsonDatasetSource(path)
        assert source.schema().num_triples is None  # lazy
        loaded = source.to_dataset()
        assert loaded.name == "json-ds"
        assert loaded.labels == dataset.labels
        # Triples are the positive claims.
        assert sorted(t.as_tuple() for t in source.iter_triples()) == sorted(
            t.as_tuple() for t in TRIPLES
        )
        assert source.schema().kind == "json"


class TestDatasetAndSyntheticSources:
    def test_dataset_source_triples_are_positive_claims(self):
        dataset = build_dataset(TRIPLES, truth=TRUTH, name="native")
        source = DatasetSource(dataset)
        assert sorted(t.as_tuple() for t in source.iter_triples()) == sorted(
            t.as_tuple() for t in TRIPLES
        )
        assert source.to_dataset() is dataset
        assert source.labels() == TRUTH
        assert source.schema().kind == "dataset"

    def test_synthetic_source_generates_once_and_lazily(self):
        calls = []

        def factory():
            calls.append(1)
            return build_dataset(TRIPLES, truth=TRUTH, name="lazy")

        source = SyntheticSource(factory, name="lazy", metadata={"seed": 0})
        info = source.schema()
        assert calls == []  # schema() must not force generation
        assert info.kind == "synthetic" and info.metadata == {"seed": 0}
        assert len(list(source.iter_triples())) == len(TRIPLES)
        assert source.to_dataset().name == "lazy"
        assert calls == [1]  # generated exactly once, then cached

    def test_is_datasource(self):
        assert isinstance(MemorySource(TRIPLES), DataSource)
        assert isinstance(DatasetSource(build_dataset(TRIPLES)), DataSource)
