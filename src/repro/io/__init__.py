"""Unified data ingestion (the library's canonical data-side API).

This package is the data mirror of :mod:`repro.engine`: a single seam every
triple enters through.

* :class:`~repro.io.base.DataSource` — the chunk-oriented source protocol
  (``schema`` / ``iter_triples`` / ``iter_batches`` / ``to_dataset``);
* :mod:`repro.io.sources` — concrete sources for in-memory triples, triple
  CSV/TSV files, JSON dataset dumps, existing datasets and the synthetic
  simulators;
* :class:`~repro.io.store_source.StoreSource` — the out-of-core source over
  a disk-backed :class:`~repro.store.claims.ClaimStore` (indexed entity
  range scans, ``as_source("store://claims.db")``);
* :class:`~repro.io.catalog.DatasetCatalog` — named, parameterised datasets
  under string keys (``"books"``, ``"movies"``, ``"ltm_generative"``,
  ``"adversarial"``, ``"paper_example"``), mirroring the engine's
  :class:`~repro.engine.registry.MethodRegistry`;
* :func:`~repro.io.catalog.as_source` — universal coercion used by
  :class:`~repro.engine.TruthEngine`, :func:`repro.discover` and
  the ``repro-truth`` CLI;
* :func:`~repro.io.partition.entity_partition_key` — the stable, seeded
  entity digest behind sharded execution (:mod:`repro.parallel`) and
  reproducible entity shuffles; :func:`~repro.io.partition.split_prefix`
  cuts a corpus into a historical prefix and a future stream by entity.

Quickstart::

    >>> from repro.io import as_source
    >>> source = as_source("paper_example")
    >>> source.schema().kind
    'memory'
    >>> [batch.entities for batch in source.iter_batches(1, by_entity=True)]
    [['Harry Potter'], ['Pirates 4']]
"""

from repro.io.base import DataSource, SourceSchema
from repro.io.partition import entity_partition_key, seeded_entity_order, split_prefix
from repro.io.sources import (
    DatasetSource,
    JsonDatasetSource,
    MemorySource,
    SyntheticSource,
    TripleFileSource,
)
from repro.io.store_source import StoreSource
from repro.io.catalog import (
    DatasetCatalog,
    DatasetSpec,
    as_source,
    default_catalog,
    register_dataset,
)

__all__ = [
    "DataSource",
    "SourceSchema",
    "MemorySource",
    "TripleFileSource",
    "JsonDatasetSource",
    "DatasetSource",
    "SyntheticSource",
    "StoreSource",
    "DatasetCatalog",
    "DatasetSpec",
    "as_source",
    "default_catalog",
    "entity_partition_key",
    "register_dataset",
    "seeded_entity_order",
    "split_prefix",
]
