"""The :class:`DataSource` protocol: the single way data enters the library.

Historically the library had disjoint ingestion styles — CSV/JSON
loaders, :class:`~repro.data.raw.RawDatabase`, the synthetic simulators and
a separate arrival-stream adapter — and every new workload or backend had
to hand-wire triples into ``build_dataset`` itself.

:class:`DataSource` unifies them behind one chunk-oriented contract:

* :meth:`DataSource.schema` — cheap metadata (name, kind, labels, sizes);
* :meth:`DataSource.iter_triples` — the canonical stream of
  ``(entity, attribute, source)`` assertions;
* :meth:`DataSource.iter_batches` — the same triples grouped into
  :class:`~repro.types.ClaimBatch` chunks, either a fixed number of
  triples at a time or entity-grouped (how crawls and feeds deliver data);
  only entity-grouped batches are
  :meth:`~repro.engine.TruthEngine.partial_fit` input;
* :meth:`DataSource.to_dataset` / :meth:`DataSource.to_claim_matrix` — batch
  materialisation through the vectorized bulk-ingest path.

Concrete sources live in :mod:`repro.io.sources`; named, parameterised
sources are registered in the :class:`~repro.io.catalog.DatasetCatalog`.
Anything triple-shaped is coerced with :func:`~repro.io.catalog.as_source`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.data.claim_builder import build_dataset, bulk_build_claim_matrix
from repro.data.dataset import ClaimMatrix, TruthDataset
from repro.exceptions import StreamError
from repro.io.partition import seeded_entity_order
from repro.obs import get_tracer
from repro.types import AttributeValue, ClaimBatch, EntityKey, Triple

__all__ = ["SourceSchema", "DataSource"]


@dataclass(frozen=True)
class SourceSchema:
    """Cheap, side-effect-free description of a :class:`DataSource`.

    Attributes
    ----------
    name:
        Human-readable source name (also the default dataset name).
    kind:
        Source family: ``"memory"``, ``"file"``, ``"json"``, ``"store"``,
        ``"dataset"`` or ``"synthetic"``.
    fields:
        The triple fields every source yields, in order.
    has_labels:
        Whether :meth:`DataSource.labels` returns ground truth.
    num_triples:
        Number of triples when known without expensive work, else ``None``
        (e.g. a file that has not been read yet).
    metadata:
        Free-form extras (paths, config parameters, column mappings).
    """

    name: str
    kind: str
    fields: tuple[str, ...] = ("entity", "attribute", "source")
    has_labels: bool = False
    num_triples: int | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)


class DataSource(abc.ABC):
    """One logical collection of raw assertion triples.

    Subclasses implement :meth:`schema` and :meth:`iter_triples`; everything
    else (batching, claim-matrix and dataset materialisation) is derived.
    Sources are re-iterable: :meth:`iter_triples` may be called any number of
    times and must yield the same triples in the same order.

    The :attr:`streams` class attribute advertises a source's memory
    behaviour so callers (the engine, the CLI ``datasets`` table) can route
    out-of-core corpora without materialising them: iterating a streaming
    source holds only a bounded chunk in memory at a time (file and store
    sources), as opposed to sources that materialise their triples up front
    (memory, synthetic, json).
    """

    #: Whether iteration is chunked/bounded-memory rather than materialised.
    streams: bool = False

    # -- abstract surface -----------------------------------------------------------
    @abc.abstractmethod
    def schema(self) -> SourceSchema:
        """Describe the source without forcing an expensive read."""

    @abc.abstractmethod
    def iter_triples(self) -> Iterator[Triple]:
        """Yield every raw triple of the source, in canonical order."""

    def labels(self) -> dict[tuple[EntityKey, AttributeValue], bool] | None:
        """Ground-truth ``(entity, attribute) -> bool`` labels, when available."""
        return None

    # -- chunked streaming ----------------------------------------------------------
    def iter_batches(
        self,
        batch_size: int = 1000,
        *,
        by_entity: bool = False,
        shuffle: bool = False,
        seed: int | None = None,
    ) -> Iterator[ClaimBatch]:
        """Yield the source's triples as :class:`ClaimBatch` chunks.

        Ordering guarantee
        ------------------
        Batch order is **stable across interpreter runs, Python versions and
        hash seeds**.  Without ``shuffle``, entity-grouped batches list
        entities in first-seen triple order (plain batches keep triple
        order).  With ``shuffle`` and a ``seed``, the entity order is derived
        from the seeded BLAKE2b digest of
        :func:`~repro.io.partition.entity_partition_key` — never from
        Python's process-randomised ``hash()`` — so the same seed reproduces
        the same arrival order everywhere.  This is what makes sharded runs
        (:mod:`repro.parallel`) and replayed streams deterministic.

        Parameters
        ----------
        batch_size:
            Triples per batch — or entities per batch when ``by_entity``.
        by_entity:
            Group all triples of an entity into the same batch (how crawls
            and feeds deliver data).  This mode materialises the triples
            once to group them, except on a source with an entity index
            (:class:`~repro.io.store_source.StoreSource`), which streams
            its keys and reads one batch at a time.  Only entity-grouped
            batches are :meth:`~repro.engine.TruthEngine.partial_fit`
            input: a triple-count batch can split an entity, and each part
            then loses the negative claims the other part's sources imply.
        shuffle:
            Randomise arrival order (of entities when ``by_entity``, of
            triples otherwise).
        seed:
            Seed of the shuffle.  ``None`` draws a fresh random order per
            call; any integer pins the order as documented above.
        """
        if batch_size <= 0:
            raise StreamError("batch_size must be positive")
        tracer = get_tracer()
        if not tracer.enabled:
            yield from self._batches(batch_size, by_entity, shuffle, seed)
            return
        start = tracer.now()
        batches = 0
        triples = 0
        try:
            for batch in self._batches(batch_size, by_entity, shuffle, seed):
                batches += 1
                triples += len(batch)
                yield batch
        finally:
            # Recorded even on partial consumption, so an abandoned stream
            # still shows how far it got.
            tracer.record(
                "source.iter_batches",
                start,
                end=tracer.now(),
                source=self.schema().name,
                batch_size=batch_size,
                by_entity=by_entity,
                batches=batches,
                triples=triples,
            )

    def _batches(
        self, batch_size: int, by_entity: bool, shuffle: bool, seed: int | None
    ) -> Iterator[ClaimBatch]:
        """The :meth:`iter_batches` body (telemetry-free, for wrapping).

        One chunk loop serves both modes: it takes ``batch_size`` items at a
        time — triples, or entity keys from :meth:`_entity_index` — and
        yields each chunk's rows.  A seeded entity shuffle reorders the keys
        by their seeded :func:`~repro.io.partition.entity_partition_key`
        digest (ties broken by first-seen position), which is stable across
        Python versions and hash seeds; any other shuffle permutes the items
        with ``numpy.random.default_rng(seed)``.
        """
        if by_entity:
            items, read = self._entity_index()
        else:
            items, read = self.iter_triples(), list
        if shuffle:
            items = list(items)
            if by_entity and seed is not None:
                items = seeded_entity_order(items, seed)
            else:
                order = np.random.default_rng(seed).permutation(len(items))
                items = [items[i] for i in order]
        iterator = iter(items)
        for index in count():
            chunk = list(islice(iterator, batch_size))
            if not chunk:
                return
            yield ClaimBatch(index=index, triples=tuple(read(chunk)))

    def _entity_index(
        self,
    ) -> tuple[Iterable[EntityKey], Callable[[list[EntityKey]], list[Triple]]]:
        """Entity keys in first-seen order, and a reader of a key chunk's triples.

        The default groups the materialised triples by entity.  A source with
        an entity index overrides this to stream its keys and read each
        chunk's triples on demand
        (:class:`~repro.io.store_source.StoreSource`).
        """
        groups: dict[EntityKey, list[Triple]] = {}
        for row in self.iter_triples():
            groups.setdefault(row[0], []).append(row)
        return groups, lambda chunk: [row for entity in chunk for row in groups[entity]]

    # -- batch materialisation ------------------------------------------------------
    def to_claim_matrix(self) -> ClaimMatrix:
        """Run the claim-generation rules over the source (vectorized path)."""
        return bulk_build_claim_matrix(self.iter_triples())

    def to_dataset(self, name: str | None = None) -> TruthDataset:
        """Materialise a labelled :class:`~repro.data.dataset.TruthDataset`.

        Uses the source's :meth:`labels` (when present) to label the facts
        derived from its triples.  Sources that natively hold a richer
        dataset (JSON dumps, the simulators) override this to return it.
        """
        return build_dataset(
            list(self.iter_triples()),
            truth=self.labels(),
            name=name if name is not None else self.schema().name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.schema()
        return f"{type(self).__name__}(name={info.name!r}, kind={info.kind!r})"
