"""`StoreSource`: stream an out-of-core :class:`~repro.store.claims.ClaimStore`.

This is the :class:`~repro.io.base.DataSource` face of the disk tier
(:mod:`repro.store.claims`): corpora that do not fit in RAM enter ``fit``,
``partial_fit`` and the shard planner through it without ever materialising.

Three properties make it out-of-core rather than merely file-backed:

* ``iter_triples`` replays the claim log through chunked cursor fetches —
  peak memory is one fetch chunk;
* ``iter_batches(by_entity=True)`` streams **indexed entity ranges**: the
  source supplies only its entity keys — from the store's first-seen
  covering index (an ``ORDER BY first_seq`` index scan, never an in-memory
  sort of triples) — and a chunk read by per-entity index ranges; the
  ordering, seeded shuffle and chunk loop are the shared
  :class:`~repro.io.base.DataSource` ones, so batch sequences are
  bit-identical to :class:`~repro.io.sources.MemorySource` over the same
  triples;
* the same indexed scans let :meth:`~repro.parallel.ShardPlanner.plan`
  partition an on-disk store by streaming entity keys, and let each shard
  worker open the store read-only and fetch only its own entities.

Construct directly, via ``as_source("store:///path/to/claims.db")``, or by
registering the store in the :class:`~repro.io.catalog.DatasetCatalog` with
:meth:`~repro.io.catalog.DatasetCatalog.register_store`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.exceptions import StreamError
from repro.io.base import DataSource, SourceSchema
from repro.store.claims import ClaimStore
from repro.types import EntityKey, Triple

__all__ = ["StoreSource"]


class StoreSource(DataSource):
    """A :class:`DataSource` over a disk-backed claim store.

    Parameters
    ----------
    store:
        An open :class:`~repro.store.claims.ClaimStore`, or a path to one
        (opened read-only when given as a path — scanning never needs write
        access, and read-only handles can be shared across shard workers).
    name:
        Dataset name reported by :meth:`schema`; defaults to the store's
        file stem.
    chunk_size:
        Rows per cursor fetch when replaying the full log.
    """

    streams = True

    def __init__(
        self,
        store: ClaimStore | str | Path,
        *,
        name: str | None = None,
        chunk_size: int = 4096,
    ):
        if isinstance(store, ClaimStore):
            self._store = store
            self._owns_store = False
        else:
            self._store = ClaimStore(store, read_only=True)
            self._owns_store = True
        if chunk_size <= 0:
            raise StreamError("chunk_size must be positive")
        self._chunk_size = chunk_size
        stem = Path(self._store.path).stem or "claims"
        self._name = name if name is not None else stem

    @property
    def store(self) -> ClaimStore:
        """The underlying claim store (for stats/compaction by the owner)."""
        return self._store

    # -- DataSource surface -----------------------------------------------------------
    def schema(self) -> SourceSchema:
        stats = self._store.stats()
        return SourceSchema(
            name=self._name,
            kind="store",
            num_triples=int(stats["triples"]),
            metadata={
                "path": self._store.path,
                "schema_version": stats["schema_version"],
                "entities": stats["entities"],
                "sources": stats["sources"],
                "generations": stats["generations"],
            },
        )

    def iter_triples(self) -> Iterator[Triple]:
        return self._store.iter_triples(chunk_size=self._chunk_size)

    def iter_entities(self) -> Iterator[EntityKey]:
        """First-seen entity order, streamed off the covering index."""
        return self._store.iter_entities(chunk_size=self._chunk_size)

    def entity_triples(self, entities: Sequence[EntityKey]) -> list[Triple]:
        """Indexed range reads: only the requested entities' triples load."""
        return self._store.entity_triples(entities)

    def _entity_index(
        self,
    ) -> tuple[Iterator[EntityKey], Callable[[list[EntityKey]], list[Triple]]]:
        """Entity keys streamed off the first-seen index, read by range per chunk.

        Unshuffled, each batch costs one
        :meth:`~repro.store.claims.ClaimStore.entity_triples` call and
        peak memory is one batch, regardless of corpus size; a shuffle
        collects the entity **keys** (and only the keys).
        """
        return self.iter_entities(), self._store.entity_triples

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Close the store handle if this source opened it."""
        if self._owns_store:
            self._store.close()

    def __enter__(self) -> "StoreSource":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoreSource(path={self._store.path!r}, name={self._name!r})"
