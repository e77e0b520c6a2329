"""Disk-backed, append-only claim store with indexed entity scans.

This is the out-of-core tier of the storage engine: :class:`ClaimStore`
holds a corpus too large for memory.  Triples land in an
append-only ``claims`` log (one *generation* per ``append`` call) with
covering indexes on entity and source, so the two access patterns the LTM
pipeline needs —

* full-corpus replay in ingest order (``iter_triples``), and
* entity-grouped range reads (``iter_entities`` / ``entity_triples``), the
  scans :class:`~repro.io.store_source.StoreSource` and the shard planner
  stream instead of materialising the corpus —

are both pure index scans, never an in-memory sort.  Windowed retention
(:meth:`ClaimStore.compact`) evicts old generations so streaming re-fits run
against a bounded working set.

The schema is versioned (``store_meta.schema_version``) and lives here, with
the store that owns it; raw connection handling lives in
:mod:`repro.store.backend`.
"""

from __future__ import annotations

import time
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import StoreError
from repro.obs import engine_metrics, get_tracer
from repro.store.backend import DEFAULT_CHUNK_ROWS, SQLiteBackend
from repro.types import EntityKey, Triple, triple_columns

__all__ = ["ClaimStore", "SCHEMA_VERSION"]

#: Current on-disk schema version, recorded in ``store_meta``.
SCHEMA_VERSION = 1

#: Rows per ``executemany`` flush during ingest.
DEFAULT_APPEND_BATCH = 10_000

# ``seq`` is assigned explicitly by the single writer so replay order is the
# store's own fact, not an autoincrement implementation detail.  Attribute
# values are stored as text (matching the file-source convention that CSV
# round-trips stringify values) so scans are deterministic across drivers
# regardless of column affinity.
_SCHEMA_DDL = (
    """
    CREATE TABLE IF NOT EXISTS store_meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS claims (
        seq INTEGER PRIMARY KEY,
        entity TEXT NOT NULL,
        attribute TEXT NOT NULL,
        source TEXT NOT NULL,
        generation INTEGER NOT NULL,
        ingested_at REAL NOT NULL
    )
    """,
    # Covering index: an entity range read never touches the base table.
    """
    CREATE INDEX IF NOT EXISTS idx_claims_entity
        ON claims(entity, seq, attribute, source)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_claims_source
        ON claims(source, seq)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_claims_generation
        ON claims(generation)
    """,
    # First-seen entity order as a materialised fact: ``ORDER BY first_seq``
    # over this covering index is an index scan, so batch order matches the
    # in-memory sources without ever sorting triples.
    """
    CREATE TABLE IF NOT EXISTS entities (
        entity TEXT PRIMARY KEY,
        first_seq INTEGER NOT NULL
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_entities_first_seq
        ON entities(first_seq, entity)
    """,
)


class ClaimStore:
    """Append-only relational store of ``(entity, attribute, source)`` claims.

    Parameters
    ----------
    path:
        SQLite database file (``":memory:"`` for tests).
    read_only:
        Open for concurrent scanning only (shard workers); writes raise.
    """

    def __init__(self, path: str | Path = ":memory:", *, read_only: bool = False):
        self.path = str(path)
        self.read_only = bool(read_only)
        self._backend = SQLiteBackend(self.path, read_only=read_only)
        if read_only:
            self._check_schema_version()
        else:
            self._ensure_schema()

    # -- schema ------------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        with self._backend.transaction() as txn:
            for statement in _SCHEMA_DDL:
                txn.execute(statement)
            row = txn.fetch_one(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            )
            if row is None:
                txn.execute(
                    "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            else:
                self._migrate(int(row[0]))

    def _check_schema_version(self) -> None:
        try:
            row = self._backend.fetch_one(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            )
        except StoreError as exc:
            # e.g. a foreign SQLite file without the store_meta table.
            raise StoreError(
                f"{self.path!r} is not a claim store (no store_meta): {exc}"
            ) from exc
        if row is None:
            raise StoreError(f"{self.path!r} is not a claim store (no store_meta)")
        self._migrate(int(row[0]))

    def _migrate(self, found: int) -> None:
        # Single-version schema today; the hook is where v(N) -> v(N+1)
        # upgrades slot in without changing callers.
        if found != SCHEMA_VERSION:
            raise StoreError(
                f"claim store {self.path!r} has schema version {found}, "
                f"this build supports version {SCHEMA_VERSION}"
            )

    # -- ingest ------------------------------------------------------------------------
    def append(
        self,
        triples: Iterable[Triple | Sequence[object]],
        *,
        batch_size: int = DEFAULT_APPEND_BATCH,
    ) -> int:
        """Append ``triples`` as one new generation; return the row count.

        The iterable is consumed streamingly — at most ``batch_size`` rows
        are buffered between ``executemany`` flushes, so a generator over an
        arbitrarily large corpus never materialises.  Duplicate triples are
        kept (the log records assertions; claim-matrix construction dedups),
        and attribute values are stringified exactly as the CSV round-trip
        does.  A row breaking the row rule (:func:`~repro.types.as_triple`)
        raises ``DataModelError`` and rolls the whole call back.
        """
        if self.read_only:
            raise StoreError(f"claim store {self.path!r} is read-only")
        if batch_size <= 0:
            raise StoreError(f"batch_size must be positive, got {batch_size}")
        tracer = get_tracer()
        span_start = tracer.now()
        started = time.perf_counter()
        generation = self.latest_generation() + 1
        next_seq = self._next_seq()
        now = time.time()
        appended = 0
        insert_sql = (
            "INSERT INTO claims (seq, entity, attribute, source, generation,"
            " ingested_at) VALUES (?, ?, ?, ?, ?, ?)"
        )
        entity_sql = (
            "INSERT OR IGNORE INTO entities (entity, first_seq) VALUES (?, ?)"
        )
        rows = iter(triples)
        with self._backend.transaction() as txn:
            while chunk := list(islice(rows, batch_size)):
                entities, attributes, sources = triple_columns(chunk)
                entities = list(map(str, entities))
                seqs = range(next_seq + appended, next_seq + appended + len(chunk))
                txn.executemany(insert_sql, zip(
                    seqs, entities, map(str, attributes), map(str, sources),
                    repeat(generation), repeat(now),
                ))
                txn.executemany(entity_sql, zip(entities, seqs))
                appended += len(chunk)
        metrics = engine_metrics()
        metrics.store_rows.inc(appended, op="append")
        metrics.store_op_seconds.observe(time.perf_counter() - started, op="append")
        if tracer.enabled:
            tracer.record(
                "store.append",
                span_start,
                end=tracer.now(),
                path=self.path,
                rows=appended,
                generation=generation,
            )
        return appended

    def _next_seq(self) -> int:
        row = self._backend.fetch_one("SELECT MAX(seq) FROM claims")
        return 0 if row is None or row[0] is None else int(row[0]) + 1

    def latest_generation(self) -> int:
        """Highest generation currently in the log (0 when empty)."""
        row = self._backend.fetch_one("SELECT MAX(generation) FROM claims")
        return 0 if row is None or row[0] is None else int(row[0])

    # -- scans -------------------------------------------------------------------------
    def __len__(self) -> int:
        row = self._backend.fetch_one("SELECT COUNT(*) FROM claims")
        return 0 if row is None else int(row[0])

    def iter_triples(self, *, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Triple]:
        """Replay the log in ingest (``seq``) order, streaming in chunks."""
        rows = self._backend.iter_rows(
            "SELECT entity, attribute, source FROM claims ORDER BY seq", chunk_rows=chunk_size
        )
        return map(Triple._make, rows)

    def iter_entities(self, *, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[EntityKey]:
        """Stream distinct entities in first-seen order (covering index scan)."""
        for (entity,) in self._backend.iter_rows(
            "SELECT entity FROM entities ORDER BY first_seq",
            chunk_rows=chunk_size,
        ):
            yield entity

    def num_entities(self) -> int:
        row = self._backend.fetch_one("SELECT COUNT(*) FROM entities")
        return 0 if row is None else int(row[0])

    def triples_of(self, entity: EntityKey) -> list[Triple]:
        """All claims about one entity, in ingest order (index range read)."""
        rows = self._backend.iter_rows(
            "SELECT entity, attribute, source FROM claims WHERE entity = ? ORDER BY seq",
            (str(entity),),
        )
        return list(map(Triple._make, rows))

    def entity_triples(self, entities: Sequence[EntityKey]) -> list[Triple]:
        """Claims for a shard's entity list, grouped per entity.

        Each entity resolves through one ``idx_claims_entity`` range read;
        concatenation order follows the given ``entities`` order, matching
        how the in-memory planner lays out a shard's triples.
        """
        return [triple for entity in entities for triple in self.triples_of(entity)]

    def generations(self) -> list[Mapping[str, object]]:
        """Per-generation row counts and ingest timestamps, oldest first."""
        return [
            {
                "generation": int(gen),
                "rows": int(rows),
                "ingested_at": float(stamp),
            }
            for gen, rows, stamp in self._backend.iter_rows(
                "SELECT generation, COUNT(*), MIN(ingested_at) FROM claims"
                " GROUP BY generation ORDER BY generation"
            )
        ]

    def stats(self) -> Mapping[str, object]:
        """Summary counters for ``repro-truth store stats``."""
        sources = self._backend.fetch_one("SELECT COUNT(DISTINCT source) FROM claims")
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "triples": len(self),
            "entities": self.num_entities(),
            "sources": 0 if sources is None else int(sources[0]),
            "generations": self.latest_generation(),
        }

    # -- retention ---------------------------------------------------------------------
    def compact(
        self,
        *,
        keep_last: int | None = None,
        older_than: float | None = None,
    ) -> int:
        """Evict old claims and reclaim space; return rows deleted.

        ``keep_last=N`` keeps only the N most recent generations (windowed
        retention for streaming re-fits); ``older_than=T`` drops rows whose
        ``ingested_at`` is before the UNIX timestamp ``T`` (time-window
        eviction).  Passing both applies both cuts.  The ``entities``
        first-seen table is rebuilt from the surviving log so batch order
        stays consistent, then the file is vacuumed.
        """
        if self.read_only:
            raise StoreError(f"claim store {self.path!r} is read-only")
        if keep_last is None and older_than is None:
            raise StoreError("compact() needs keep_last and/or older_than")
        if keep_last is not None and keep_last < 1:
            raise StoreError(f"keep_last must be >= 1, got {keep_last}")
        tracer = get_tracer()
        span_start = tracer.now()
        started = time.perf_counter()
        deleted = 0
        with self._backend.transaction() as txn:
            if keep_last is not None:
                cutoff = self.latest_generation() - keep_last
                cursor = txn.execute(
                    "DELETE FROM claims WHERE generation <= ?", (cutoff,)
                )
                deleted += cursor.rowcount
                cursor.close()
            if older_than is not None:
                cursor = txn.execute(
                    "DELETE FROM claims WHERE ingested_at < ?", (float(older_than),)
                )
                deleted += cursor.rowcount
                cursor.close()
            txn.execute("DELETE FROM entities")
            txn.execute(
                "INSERT INTO entities (entity, first_seq)"
                " SELECT entity, MIN(seq) FROM claims GROUP BY entity"
            )
        if deleted:
            self._backend.execute("VACUUM").close()
        metrics = engine_metrics()
        metrics.store_rows.inc(deleted, op="deleted")
        metrics.store_op_seconds.observe(time.perf_counter() - started, op="compact")
        if tracer.enabled:
            tracer.record(
                "store.compact", span_start, end=tracer.now(), path=self.path, rows=deleted
            )
        return deleted

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "ClaimStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "ro" if self.read_only else "rw"
        return f"ClaimStore(path={self.path!r}, mode={mode!r})"
