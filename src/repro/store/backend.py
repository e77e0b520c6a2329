"""The SQLite connection behind the out-of-core claim store.

:class:`SQLiteBackend` wraps the one stdlib ``sqlite3`` connection a
:class:`~repro.store.claims.ClaimStore` owns: execute, batched
``executemany``, chunked row streaming and transactions, with every
``sqlite3.Error`` raised as :class:`~repro.exceptions.StoreError`.  It is
append-optimised with WAL journaling, so concurrent readers (shard workers,
a serving fit) stream index ranges while a single writer appends.

Schema DDL and versioning live with the store that owns the tables
(:mod:`repro.store.claims`); the backend is storage, not schema.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.exceptions import StoreError

__all__ = ["SQLiteBackend"]

#: Rows fetched per round-trip when streaming a query result.
DEFAULT_CHUNK_ROWS = 4096


class SQLiteBackend:
    """The claim store's stdlib ``sqlite3`` connection.

    Opened connections are tuned for the claim store's append-heavy,
    scan-heavy workload:

    * ``journal_mode=WAL`` — appends do not block index-range readers (and a
      read-only worker never blocks the writer);
    * ``synchronous=NORMAL`` — fsync per WAL checkpoint, not per commit (the
      standard WAL pairing; an OS crash can lose the tail of the log but
      never corrupts the store);
    * a larger page cache for index scans.

    Parameters
    ----------
    path:
        Database file (created on first write), or ``":memory:"`` for an
        ephemeral in-memory store (tests).
    read_only:
        Open via SQLite's ``mode=ro`` URI — writes fail, the file must
        exist, and many processes can scan the same store concurrently
        (how shard workers read their entity ranges).
    timeout:
        Seconds a statement waits on a locked database before failing.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        read_only: bool = False,
        timeout: float = 30.0,
    ):
        self.path = str(path)
        self.read_only = bool(read_only)
        if self.path == ":memory:":
            if read_only:
                raise StoreError("an in-memory store cannot be opened read-only")
            target, uri = self.path, False
        elif read_only:
            if not Path(self.path).exists():
                raise StoreError(f"claim store {self.path!r} does not exist")
            target, uri = f"file:{Path(self.path).as_posix()}?mode=ro", True
        else:
            target, uri = self.path, False
        try:
            self._connection: sqlite3.Connection | None = sqlite3.connect(
                target, timeout=timeout, uri=uri, isolation_level=None
            )
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open claim store {self.path!r}: {exc}") from exc
        cursor = self._connection.cursor()
        try:
            if not read_only and self.path != ":memory:":
                cursor.execute("PRAGMA journal_mode=WAL")
                cursor.execute("PRAGMA synchronous=NORMAL")
            cursor.execute("PRAGMA cache_size=-16384")  # 16 MiB of pages
        finally:
            cursor.close()

    # -- DB-API surface ---------------------------------------------------------------
    def _require_connection(self) -> sqlite3.Connection:
        if self._connection is None:
            raise StoreError(f"claim store {self.path!r} is closed")
        return self._connection

    def execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        try:
            return self._require_connection().execute(sql, params)
        except sqlite3.Error as exc:
            raise StoreError(f"claim store {self.path!r}: {exc}") from exc

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> None:
        try:
            self._require_connection().executemany(sql, rows).close()
        except sqlite3.Error as exc:
            raise StoreError(f"claim store {self.path!r}: {exc}") from exc

    def commit(self) -> None:
        try:
            self._require_connection().commit()
        except sqlite3.Error as exc:
            raise StoreError(f"claim store {self.path!r}: {exc}") from exc

    def rollback(self) -> None:
        if self._connection is not None:
            self._connection.rollback()

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def fetch_one(self, sql: str, params: Sequence[Any] = ()) -> tuple | None:
        """Run ``sql`` and return its first row (or ``None``)."""
        cursor = self.execute(sql, params)
        try:
            return cursor.fetchone()
        finally:
            cursor.close()

    def iter_rows(
        self,
        sql: str,
        params: Sequence[Any] = (),
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> Iterator[tuple]:
        """Stream the result of ``sql`` in ``chunk_rows``-sized fetches.

        This is the out-of-core read path: peak memory is one fetch chunk,
        never the full result set.
        """
        cursor = self.execute(sql, params)
        try:
            while True:
                rows = cursor.fetchmany(chunk_rows)
                if not rows:
                    return
                yield from rows
        finally:
            cursor.close()

    def begin(self) -> None:
        """Open an explicit transaction.

        Connections run in autocommit between transactions (so PRAGMAs and
        VACUUM work unwrapped); :meth:`transaction` brackets multi-statement
        work with an explicit ``BEGIN`` to make it atomic.
        """
        self.execute("BEGIN").close()

    @contextmanager
    def transaction(self) -> Iterator["SQLiteBackend"]:
        """Group statements into one transaction (commit / rollback on error)."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        self.commit()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "ro" if self.read_only else "rw"
        return f"SQLiteBackend(path={self.path!r}, mode={mode!r})"
