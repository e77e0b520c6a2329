"""The storage engine: a small in-memory table tier plus an out-of-core tier.

The truth-finding pipeline of the paper is expressed over relational tables:
the *raw database* of ``(entity, attribute, source)`` triples (Table 1), the
*fact table* (Table 2), the *claim table* (Table 3) and the *truth table*
(Table 4).  This subpackage provides both tiers those tables live on:

* an **in-memory tier** — typed :class:`Schema`/:class:`Column` definitions,
  a :class:`Table` of schema-validated rows with an optional unique key, and
  a :class:`Database` of named tables.  It backs the debug workspace of
  :func:`repro.pipeline.run_integration`, relational input through
  :class:`repro.io.sources.TableSource`, and
  :class:`repro.data.raw.RawDatabase`; and
* an **out-of-core tier** — :class:`ClaimStore`, a disk-backed (SQLite by
  default, pluggable via :class:`StorageBackend`) append-only claim log with
  covering entity/source indexes and windowed retention, so corpora that do
  not fit in RAM stream through fit, shard, and serve via
  :class:`repro.io.store_source.StoreSource`.

Both tiers fail loudly: schema violations, duplicate keys, unknown columns
and version mismatches raise library exceptions rather than silently
corrupting state.
"""

from repro.store.schema import Column, Schema
from repro.store.table import Table
from repro.store.database import Database
from repro.store.backend import SQLiteBackend, StorageBackend
from repro.store.claims import SCHEMA_VERSION, ClaimStore

__all__ = [
    "Column",
    "Schema",
    "Table",
    "Database",
    "StorageBackend",
    "SQLiteBackend",
    "ClaimStore",
    "SCHEMA_VERSION",
]
