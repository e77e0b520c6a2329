"""The storage engine: a small in-memory table tier plus an out-of-core tier.

* an **in-memory tier** — typed :class:`Schema`/:class:`Column` definitions
  and a :class:`Table` of schema-validated rows with an optional unique key.
  It holds the rows of :class:`repro.data.raw.RawDatabase`, the paper's raw
  database of ``(entity, attribute, source)`` triples (Table 1); and
* an **out-of-core tier** — :class:`ClaimStore`, a disk-backed (SQLite,
  via :class:`SQLiteBackend`) append-only claim log with
  covering entity/source indexes and windowed retention, so corpora that do
  not fit in RAM stream through fit, shard, and serve via
  :class:`repro.io.store_source.StoreSource`.

Both tiers fail loudly: schema violations, duplicate keys, unknown columns
and version mismatches raise library exceptions rather than silently
corrupting state.
"""

from repro.store.schema import Column, Schema
from repro.store.table import Table
from repro.store.backend import SQLiteBackend
from repro.store.claims import SCHEMA_VERSION, ClaimStore

__all__ = [
    "Column",
    "Schema",
    "Table",
    "SQLiteBackend",
    "ClaimStore",
    "SCHEMA_VERSION",
]
