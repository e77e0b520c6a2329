"""Unit tests for repro.store.database, the named-table workspace."""

import pytest

from repro.exceptions import StoreError
from repro.store import Database, Schema, Table


class TestDatabase:
    def test_create_and_fetch_table(self):
        db = Database("test")
        table = db.create_table("t", Schema.of(["a"]))
        assert db.table("t") is table
        assert "t" in db
        assert len(db) == 1

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", Schema.of(["a"]))
        with pytest.raises(StoreError):
            db.create_table("t", Schema.of(["a"]))

    def test_replace_table(self):
        db = Database()
        db.create_table("t", Schema.of(["a"]))
        replacement = db.create_table("t", Schema.of(["b"]), replace=True)
        assert db.table("t") is replacement

    def test_unknown_table(self):
        db = Database()
        with pytest.raises(StoreError):
            db.table("missing")

    def test_drop_table(self):
        db = Database()
        db.create_table("t", Schema.of(["a"]))
        db.drop_table("t")
        assert "t" not in db
        db.drop_table("t")  # idempotent

    def test_attach_existing_table(self):
        db = Database()
        table = Table("external", Schema.of(["a"]))
        db.attach(table)
        assert db.table("external") is table
        with pytest.raises(StoreError):
            db.attach(Table("external", Schema.of(["a"])))

    def test_summary(self):
        db = Database()
        t = db.create_table("t", Schema.of([("a", int)]))
        t.insert({"a": 1})
        assert db.summary() == {"t": 1}
        assert db.table_names == ["t"]
