"""Unit tests for repro.store.table."""

import pytest

from repro.exceptions import DuplicateKeyError, SchemaError
from repro.store import Column, Schema, Table


@pytest.fixture
def people_table() -> Table:
    schema = Schema(
        columns=(Column("name", str), Column("team", str), Column("age", int)),
        key=("name",),
    )
    table = Table("people", schema)
    table.insert({"name": "ada", "team": "red", "age": 36})
    table.insert({"name": "bob", "team": "blue", "age": 29})
    table.insert({"name": "cat", "team": "red", "age": 41})
    return table


class TestTable:
    def test_len_and_iteration(self, people_table):
        assert len(people_table) == 3
        assert [row["name"] for row in people_table] == ["ada", "bob", "cat"]

    def test_getitem(self, people_table):
        assert people_table[1]["name"] == "bob"

    def test_insert_returns_position(self, people_table):
        position = people_table.insert({"name": "dan", "team": "blue", "age": 22})
        assert position == 3

    def test_duplicate_key_rejected(self, people_table):
        with pytest.raises(DuplicateKeyError):
            people_table.insert({"name": "ada", "team": "blue", "age": 99})

    def test_schema_violation_rejected(self, people_table):
        with pytest.raises(SchemaError):
            people_table.insert({"name": "eve", "team": "red", "age": "old"})

    def test_get_by_key(self, people_table):
        assert people_table.get("ada")["age"] == 36
        assert people_table.get(("bob",))["team"] == "blue"
        assert people_table.get("zzz") is None

    def test_contains_key(self, people_table):
        assert people_table.contains_key("cat")
        assert not people_table.contains_key("dog")

    def test_insert_many(self, people_table):
        positions = people_table.insert_many(
            [{"name": "dan", "team": "blue", "age": 22}, {"name": "eve", "team": "red", "age": 30}]
        )
        assert positions == [3, 4]
