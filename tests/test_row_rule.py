"""The one row rule: every entry point that takes raw rows checks them alike.

A raw row (Definition 1) is a :class:`~repro.types.Triple` or any other
sequence of exactly three fields, read by index, none of them ``None``.
Every entry point raises :class:`~repro.exceptions.DataModelError` for a row
that breaks the rule, and leaves the state it would have changed untouched.
"""

import pickle

import pytest

from repro import TruthEngine
from repro.data.claim_builder import bulk_build_claim_matrix
from repro.data.raw import RawDatabase
from repro.exceptions import DataModelError
from repro.io.sources import MemorySource
from repro.parallel import ShardPlanner
from repro.store import ClaimStore
from repro.types import Triple, as_triple, triple_columns

ROWS = [(f"e{i}", f"v{i % 3}", f"s{j}") for i in range(6) for j in range(3)]
GOOD = ("e99", "v0", "s0")
BAD_ROWS = {
    "four_fields": ("e", "a", "s", "extra"),
    "two_fields": ("e", "a"),
    "none_field": ("e", None, "s"),
    "not_a_sequence": 42,
    "mapping": {"entity": "e", "attribute": "a", "source": "s"},
}

ENTRY_POINTS = {
    "ingest": lambda state, rows: state["engine"].ingest(rows),
    "fit": lambda state, rows: state["engine"].fit(rows),
    "partial_fit": lambda state, rows: state["engine"].partial_fit(rows),
    "predict_proba": lambda state, rows: state["engine"].predict_proba(rows),
    "bulk_build_claim_matrix": lambda state, rows: bulk_build_claim_matrix(rows),
    "MemorySource": lambda state, rows: MemorySource(rows),
    "RawDatabase": lambda state, rows: RawDatabase(rows),
    "RawDatabase.add": lambda state, rows: state["raw"].add(rows[-1]),
    "ClaimStore.append": lambda state, rows: state["store"].append(rows),
    "ShardPlanner.plan": lambda state, rows: ShardPlanner(2).plan(rows),
}


@pytest.fixture
def state():
    engine = TruthEngine(method="ltm", params={"iterations": 5, "seed": 0}).fit(ROWS)
    with ClaimStore() as store:
        store.append(ROWS)
        yield {"engine": engine, "raw": RawDatabase(ROWS), "store": store}


def _snapshot(state):
    engine = state["engine"]
    return (
        list(engine._history),
        dict(engine.fact_scores),
        len(engine.reports),
        len(state["store"]),
        list(state["raw"]),
    )


@pytest.mark.parametrize("bad", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_bad_row_raises_data_model_error_and_changes_nothing(state, entry, bad):
    before = _snapshot(state)
    with pytest.raises(DataModelError):
        entry(state, [GOOD, bad])
    assert _snapshot(state) == before


class TestTriple:
    def test_is_the_plain_tuple(self):
        triple = Triple("e", "a", "s")
        entity, attribute, source = triple
        assert (entity, attribute, source) == triple == ("e", "a", "s")
        assert hash(triple) == hash(("e", "a", "s"))
        assert triple.as_tuple() == ("e", "a", "s")
        assert type(triple.as_tuple()) is tuple
        assert pickle.loads(pickle.dumps(triple)) == triple
        assert triple._replace(source="t") == ("e", "a", "t")

    def test_as_triple_accepts_any_three_sequence(self):
        assert as_triple(["e", "a", "s"]) == Triple("e", "a", "s")
        assert as_triple(Triple("e", 1.5, "s")).attribute == 1.5

    def test_triple_columns_splits_mixed_rows(self):
        rows = [Triple("e1", "a", "s"), ("e2", "b", "t"), ["e3", "c", "u"]]
        assert triple_columns(rows) == (["e1", "e2", "e3"], ["a", "b", "c"], ["s", "t", "u"])
        assert triple_columns(iter(rows))[0] == ["e1", "e2", "e3"]
        assert triple_columns([]) == ([], [], [])

    def test_triple_columns_names_the_offending_row(self):
        with pytest.raises(DataModelError, match="'x', 'y'"):
            triple_columns([GOOD, GOOD, ("x", "y")])
        with pytest.raises(DataModelError, match="support indexing"):
            triple_columns([GOOD, {"e", "a", "s"}])
