"""Shared type aliases and small value objects used across the library.

The truth-finding data model (paper Section 2) speaks about *entities*,
*attribute values*, *sources*, *facts* and *claims*.  This module pins down
the Python representations used throughout :mod:`repro` so that every
subpackage agrees on what those objects look like.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Union

from repro.exceptions import DataModelError

__all__ = [
    "EntityKey",
    "AttributeValue",
    "SourceName",
    "FactId",
    "SourceId",
    "Observation",
    "TruthLabel",
    "Triple",
    "ClaimBatch",
    "as_triple",
    "triple_columns",
]

# An entity key identifies the real-world object a fact is about, e.g. a book
# ISBN or a movie title.  Any hashable string-like key works.
EntityKey = str

# A single value of the (multi-valued) attribute type under integration,
# e.g. one author name or one director name.
AttributeValue = Union[str, float, int]

# Human readable name of a data source, e.g. "imdb" or "netflix".
SourceName = str

# Integer primary keys assigned by the data model when building fact/claim
# tables.  Fact ids are dense indices in ``range(num_facts)`` and source ids
# are dense indices in ``range(num_sources)``.
FactId = int
SourceId = int

# A claim observation: True means the source asserted the fact (positive
# claim), False means the source asserted the entity but not this fact
# (negative claim).
Observation = bool

# A truth label for a fact.
TruthLabel = bool


class Triple(NamedTuple):
    """One row of the raw input database: ``(entity, attribute, source)``.

    This mirrors Definition 1 of the paper: each row states that ``source``
    asserted that ``entity`` has attribute value ``attribute``.  It unpacks,
    hashes, compares and pickles like the plain tuple, so every entry point
    accepts either form under one row rule (:func:`as_triple`).

    Attributes
    ----------
    entity:
        Key identifying the entity the assertion is about.
    attribute:
        The asserted attribute value (one element of the multi-valued
        attribute type).
    source:
        Name of the data source making the assertion.
    """

    entity: EntityKey
    attribute: AttributeValue
    source: SourceName

    def as_tuple(self) -> tuple[EntityKey, AttributeValue, SourceName]:
        """Return the triple as a plain ``(entity, attribute, source)`` tuple."""
        return tuple(self)


@dataclass(frozen=True)
class ClaimBatch:
    """One batch of raw triples arriving together.

    Attributes
    ----------
    index:
        Zero-based batch sequence number.
    triples:
        The raw rows in the batch: :class:`Triple` or any other
        ``(entity, attribute, source)`` sequence.
    """

    index: int
    triples: tuple[Triple, ...]

    @property
    def entities(self) -> list[str]:
        """Distinct entities mentioned in the batch, in first-seen order."""
        return list(dict.fromkeys(row[0] for row in self.triples))

    def __len__(self) -> int:
        return len(self.triples)


def as_triple(row: Any) -> Triple:
    """The row rule, per row: ``row`` as a ``Triple``, or ``DataModelError``.

    A raw row is a ``Triple`` or any other sequence of exactly three
    fields, none of them ``None``.  Fields are read by index, like
    :func:`triple_columns`, so a mapping or a set is not a row.
    """
    try:
        if len(row) != 3:
            raise TypeError
        # tuple.__new__ skips the NamedTuple's Python-level __new__ (per row).
        triple = tuple.__new__(Triple, (row[0], row[1], row[2]))
    except (TypeError, LookupError):
        raise DataModelError(
            f"expected (entity, attribute, source) triples that support indexing, got {row!r}"
        ) from None
    if None in triple:
        raise DataModelError(f"raw triple fields must not be None, got {row!r}")
    return triple


def triple_columns(rows: Iterable[Any]) -> tuple[list, list, list]:
    """The row rule, by columns: ``(entities, attributes, sources)`` of ``rows``.

    The checks of :func:`as_triple` run as C-level passes over the whole
    block, with no object built per row; a bad row raises
    ``DataModelError`` naming the first offender.
    """
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    if not rows:
        return [], [], []
    try:
        if set(map(len, rows)) == {3}:
            columns = tuple(list(map(itemgetter(i), rows)) for i in range(3))
            if not any(None in column for column in columns):
                return columns  # type: ignore[return-value]
    except (TypeError, LookupError):
        pass
    for row in rows:  # bad input only: name the first offending row
        as_triple(row)
    raise DataModelError("expected (entity, attribute, source) triples that support indexing")
