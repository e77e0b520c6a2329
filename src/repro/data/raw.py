"""The raw input database of ``(entity, attribute, source)`` triples.

:class:`RawDatabase` corresponds to Definition 1 of the paper: a set of unique
rows, each stating that a *source* asserted an *attribute value* for an
*entity*.  It is a thin, validated collection built on the relational store,
with the lookups the claim builder needs (entities per source, sources per
entity, attributes per entity).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.exceptions import DuplicateRowError, EmptyDatasetError
from repro.store import Column, Schema, Table
from repro.types import AttributeValue, EntityKey, SourceName, Triple, as_triple

__all__ = ["RawDatabase"]

_RAW_SCHEMA = Schema(
    columns=(
        Column("entity", object),
        Column("attribute", object),
        Column("source", object),
    ),
    key=("entity", "attribute", "source"),
)


class RawDatabase:
    """A validated, de-duplicated collection of raw assertion triples.

    Parameters
    ----------
    triples:
        Optional initial triples.  Each may be a :class:`~repro.types.Triple`
        or any other ``(entity, attribute, source)`` sequence.
    strict:
        When true (the default) inserting an exact duplicate triple raises
        :class:`~repro.exceptions.DuplicateRowError`; when false duplicates
        are silently ignored (useful when ingesting noisy crawls).
    """

    def __init__(self, triples: Iterable[Triple | tuple] = (), strict: bool = True):
        self.strict = strict
        self._table = Table("raw_database", _RAW_SCHEMA)
        self._entity_sources: dict[EntityKey, set[SourceName]] = defaultdict(set)
        self._entity_attributes: dict[EntityKey, list[AttributeValue]] = defaultdict(list)
        self._source_entities: dict[SourceName, set[EntityKey]] = defaultdict(set)
        self._seen: set[tuple[EntityKey, AttributeValue, SourceName]] = set()
        for triple in triples:
            self.add(triple)

    # -- construction ------------------------------------------------------------
    def add(self, triple: Triple | tuple) -> bool:
        """Add one triple; return ``True`` if it was new.

        Raises
        ------
        DataModelError
            If the row breaks the row rule of :func:`~repro.types.as_triple`.
        DuplicateRowError
            If the triple already exists and ``strict`` is true.
        """
        key = entity, attribute, source = as_triple(triple)
        if key in self._seen:
            if self.strict:
                raise DuplicateRowError(f"duplicate raw triple {key!r}")
            return False
        self._seen.add(key)
        self._table.insert({"entity": entity, "attribute": attribute, "source": source})
        self._entity_sources[entity].add(source)
        self._source_entities[source].add(entity)
        if attribute not in self._entity_attributes[entity]:
            self._entity_attributes[entity].append(attribute)
        return True

    def extend(self, triples: Iterable[Triple | tuple]) -> int:
        """Add many triples; return the number of new rows."""
        return sum(1 for triple in triples if self.add(triple))

    # -- introspection -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Triple]:
        for row in self._table:
            yield Triple(row["entity"], row["attribute"], row["source"])

    def __contains__(self, triple: object) -> bool:
        return isinstance(triple, tuple) and triple in self._seen

    @property
    def table(self) -> Table:
        """The underlying relational table of triples."""
        return self._table

    @property
    def entities(self) -> list[EntityKey]:
        """Distinct entities, in first-seen order."""
        return list(self._entity_attributes)

    @property
    def sources(self) -> list[SourceName]:
        """Distinct sources, in first-seen order."""
        return list(self._source_entities)

    @property
    def num_entities(self) -> int:
        """Number of distinct entities."""
        return len(self._entity_attributes)

    @property
    def num_sources(self) -> int:
        """Number of distinct sources."""
        return len(self._source_entities)

    def attributes_of(self, entity: EntityKey) -> list[AttributeValue]:
        """Distinct attribute values asserted for ``entity`` (first-seen order)."""
        return list(self._entity_attributes.get(entity, ()))

    def sources_of(self, entity: EntityKey) -> set[SourceName]:
        """Sources that asserted at least one attribute for ``entity``."""
        return set(self._entity_sources.get(entity, set()))

    def entities_of(self, source: SourceName) -> set[EntityKey]:
        """Entities that ``source`` asserted at least one attribute for."""
        return set(self._source_entities.get(source, set()))

    def triples_of(self, entity: EntityKey) -> list[Triple]:
        """All triples about ``entity``."""
        return [t for t in self if t.entity == entity]

    def restrict_to_entities(self, entities: Iterable[EntityKey]) -> "RawDatabase":
        """Return a new raw database containing only triples about ``entities``."""
        wanted = set(entities)
        return RawDatabase(
            (t for t in self if t.entity in wanted),
            strict=self.strict,
        )

    def require_non_empty(self) -> None:
        """Raise :class:`~repro.exceptions.EmptyDatasetError` if empty."""
        if len(self) == 0:
            raise EmptyDatasetError("the raw database contains no triples")

    def summary(self) -> dict[str, int]:
        """Basic size statistics of the raw database."""
        return {
            "triples": len(self),
            "entities": self.num_entities,
            "sources": self.num_sources,
        }
