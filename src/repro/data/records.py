"""Value objects of the truth-finding data model: facts and sources."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import AttributeValue, EntityKey, FactId, SourceId, SourceName

__all__ = ["Fact", "SourceRecord"]


@dataclass(frozen=True, slots=True)
class Fact:
    """A distinct ``(entity, attribute)`` pair (Definition 2 of the paper).

    Attributes
    ----------
    fact_id:
        Dense integer primary key assigned by the claim builder.
    entity:
        Entity key the fact is about.
    attribute:
        Attribute value the fact asserts for the entity.
    """

    fact_id: FactId
    entity: EntityKey
    attribute: AttributeValue

    @property
    def pair(self) -> tuple[EntityKey, AttributeValue]:
        """The ``(entity, attribute)`` pair identifying this fact."""
        return (self.entity, self.attribute)


@dataclass(slots=True)
class SourceRecord:
    """Metadata and running statistics for a single data source.

    Attributes
    ----------
    source_id:
        Dense integer id assigned by the claim builder.
    name:
        Human-readable source name from the raw database.
    num_positive_claims:
        Number of positive claims the source makes.
    num_negative_claims:
        Number of generated negative claims for the source.
    num_entities:
        Number of distinct entities the source asserts anything about.
    """

    source_id: SourceId
    name: SourceName
    num_positive_claims: int = 0
    num_negative_claims: int = 0
    num_entities: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def num_claims(self) -> int:
        """Total number of claims (positive + negative) for this source."""
        return self.num_positive_claims + self.num_negative_claims
