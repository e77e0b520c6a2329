"""Entity-sharded partitioning of a data source (the plan layer).

The LTM inference loop decomposes across entities: given per-source quality,
each entity's facts are scored independently, and the claim-generation rules
of Definitions 2-3 are themselves entity-local (a negative claim only ever
pairs a fact with sources covering the *same* entity).  Splitting a corpus by
entity therefore produces shard claim matrices that are exact row-subsets of
the single-shard matrix — the property every score-parity argument in
:mod:`repro.parallel.merge` rests on.

:class:`ShardPlanner` assigns each entity to one of ``num_shards`` shards via
the stable, seeded digest of :func:`repro.io.entity_partition_key` (never
Python's process-randomised ``hash()``), so the same entity lands on the same
shard in every process, on every machine, in every run.  An optional
``group_of`` callable routes *groups* of entities together — e.g. the cluster
assignment of :class:`~repro.extensions.entity_clusters.EntityClusteredLTM`,
whose cluster-specific quality estimation requires a cluster's entities to be
fitted in one shard.

A :class:`~repro.io.store_source.StoreSource` over an on-disk claim store is
planned by entity *keys* alone: the planner streams keys off the store's
first-seen index and records the store's path on the plan, and each worker
reads its own entities' triples from the store (the range-skipping read of
provenance-based data skipping).  Every other input is grouped by entity in
memory.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.exceptions import ConfigurationError
from repro.io.partition import entity_partition_key
from repro.types import EntityKey, Triple

__all__ = ["Shard", "ShardPlan", "ShardPlanner"]


@dataclass(frozen=True)
class Shard:
    """One shard of an entity-partitioned corpus.

    Attributes
    ----------
    index:
        Shard number in ``range(num_shards)``.
    entities:
        Entities routed to this shard, in first-seen order.
    triples:
        The shard's raw triples — all triples of its entities, grouped by
        entity in first-seen order.  Empty for a store plan, whose workers
        read the triples from the store.
    """

    index: int
    entities: tuple[EntityKey, ...]
    triples: tuple[Triple, ...]

    @property
    def num_triples(self) -> int:
        """Number of raw triples in the shard."""
        return len(self.triples)

    @property
    def num_entities(self) -> int:
        """Number of entities in the shard."""
        return len(self.entities)

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class ShardPlan:
    """The output of :meth:`ShardPlanner.plan`: one :class:`Shard` per slot.

    Shards may be empty when there are fewer entity groups than shards; the
    executor simply skips them.  Shard membership depends only on the entity
    keys, the seed and ``num_shards`` — never on arrival order — so
    re-planning the same corpus (or a superset streamed later) routes every
    known entity identically.

    ``store_path`` is set when the plan holds entity keys only: the triples
    stay in that claim store, and each worker reads its shard's entities
    from it read-only.
    """

    num_shards: int
    partition_seed: int
    shards: tuple[Shard, ...]
    store_path: str | None = None

    @property
    def num_triples(self) -> int:
        """Total triples across all shards."""
        return sum(shard.num_triples for shard in self.shards)

    @property
    def num_entities(self) -> int:
        """Total entities across all shards."""
        return sum(shard.num_entities for shard in self.shards)

    def non_empty(self) -> list[Shard]:
        """The shards that hold entities (hence triples), in index order."""
        return [shard for shard in self.shards if shard.num_entities]

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [shard.num_triples for shard in self.shards]
        return f"ShardPlan(num_shards={self.num_shards}, triples={sizes})"


class ShardPlanner:
    """Hash-partitions any data source into entity shards.

    Parameters
    ----------
    num_shards:
        Number of shards to produce.
    seed:
        Seed of the partitioning digest (see
        :func:`repro.io.entity_partition_key`); different seeds re-balance
        membership deterministically.
    group_of:
        Optional callable mapping an entity to a group label; entities
        sharing a label are guaranteed to land in the same shard (the label,
        not the entity, is hashed).  Use this to co-locate entity clusters
        whose quality must be estimated jointly.

    Examples
    --------
    >>> from repro.parallel import ShardPlanner
    >>> plan = ShardPlanner(2).plan("paper_example")
    >>> plan.num_shards
    2
    >>> plan.num_triples
    8
    """

    def __init__(
        self,
        num_shards: int,
        *,
        seed: int = 0,
        group_of: Callable[[EntityKey], Any] | None = None,
    ):
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        self.num_shards = int(num_shards)
        self.seed = int(seed)
        self.group_of = group_of

    def shard_of(self, entity: EntityKey) -> int:
        """The shard index ``entity`` is routed to (stable across runs)."""
        key = entity if self.group_of is None else self.group_of(entity)
        return entity_partition_key(key, seed=self.seed) % self.num_shards

    def plan(self, data: Any) -> ShardPlan:
        """Partition ``data`` into a :class:`ShardPlan`.

        ``data`` is anything :func:`repro.io.as_source` accepts — a
        :class:`~repro.io.DataSource`, a catalog key, a file path, a
        ``store://`` URL, a :class:`~repro.data.raw.RawDatabase` or a plain
        triple iterable.

        A :class:`~repro.io.store_source.StoreSource` over an on-disk claim
        store is planned from :meth:`~repro.io.store_source.StoreSource.iter_entities`
        alone — memory proportional to the entity count, never the triples —
        and the plan records the store's path.  Any other input takes one
        pass over :meth:`~repro.io.DataSource.iter_triples` that groups the
        triples by entity; each entity is then hashed once and its triples
        are stored contiguously in its shard.  Either way, within a shard
        entities keep first-seen order (and each entity's triples keep
        source order), and membership is identical.
        """
        from repro.io.catalog import as_source
        from repro.io.store_source import StoreSource

        source = as_source(data)
        entities: list[list[EntityKey]] = [[] for _ in range(self.num_shards)]
        triples: list[list[Triple]] = [[] for _ in range(self.num_shards)]
        store_path: str | None = None
        if isinstance(source, StoreSource) and source.store.path != ":memory:":
            # An in-memory store cannot be reopened by a worker, so it is
            # grouped like any other source below.
            store_path = source.store.path
            for entity in source.iter_entities():
                entities[self.shard_of(entity)].append(entity)
        else:
            by_entity: defaultdict[EntityKey, list[Triple]] = defaultdict(list)
            for triple in source.iter_triples():
                by_entity[triple.entity].append(triple)
            for entity, rows in by_entity.items():
                shard = self.shard_of(entity)
                entities[shard].append(entity)
                triples[shard].extend(rows)
        return ShardPlan(
            num_shards=self.num_shards,
            partition_seed=self.seed,
            shards=tuple(
                Shard(index=i, entities=tuple(entities[i]), triples=tuple(triples[i]))
                for i in range(self.num_shards)
            ),
            store_path=store_path,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grouped = ", grouped" if self.group_of is not None else ""
        return f"ShardPlanner(num_shards={self.num_shards}, seed={self.seed}{grouped})"
