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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.exceptions import ConfigurationError
from repro.io.partition import entity_partition_key
from repro.types import EntityKey, Triple

__all__ = ["Shard", "ShardPlan", "KeyShard", "KeyShardPlan", "ShardPlanner"]


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
        entity in first-seen order.
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
    """

    num_shards: int
    partition_seed: int
    shards: tuple[Shard, ...]

    @property
    def num_triples(self) -> int:
        """Total triples across all shards."""
        return sum(shard.num_triples for shard in self.shards)

    @property
    def num_entities(self) -> int:
        """Total entities across all shards."""
        return sum(shard.num_entities for shard in self.shards)

    def non_empty(self) -> list[Shard]:
        """The shards that actually hold triples, in index order."""
        return [shard for shard in self.shards if shard.num_triples]

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [shard.num_triples for shard in self.shards]
        return f"ShardPlan(num_shards={self.num_shards}, triples={sizes})"


@dataclass(frozen=True)
class KeyShard:
    """One shard of a key-range plan: entity *keys* only, no triples.

    The triples stay in the backing claim store; each worker resolves its
    entities through indexed range reads at fit time.  Entities are listed
    in global first-seen order, so a worker's fetched triples are laid out
    exactly like the corresponding :class:`Shard` of an eager plan.
    """

    index: int
    entities: tuple[EntityKey, ...]

    @property
    def num_entities(self) -> int:
        """Number of entities routed to this shard."""
        return len(self.entities)

    def __len__(self) -> int:
        return len(self.entities)


@dataclass(frozen=True)
class KeyShardPlan:
    """The output of :meth:`ShardPlanner.plan_keys`: an out-of-core plan.

    Unlike :class:`ShardPlan`, no triples are held — only entity keys plus
    the path of the claim store they live in, so a 100M-triple corpus plans
    in memory proportional to its *entity* count and shards cross process
    boundaries as key lists, not data.
    """

    num_shards: int
    partition_seed: int
    shards: tuple[KeyShard, ...]
    store_path: str

    @property
    def num_entities(self) -> int:
        """Total entities across all shards."""
        return sum(shard.num_entities for shard in self.shards)

    def non_empty(self) -> list[KeyShard]:
        """The shards that hold entities (hence triples), in index order."""
        return [shard for shard in self.shards if shard.num_entities]

    def __iter__(self) -> Iterator[KeyShard]:
        return iter(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [shard.num_entities for shard in self.shards]
        return f"KeyShardPlan(num_shards={self.num_shards}, entities={sizes})"


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
        :class:`~repro.data.raw.RawDatabase` or a plain triple iterable.
        One pass over :meth:`~repro.io.DataSource.iter_triples` groups the
        triples by entity; each entity is then hashed once and its triples
        are stored contiguously in its shard.  Within a shard, entities keep
        first-seen order and each entity's triples keep source order.
        """
        from repro.io.catalog import as_source

        by_entity: defaultdict[EntityKey, list[Triple]] = defaultdict(list)
        for triple in as_source(data).iter_triples():
            by_entity[triple.entity].append(triple)
        triples: list[list[Triple]] = [[] for _ in range(self.num_shards)]
        entities: list[list[EntityKey]] = [[] for _ in range(self.num_shards)]
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
        )

    def plan_keys(self, data: Any) -> KeyShardPlan:
        """Partition an indexed, store-backed source by streaming key ranges.

        ``data`` must coerce to a source advertising
        :attr:`~repro.io.DataSource.supports_entity_ranges` over an on-disk
        claim store (a :class:`~repro.io.store_source.StoreSource` or a
        ``store://`` URL).  Only entity *keys* stream through the planner —
        off the store's first-seen covering index — so planning a corpus
        needs memory proportional to its entity count, never its triples.
        Shard membership is identical to :meth:`plan` over the same corpus.
        """
        from repro.io.catalog import as_source

        source = as_source(data)
        if not getattr(source, "supports_entity_ranges", False):
            raise ConfigurationError(
                f"{type(source).__name__} does not support indexed entity ranges; "
                f"plan_keys needs a store-backed source (store://path/to/claims.db)"
            )
        store = getattr(source, "store", None)
        if store is None or not getattr(store, "path", None):
            raise ConfigurationError(
                "plan_keys needs a source backed by an on-disk claim store "
                "(workers re-open it by path)"
            )
        entities: list[list[EntityKey]] = [[] for _ in range(self.num_shards)]
        for entity in source.iter_entities():
            entities[self.shard_of(entity)].append(entity)
        return KeyShardPlan(
            num_shards=self.num_shards,
            partition_seed=self.seed,
            shards=tuple(
                KeyShard(index=i, entities=tuple(entities[i]))
                for i in range(self.num_shards)
            ),
            store_path=str(store.path),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grouped = ", grouped" if self.group_of is not None else ""
        return f"ShardPlanner(num_shards={self.num_shards}, seed={self.seed}{grouped})"
