"""Stable entity partitioning for sharded execution.

Entity-sharded parallelism (see :mod:`repro.parallel`) only works if every
process, thread and machine agrees on which shard an entity belongs to —
*forever*.  Python's built-in ``hash()`` cannot provide that: string hashing
is randomised per interpreter process (``PYTHONHASHSEED``) and its algorithm
is a CPython implementation detail.  :func:`entity_partition_key` therefore
derives the key from a keyed BLAKE2b digest of the entity's UTF-8 bytes,
which is

* **stable** across processes, Python versions and platforms,
* **seedable** — different ``seed`` values give independent partitionings
  (useful to re-balance a pathological key distribution without touching
  data), and
* **uniform** — the low 64 digest bits are effectively uniformly
  distributed, so ``entity_partition_key(e, seed) % num_shards`` balances
  shards for any realistic entity population.

The same digest also drives the seeded entity shuffle of
:meth:`repro.io.DataSource.iter_batches`, keeping shuffled arrival orders
reproducible across interpreter runs, and :func:`split_prefix` cuts a
corpus into a historical prefix and a future stream along entity lines.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import StreamError
from repro.types import EntityKey, Triple

__all__ = ["entity_partition_key", "seeded_entity_order", "split_prefix"]

#: Number of digest bytes used for the partition key (64 bits).
_DIGEST_SIZE = 8


def entity_partition_key(entity: EntityKey, seed: int = 0) -> int:
    """A stable, uniform partition key for ``entity`` in ``[0, 2**64)``.

    The key is the little-endian integer value of an 8-byte keyed BLAKE2b
    digest of ``str(entity)`` encoded as UTF-8, with ``seed`` folded into
    the digest key.  It does **not** depend on ``hash()`` and is therefore
    identical across interpreter processes, Python versions and platforms —
    the property :class:`~repro.parallel.ShardPlanner` relies on to route an
    entity to the same shard on every run.

    Parameters
    ----------
    entity:
        The entity key.  Non-string keys are converted with ``str`` first,
        so any key that round-trips through ``str`` partitions consistently.
    seed:
        Partitioning seed.  Different seeds give independent partitionings;
        the default of 0 is the library-wide canonical partitioning.

    Examples
    --------
    >>> entity_partition_key("Harry Potter") == entity_partition_key("Harry Potter")
    True
    >>> entity_partition_key("Harry Potter") % 4 in range(4)
    True
    """
    key = int(seed).to_bytes(8, "little", signed=True)
    digest = hashlib.blake2b(
        str(entity).encode("utf-8"), digest_size=_DIGEST_SIZE, key=key
    ).digest()
    return int.from_bytes(digest, "little")


def seeded_entity_order(entities: Iterable[EntityKey], seed: int) -> list[EntityKey]:
    """Reorder ``entities`` by their seeded partition digest, deterministically.

    This is the canonical seeded entity shuffle shared by every
    :class:`~repro.io.DataSource` (in-memory, file-backed and the
    disk-backed :class:`~repro.io.store_source.StoreSource`): entities sort
    by ``(entity_partition_key(entity, seed), first_seen_position)``, so a
    given seed reproduces the same arrival order regardless of which
    representation the triples live in.  Only the entity *keys* are held in
    memory — never their triples — which keeps the shuffle cheap even for
    out-of-core corpora.
    """
    decorated = sorted(
        enumerate(entities),
        key=lambda item: (entity_partition_key(item[1], seed=seed), item[0]),
    )
    return [entity for _, entity in decorated]


def split_prefix(
    triples: Sequence[Triple], fraction: float, seed: int | None = None
) -> tuple[list[Triple], list[Triple]]:
    """Split triples into a historical prefix and a future stream by entity.

    Returns ``(historical, future)`` where roughly ``fraction`` of the
    entities (and all their triples) land in the historical part.  Rows are
    read by index, so :class:`~repro.types.Triple` and plain
    ``(entity, attribute, source)`` tuples split identically.
    """
    if not 0.0 < fraction < 1.0:
        raise StreamError("fraction must lie strictly between 0 and 1")
    entities = sorted({row[0] for row in triples})
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(entities))
    cut = max(1, int(round(fraction * len(entities))))
    historical_entities = {entities[i] for i in order[:cut]}
    historical = [row for row in triples if row[0] in historical_entities]
    future = [row for row in triples if row[0] not in historical_entities]
    return historical, future
