"""Arrival-ordered claim streams.

A :class:`ClaimStream` turns a collection of raw triples into a sequence of
:class:`ClaimBatch` objects, grouped either by a fixed batch size or by
entity, simulating data arriving online (new movies appearing in a feed, new
books being listed).

Since the :mod:`repro.io` unification, :class:`ClaimStream` is a thin
adapter over :meth:`repro.io.DataSource.iter_batches`: any
:class:`~repro.io.base.DataSource` (or anything
:func:`~repro.io.catalog.as_source` accepts, including catalog keys) can be
streamed, and the entity-grouped batching algorithm itself lives in the
source protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import StreamError
from repro.types import Triple

__all__ = ["ClaimBatch", "ClaimStream"]


@dataclass(frozen=True)
class ClaimBatch:
    """One batch of raw triples arriving together.

    Attributes
    ----------
    index:
        Zero-based batch sequence number.
    triples:
        The raw rows in the batch: :class:`~repro.types.Triple` or any other
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


class ClaimStream:
    """Splits a data source's triples into arrival batches.

    Parameters
    ----------
    triples:
        The triples to stream: a list, a
        :class:`~repro.data.raw.RawDatabase`, any
        :class:`~repro.io.base.DataSource`, or a catalog key / file path
        (resolved through :func:`repro.io.as_source`).
    batch_entities:
        Number of entities per batch when grouping by entity (the default
        grouping: all triples about the same entity arrive together, which is
        how crawls and feeds typically deliver data).
    shuffle_entities:
        Whether to shuffle the entity arrival order.
    seed:
        Seed of the shuffle.
    """

    def __init__(
        self,
        triples: Iterable[Triple] | object,
        batch_entities: int = 50,
        shuffle_entities: bool = False,
        seed: int | None = None,
    ):
        if batch_entities <= 0:
            raise StreamError("batch_entities must be positive")
        # Imported lazily: repro.io builds on this module's ClaimBatch.
        from repro.io.catalog import as_source

        self._source = as_source(triples)
        self._triples = list(self._source.iter_triples())
        if not self._triples:
            raise StreamError("cannot stream an empty triple collection")
        self.batch_entities = batch_entities
        self.shuffle_entities = shuffle_entities
        self.seed = seed

    def __iter__(self) -> Iterator[ClaimBatch]:
        return self.batches()

    def batches(self) -> Iterator[ClaimBatch]:
        """Yield :class:`ClaimBatch` objects grouped by entity arrival."""
        return self._source.iter_batches(
            self.batch_entities,
            by_entity=True,
            shuffle=self.shuffle_entities,
            seed=self.seed,
        )

    def num_batches(self) -> int:
        """Number of batches the stream will produce."""
        entities = {t.entity for t in self._triples}
        return int(np.ceil(len(entities) / self.batch_entities))

    @staticmethod
    def split_prefix(
        triples: Sequence[Triple], fraction: float, seed: int | None = None
    ) -> tuple[list[Triple], list[Triple]]:
        """Split triples into a historical prefix and a future stream by entity.

        Returns ``(historical, future)`` where roughly ``fraction`` of the
        entities (and all their triples) land in the historical part.
        """
        if not 0.0 < fraction < 1.0:
            raise StreamError("fraction must lie strictly between 0 and 1")
        entities = sorted({t.entity for t in triples})
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(entities))
        cut = max(1, int(round(fraction * len(entities))))
        historical_entities = {entities[i] for i in order[:cut]}
        historical = [t for t in triples if t.entity in historical_entities]
        future = [t for t in triples if t.entity not in historical_entities]
        return historical, future
