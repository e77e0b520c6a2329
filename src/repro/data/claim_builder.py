"""Construction of the fact and claim tables from a raw database.

This implements Definitions 2 and 3 of the paper:

1. every distinct ``(entity, attribute)`` pair becomes a fact with a dense id;
2. for each fact, every source that asserted it contributes a **positive**
   claim;
3. every source that asserted *some other* attribute of the same entity — but
   not this fact — contributes a **negative** claim;
4. sources that said nothing about the entity contribute no claim at all.

The builder produces a :class:`~repro.data.dataset.ClaimMatrix`, the flat
numpy encoding consumed by every solver.

Two construction paths produce identical matrices:

* :class:`ClaimTableBuilder` — the row-at-a-time reference implementation
  over a :class:`~repro.data.raw.RawDatabase`;
* :func:`bulk_build_claim_matrix` — a vectorized path that factorizes the
  entity / attribute / source columns with numpy instead of per-triple
  appends, used by :func:`build_claim_matrix` (and hence the engine and the
  :mod:`repro.io` sources) for chunked ingestion at scale.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.dataset import ClaimMatrix, TruthDataset
from repro.data.raw import RawDatabase
from repro.data.records import Fact
from repro.exceptions import DuplicateRowError, EmptyDatasetError
from repro.types import AttributeValue, EntityKey, FactId, SourceName, Triple, triple_columns

__all__ = [
    "ClaimTableBuilder",
    "build_claim_matrix",
    "build_dataset",
    "bulk_build_claim_matrix",
]


class ClaimTableBuilder:
    """Builds the fact and claim tables from raw triples, one row at a time.

    Parameters
    ----------
    raw:
        The input :class:`~repro.data.raw.RawDatabase`.
    """

    def __init__(self, raw: RawDatabase):
        raw.require_non_empty()
        self.raw = raw
        self._facts: list[Fact] = []
        self._fact_ids: dict[tuple[EntityKey, AttributeValue], FactId] = {}
        self._source_ids: dict[SourceName, int] = {}
        self._claim_fact: list[int] = []
        self._claim_source: list[int] = []
        self._claim_obs: list[bool] = []
        self._built = False

    # -- id assignment -----------------------------------------------------------
    def _fact_id(self, entity: EntityKey, attribute: AttributeValue) -> FactId:
        key = (entity, attribute)
        if key not in self._fact_ids:
            fact_id = len(self._facts)
            self._fact_ids[key] = fact_id
            self._facts.append(Fact(fact_id=fact_id, entity=entity, attribute=attribute))
        return self._fact_ids[key]

    def _source_id(self, source: SourceName) -> int:
        if source not in self._source_ids:
            self._source_ids[source] = len(self._source_ids)
        return self._source_ids[source]

    # -- core construction --------------------------------------------------------
    def build(self) -> ClaimMatrix:
        """Run the claim-generation rules and return the claim matrix."""
        if self._built:
            return self._to_matrix()

        # Register sources in first-seen order for reproducible ids.
        for source in self.raw.sources:
            self._source_id(source)

        # Positive claims: sources that asserted the (entity, attribute) pair.
        positive_by_fact: dict[FactId, set[int]] = {}
        for triple in self.raw:
            fact_id = self._fact_id(triple.entity, triple.attribute)
            source_id = self._source_id(triple.source)
            fact_sources = positive_by_fact.setdefault(fact_id, set())
            if source_id in fact_sources:
                continue
            fact_sources.add(source_id)
            self._claim_fact.append(fact_id)
            self._claim_source.append(source_id)
            self._claim_obs.append(True)

        # Negative claims: sources that asserted the entity but not this fact.
        for fact in self._facts:
            fact_sources = positive_by_fact.get(fact.fact_id, set())
            entity_sources = {self._source_id(s) for s in self.raw.sources_of(fact.entity)}
            for source_id in sorted(entity_sources - fact_sources):
                self._claim_fact.append(fact.fact_id)
                self._claim_source.append(source_id)
                self._claim_obs.append(False)

        self._built = True
        return self._to_matrix()

    def _to_matrix(self) -> ClaimMatrix:
        source_names = [name for name, _ in sorted(self._source_ids.items(), key=lambda kv: kv[1])]
        return ClaimMatrix(
            facts=self._facts,
            source_names=source_names,
            claim_fact=np.asarray(self._claim_fact, dtype=np.int64),
            claim_source=np.asarray(self._claim_source, dtype=np.int64),
            claim_obs=np.asarray(self._claim_obs, dtype=np.int8),
        )

    @property
    def fact_ids(self) -> Mapping[tuple[EntityKey, AttributeValue], FactId]:
        """Mapping of ``(entity, attribute)`` to fact id (after :meth:`build`)."""
        return dict(self._fact_ids)


# ---------------------------------------------------------------------------
# Vectorized bulk ingest
# ---------------------------------------------------------------------------
def _factorize_first_seen(values: Sequence) -> tuple[np.ndarray, list]:
    """Encode ``values`` as dense integer codes in first-seen order.

    Returns ``(codes, uniques)`` with ``uniques[codes[i]] == values[i]`` and
    uniques ordered by first occurrence — the same id assignment the
    row-at-a-time builder produces.  Dictionary encoding beats a
    sort-based ``np.unique`` here because the raw columns are Python objects
    (strings, occasionally numbers); everything downstream then runs on the
    resulting dense int64 codes.
    """
    mapping: dict = {}
    setdefault = mapping.setdefault
    codes = np.fromiter(
        (setdefault(v, len(mapping)) for v in values), count=len(values), dtype=np.int64
    )
    return codes, list(mapping)


def bulk_build_claim_matrix(
    triples: Iterable[Triple | tuple] | RawDatabase, strict: bool = False
) -> ClaimMatrix:
    """Build a :class:`~repro.data.dataset.ClaimMatrix` from triples, vectorized.

    Produces a matrix *identical* (same fact/source ids, same claim layout) to
    ``ClaimTableBuilder(RawDatabase(triples, strict=False)).build()``, but the
    claim-generation rules of Definitions 2-3 run as numpy factorizations and
    joins instead of per-triple appends — the difference between O(n) Python
    dict traffic and a handful of C-level array passes.  This is the path
    :func:`build_claim_matrix` (and therefore :class:`~repro.engine.TruthEngine`
    and the :mod:`repro.io` sources) take, keeping chunked streaming ingestion
    cheap.

    Parameters
    ----------
    triples:
        Raw assertion triples (``Triple`` objects or any other
        3-sequences) or an existing :class:`~repro.data.raw.RawDatabase`.
        A row that breaks the row rule of :func:`repro.types.triple_columns`
        raises :class:`~repro.exceptions.DataModelError`.
    strict:
        When true, exact duplicate triples raise
        :class:`~repro.exceptions.DuplicateRowError` (mirroring
        ``RawDatabase(strict=True)``); when false duplicates are dropped.
    """
    if isinstance(triples, RawDatabase):
        strict = False  # a RawDatabase is already de-duplicated
    entities, attributes, src_col = triple_columns(triples)
    if not entities:
        raise EmptyDatasetError("the raw database contains no triples")

    ent_codes, _ = _factorize_first_seen(entities)
    attr_codes, _ = _factorize_first_seen(attributes)
    src_codes, source_names = _factorize_first_seen(src_col)
    num_sources = len(source_names)

    # Facts: first-seen (entity, attribute) pairs, in triple order.
    pair_keys = ent_codes * (int(attr_codes.max()) + 1) + attr_codes
    uniq_pairs, first_idx, fact_of_triple = np.unique(
        pair_keys, return_index=True, return_inverse=True
    )
    pair_order = np.argsort(first_idx, kind="stable")
    pair_rank = np.empty(len(uniq_pairs), dtype=np.int64)
    pair_rank[pair_order] = np.arange(len(uniq_pairs), dtype=np.int64)
    fact_of_triple = pair_rank[fact_of_triple.ravel()]
    fact_first_idx = first_idx[pair_order]  # triple index introducing each fact
    num_facts = len(fact_first_idx)
    facts = [
        Fact(fid, entities[i], attributes[i])
        for fid, i in enumerate(fact_first_idx.tolist())
    ]

    # Positive claims: first occurrence of each (fact, source) pair, kept in
    # triple-scan order (what the sequential builder appends).
    pos_keys = fact_of_triple * num_sources + src_codes
    uniq_pos, pos_first = np.unique(pos_keys, return_index=True)
    if strict and len(uniq_pos) != len(entities):
        dup = int(np.setdiff1d(np.arange(len(entities)), pos_first)[0])
        raise DuplicateRowError(
            f"duplicate raw triple {(entities[dup], attributes[dup], src_col[dup])!r}"
        )
    pos_first = np.sort(pos_first)
    pos_fact = fact_of_triple[pos_first]
    pos_src = src_codes[pos_first]

    # Entity coverage: distinct (entity, source) pairs, sorted by (entity,
    # source id) so each entity's block lists its sources ascending.
    es_keys = np.unique(ent_codes * num_sources + src_codes)
    es_ent = es_keys // num_sources
    es_src = es_keys % num_sources
    ent_counts = np.bincount(es_ent, minlength=int(ent_codes.max()) + 1)
    ent_ptr = np.concatenate(([0], np.cumsum(ent_counts)))

    # Candidate negative claims: for every fact (in fact-id order) expand the
    # covering sources of its entity, then drop the fact's positive pairs.
    fact_ent = ent_codes[fact_first_idx]
    reps = ent_counts[fact_ent]
    total = int(reps.sum())
    cand_fact = np.repeat(np.arange(num_facts, dtype=np.int64), reps)
    block_starts = np.concatenate(([0], np.cumsum(reps)))[:-1]
    intra = np.arange(total, dtype=np.int64) - np.repeat(block_starts, reps)
    cand_src = es_src[np.repeat(ent_ptr[fact_ent], reps) + intra]
    negative_mask = ~np.isin(cand_fact * num_sources + cand_src, uniq_pos)
    neg_fact = cand_fact[negative_mask]
    neg_src = cand_src[negative_mask]

    # Deliver the claims fact-sorted (positives in scan order, then negatives
    # by ascending source — the sequential builder's layout) so ClaimMatrix
    # can take its no-reorder fast path.
    claim_fact = np.concatenate((pos_fact, neg_fact))
    claim_source = np.concatenate((pos_src, neg_src))
    claim_obs = np.concatenate(
        (np.ones(len(pos_fact), dtype=np.int8), np.zeros(len(neg_fact), dtype=np.int8))
    )
    order = np.argsort(claim_fact, kind="stable")
    return ClaimMatrix(
        facts=facts,
        source_names=source_names,
        claim_fact=claim_fact[order],
        claim_source=claim_source[order],
        claim_obs=claim_obs[order],
    )


def build_claim_matrix(triples: Iterable[Triple | tuple] | RawDatabase, strict: bool = False) -> ClaimMatrix:
    """Convenience function: triples (or a raw database) straight to a claim matrix.

    Routes through the vectorized :func:`bulk_build_claim_matrix`, which is
    guaranteed (and property-tested) to produce the same matrix as
    :class:`ClaimTableBuilder`.
    """
    return bulk_build_claim_matrix(triples, strict=strict)


def build_dataset(
    triples: Iterable[Triple | tuple] | RawDatabase,
    truth: Mapping[tuple[EntityKey, AttributeValue], bool] | None = None,
    name: str = "dataset",
    labelled_entities: Iterable[EntityKey] | None = None,
    strict: bool = False,
) -> TruthDataset:
    """Build a :class:`~repro.data.dataset.TruthDataset` from raw triples and ground truth.

    Parameters
    ----------
    triples:
        The raw assertion triples or an existing raw database.
    truth:
        Optional mapping from ``(entity, attribute)`` pairs to their ground
        truth.  Pairs not present in the claim matrix are ignored; pairs in
        the matrix but missing from ``truth`` are left unlabelled.
    name:
        Dataset name.
    labelled_entities:
        Optionally restrict labels to facts of these entities (mirrors the
        paper's 100-entity labelled samples).
    strict:
        Whether duplicate triples raise instead of being ignored.
    """
    matrix = bulk_build_claim_matrix(triples, strict=strict)
    fact_ids: dict[tuple[EntityKey, AttributeValue], FactId] = {
        (fact.entity, fact.attribute): fact.fact_id for fact in matrix.facts
    }
    labels: dict[FactId, bool] = {}
    restrict = set(labelled_entities) if labelled_entities is not None else None
    if truth:
        for pair, value in truth.items():
            fact_id = fact_ids.get(pair)
            if fact_id is None:
                continue
            if restrict is not None and pair[0] not in restrict:
                continue
            labels[fact_id] = bool(value)
    if not matrix.num_facts:
        raise EmptyDatasetError("no facts were derived from the raw database")
    return TruthDataset(
        name=name,
        claims=matrix,
        labels=labels,
        labelled_entities=tuple(restrict) if restrict is not None else (),
    )
