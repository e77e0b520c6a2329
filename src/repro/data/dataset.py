"""Runtime dataset containers consumed by every truth-finding method.

:class:`ClaimMatrix` is the flat numpy encoding of the claim table
(Definition 3): claims are stored in arrays sorted by fact, with a CSR-style
pointer array so that the claims of fact *f* occupy the contiguous slice
``fact_ptr[f]:fact_ptr[f+1]``.  This is what makes the collapsed Gibbs sweep
of Algorithm 1 touch every claim exactly once per iteration, giving the
O(|C|) complexity the paper reports.

:class:`TruthDataset` bundles a claim matrix with ground-truth labels (a
labelled evaluation subset, as in the paper's experiments, or full labels for
synthetic data) and dataset metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.records import Fact, SourceRecord
from repro.exceptions import DataModelError, EmptyDatasetError, UnknownFactError
from repro.types import EntityKey, FactId, SourceId

__all__ = ["ClaimMatrix", "TruthDataset"]


class ClaimMatrix:
    """Flat, fact-grouped encoding of the claim table.

    Parameters
    ----------
    facts:
        Sequence of :class:`~repro.data.records.Fact` with dense ids
        ``0..F-1`` in order.
    source_names:
        Sequence of source names; position is the dense source id.
    claim_fact, claim_source, claim_obs:
        Parallel arrays describing each claim: the fact id, source id and
        Boolean observation.  They need not be pre-sorted; the constructor
        sorts them by fact id.
    """

    def __init__(
        self,
        facts: Sequence[Fact],
        source_names: Sequence[str],
        claim_fact: np.ndarray | Sequence[int],
        claim_source: np.ndarray | Sequence[int],
        claim_obs: np.ndarray | Sequence[bool],
    ):
        self.facts: tuple[Fact, ...] = tuple(facts)
        self.source_names: tuple[str, ...] = tuple(source_names)

        claim_fact = np.asarray(claim_fact, dtype=np.int64)
        claim_source = np.asarray(claim_source, dtype=np.int64)
        claim_obs = np.asarray(claim_obs, dtype=np.int8)
        if not (claim_fact.shape == claim_source.shape == claim_obs.shape):
            raise DataModelError("claim arrays must have identical shapes")
        if claim_fact.ndim != 1:
            raise DataModelError("claim arrays must be one-dimensional")

        self._validate_ids(claim_fact, claim_source)

        if claim_fact.size and np.any(claim_fact[1:] < claim_fact[:-1]):
            order = np.argsort(claim_fact, kind="stable")
            self.claim_fact = claim_fact[order]
            self.claim_source = claim_source[order]
            self.claim_obs = claim_obs[order]
        else:
            # Already fact-sorted (e.g. the bulk ingest path): skip the
            # O(n log n) re-sort, but still copy — the matrix must own its
            # arrays, not alias buffers the caller may mutate.
            self.claim_fact = claim_fact.copy()
            self.claim_source = claim_source.copy()
            self.claim_obs = claim_obs.copy()

        # CSR pointer over facts: claims of fact f are fact_ptr[f]:fact_ptr[f+1].
        counts = np.bincount(self.claim_fact, minlength=self.num_facts)
        self.fact_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

        self._entity_to_facts: dict[EntityKey, list[FactId]] = {}
        for fact in self.facts:
            self._entity_to_facts.setdefault(fact.entity, []).append(fact.fact_id)

    # -- validation ---------------------------------------------------------------
    def _validate_ids(self, claim_fact: np.ndarray, claim_source: np.ndarray) -> None:
        for position, fact in enumerate(self.facts):
            if fact.fact_id != position:
                raise DataModelError(
                    f"facts must be densely indexed in order; fact at position {position} has id {fact.fact_id}"
                )
        if claim_fact.size:
            if claim_fact.min() < 0 or claim_fact.max() >= len(self.facts):
                raise UnknownFactError("claim references a fact id outside the fact table")
            if claim_source.min() < 0 or claim_source.max() >= len(self.source_names):
                raise DataModelError("claim references a source id outside the source table")

    # -- sizes ----------------------------------------------------------------------
    @property
    def num_facts(self) -> int:
        """Number of facts F."""
        return len(self.facts)

    @property
    def num_sources(self) -> int:
        """Number of sources S."""
        return len(self.source_names)

    @property
    def num_claims(self) -> int:
        """Number of claims C (positive + negative)."""
        return int(self.claim_fact.shape[0])

    @property
    def num_entities(self) -> int:
        """Number of distinct entities across the fact table."""
        return len(self._entity_to_facts)

    @property
    def num_positive_claims(self) -> int:
        """Number of positive claims."""
        return int(self.claim_obs.sum())

    @property
    def num_negative_claims(self) -> int:
        """Number of generated negative claims."""
        return self.num_claims - self.num_positive_claims

    # -- per-fact access --------------------------------------------------------------
    def claims_of(self, fact_id: FactId) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(source_ids, observations)`` for the claims of ``fact_id``."""
        if fact_id < 0 or fact_id >= self.num_facts:
            raise UnknownFactError(f"fact id {fact_id} out of range [0, {self.num_facts})")
        start, stop = self.fact_ptr[fact_id], self.fact_ptr[fact_id + 1]
        return self.claim_source[start:stop], self.claim_obs[start:stop]

    def positive_sources_of(self, fact_id: FactId) -> np.ndarray:
        """Source ids making a positive claim for ``fact_id``."""
        sources, obs = self.claims_of(fact_id)
        return sources[obs == 1]

    def negative_sources_of(self, fact_id: FactId) -> np.ndarray:
        """Source ids making a negative claim for ``fact_id``."""
        sources, obs = self.claims_of(fact_id)
        return sources[obs == 0]

    def fact(self, fact_id: FactId) -> Fact:
        """Return the :class:`~repro.data.records.Fact` with id ``fact_id``."""
        if fact_id < 0 or fact_id >= self.num_facts:
            raise UnknownFactError(f"fact id {fact_id} out of range [0, {self.num_facts})")
        return self.facts[fact_id]

    def fact_scores(self, scores: np.ndarray) -> dict[tuple[EntityKey, str], float]:
        """``(entity, attribute as text) -> score`` for one score per fact, in fact order."""
        return {(f.entity, str(f.attribute)): float(scores[f.fact_id]) for f in self.facts}

    def facts_of_entity(self, entity: EntityKey) -> list[FactId]:
        """Fact ids belonging to ``entity``."""
        return list(self._entity_to_facts.get(entity, ()))

    @property
    def entities(self) -> list[EntityKey]:
        """Distinct entities, in fact-table order."""
        return list(self._entity_to_facts)

    @property
    def entity_groups(self) -> dict[EntityKey, list[FactId]]:
        """Mapping of entity -> fact ids, used by per-entity baselines."""
        return {entity: list(ids) for entity, ids in self._entity_to_facts.items()}

    # -- per-source statistics -----------------------------------------------------------
    def positive_counts_per_fact(self) -> np.ndarray:
        """Number of positive claims per fact (length F)."""
        out = np.zeros(self.num_facts, dtype=np.int64)
        np.add.at(out, self.claim_fact, self.claim_obs.astype(np.int64))
        return out

    def claim_counts_per_fact(self) -> np.ndarray:
        """Total number of claims per fact (length F)."""
        return np.diff(self.fact_ptr)

    def positive_counts_per_source(self) -> np.ndarray:
        """Number of positive claims per source (length S)."""
        out = np.zeros(self.num_sources, dtype=np.int64)
        np.add.at(out, self.claim_source, self.claim_obs.astype(np.int64))
        return out

    def claim_counts_per_source(self) -> np.ndarray:
        """Total number of claims per source (length S)."""
        return np.bincount(self.claim_source, minlength=self.num_sources)

    def source_records(self) -> list[SourceRecord]:
        """Build :class:`~repro.data.records.SourceRecord` summaries for all sources."""
        positives = self.positive_counts_per_source()
        totals = self.claim_counts_per_source()
        entity_sets: list[set[EntityKey]] = [set() for _ in range(self.num_sources)]
        fact_entities = [fact.entity for fact in self.facts]
        for fact_id, source_id in zip(self.claim_fact, self.claim_source):
            entity_sets[source_id].add(fact_entities[fact_id])
        return [
            SourceRecord(
                source_id=sid,
                name=name,
                num_positive_claims=int(positives[sid]),
                num_negative_claims=int(totals[sid] - positives[sid]),
                num_entities=len(entity_sets[sid]),
            )
            for sid, name in enumerate(self.source_names)
        ]

    def source_id(self, name: str) -> SourceId:
        """Return the dense id of the source called ``name``."""
        try:
            return self.source_names.index(name)
        except ValueError as exc:
            raise DataModelError(f"unknown source {name!r}") from exc

    # -- restriction / subsetting ----------------------------------------------------------
    def restrict_to_facts(self, fact_ids: Iterable[FactId]) -> "ClaimMatrix":
        """Return a new claim matrix containing only ``fact_ids`` (re-indexed densely).

        Source ids and names are preserved so that source-quality estimates
        learned elsewhere remain applicable.
        """
        wanted = sorted(set(int(f) for f in fact_ids))
        for fact_id in wanted:
            if fact_id < 0 or fact_id >= self.num_facts:
                raise UnknownFactError(f"fact id {fact_id} out of range [0, {self.num_facts})")
        remap = {old: new for new, old in enumerate(wanted)}
        new_facts = [
            Fact(fact_id=remap[old], entity=self.facts[old].entity, attribute=self.facts[old].attribute)
            for old in wanted
        ]
        mask = np.isin(self.claim_fact, np.asarray(wanted, dtype=np.int64))
        new_claim_fact = np.array([remap[int(f)] for f in self.claim_fact[mask]], dtype=np.int64)
        return ClaimMatrix(
            facts=new_facts,
            source_names=self.source_names,
            claim_fact=new_claim_fact,
            claim_source=self.claim_source[mask],
            claim_obs=self.claim_obs[mask],
        )

    def restrict_to_entities(self, entities: Iterable[EntityKey]) -> "ClaimMatrix":
        """Return a new claim matrix containing only facts of ``entities``."""
        wanted = set(entities)
        fact_ids = [fact.fact_id for fact in self.facts if fact.entity in wanted]
        return self.restrict_to_facts(fact_ids)

    def positive_only(self) -> "ClaimMatrix":
        """Return a copy containing only the positive claims (used by LTMpos)."""
        mask = self.claim_obs == 1
        return ClaimMatrix(
            facts=self.facts,
            source_names=self.source_names,
            claim_fact=self.claim_fact[mask],
            claim_source=self.claim_source[mask],
            claim_obs=self.claim_obs[mask],
        )

    def summary(self) -> dict[str, int]:
        """Size statistics matching how the paper describes its datasets."""
        return {
            "entities": self.num_entities,
            "facts": self.num_facts,
            "sources": self.num_sources,
            "claims": self.num_claims,
            "positive_claims": self.num_positive_claims,
            "negative_claims": self.num_negative_claims,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClaimMatrix(facts={self.num_facts}, sources={self.num_sources}, "
            f"claims={self.num_claims})"
        )


@dataclass
class TruthDataset:
    """A claim matrix plus ground-truth labels and metadata.

    Attributes
    ----------
    name:
        Dataset name (e.g. ``"book-authors"``).
    claims:
        The :class:`ClaimMatrix` all solvers consume.
    labels:
        Mapping of fact id to Boolean ground truth for the labelled subset
        used in evaluation.  May cover all facts (synthetic data) or only a
        sample (the paper labels 100 entities per dataset).
    labelled_entities:
        Entities whose facts were labelled; informational.
    """

    name: str
    claims: ClaimMatrix
    labels: dict[FactId, bool] = field(default_factory=dict)
    labelled_entities: tuple[EntityKey, ...] = ()

    def __post_init__(self) -> None:
        for fact_id in self.labels:
            if fact_id < 0 or fact_id >= self.claims.num_facts:
                raise UnknownFactError(f"label references unknown fact id {fact_id}")

    # -- labelled subset access ---------------------------------------------------
    @property
    def labelled_fact_ids(self) -> list[FactId]:
        """Fact ids with ground-truth labels, sorted."""
        return sorted(self.labels)

    @property
    def num_labelled(self) -> int:
        """Number of labelled facts."""
        return len(self.labels)

    def labels_array(self, fact_ids: Sequence[FactId] | None = None) -> np.ndarray:
        """Ground-truth labels as a Boolean array over ``fact_ids`` (default: all labelled)."""
        if fact_ids is None:
            fact_ids = self.labelled_fact_ids
        missing = [f for f in fact_ids if f not in self.labels]
        if missing:
            raise UnknownFactError(f"facts {missing[:5]} have no ground-truth label")
        return np.array([self.labels[f] for f in fact_ids], dtype=bool)

    def require_labels(self) -> None:
        """Raise if the dataset has no ground-truth labels at all."""
        if not self.labels:
            raise EmptyDatasetError(f"dataset {self.name!r} has no ground-truth labels")

    # -- splitting -------------------------------------------------------------------
    def split_labelled_entities(self) -> tuple[ClaimMatrix, ClaimMatrix]:
        """Split the claim matrix into (unlabelled-entities, labelled-entities) parts.

        This mirrors the paper's LTMinc protocol: learn source quality on the
        data without the labelled entities, then predict on the labelled
        entities with Equation (3).
        """
        labelled = set(self.labelled_entities)
        if not labelled:
            labelled = {self.claims.fact(f).entity for f in self.labels}
        unlabelled_entities = [e for e in self.claims.entities if e not in labelled]
        return (
            self.claims.restrict_to_entities(unlabelled_entities),
            self.claims.restrict_to_entities(labelled),
        )

    def label_subset_matrix(self) -> tuple[ClaimMatrix, np.ndarray, list[FactId]]:
        """Return the claim matrix restricted to labelled entities, with labels.

        Returns ``(matrix, labels, original_fact_ids)`` where ``labels[i]`` is
        the ground truth of ``matrix.facts[i]`` and ``original_fact_ids[i]``
        is its id in the full claim matrix.
        """
        self.require_labels()
        labelled = set(self.labelled_entities) or {
            self.claims.fact(f).entity for f in self.labels
        }
        fact_ids = [f.fact_id for f in self.claims.facts if f.entity in labelled]
        matrix = self.claims.restrict_to_facts(fact_ids)
        labels = np.array([self.labels.get(f, False) for f in fact_ids], dtype=bool)
        return matrix, labels, fact_ids

    def summary(self) -> dict[str, int]:
        """Size statistics of the dataset."""
        info = self.claims.summary()
        info["labelled_facts"] = self.num_labelled
        info["labelled_entities"] = len(
            set(self.labelled_entities)
            or {self.claims.fact(f).entity for f in self.labels}
        )
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TruthDataset(name={self.name!r}, {self.claims!r}, labelled={self.num_labelled})"
