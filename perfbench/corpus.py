"""Seeded corpus generator owned by the benchmark.

The program under test only ever sees the generated ``(entity, attribute,
source)`` triples.  Ground truth stays here, so the benchmark can check the
program's decisions without the program seeing the labels.

Every source ``s`` has a coverage probability, a sensitivity (probability of
asserting a true value of an entity it covers) and a false-positive rate
(probability of asserting each false candidate value).  Entities carry one or
more true values (multi-valued attributes) and a few false candidates.  The
generator is vectorised with numpy: the stream shape (about 250k triples)
builds in well under a second, so set-up time measures the program and not
the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

THRESHOLD = 0.5  # a fact is decided true when its score is at least this


@dataclass(frozen=True)
class Shape:
    """Sizes and source behaviour of one corpus shape."""

    prefix: str
    num_entities: int
    num_sources: int
    source_prefix: str
    coverage: tuple[float, float]  # range of per-source coverage probabilities
    sensitivity: tuple[float, float]
    false_positive: tuple[float, float]
    true_value_probs: tuple[float, ...]  # P(entity has 1, 2, ... true values)
    false_candidates: int
    zipf_coverage: float = 0.0  # >0: heavy-tailed coverage, mean sources/entity fixed
    sources_per_entity: float = 0.0


#: Movie-director shape: about 15k movies, 20 sources, multi-valued
#: directors and about 54k claims once negative claims are derived.
MOVIES = Shape(
    prefix="movie",
    num_entities=15_000,
    num_sources=20,
    source_prefix="msrc",
    coverage=(0.04, 0.16),
    sensitivity=(0.55, 0.95),
    false_positive=(0.02, 0.30),
    true_value_probs=(0.75, 0.25),
    false_candidates=2,
)

#: Book-author shape at the paper's scale: 1,263 books, 879 sellers with a
#: heavy-tailed catalogue size, about 12 sellers per book.
BOOKS = Shape(
    prefix="book",
    num_entities=1_263,
    num_sources=879,
    source_prefix="seller",
    coverage=(0.0, 0.0),
    sensitivity=(0.6, 0.95),
    false_positive=(0.01, 0.15),
    true_value_probs=(0.5, 0.3, 0.2),
    false_candidates=2,
    zipf_coverage=1.1,
    sources_per_entity=12.0,
)

#: Low-conflict stream shape: about 40k entities and 250k triples from 30
#: mostly reliable sources, one true value per entity.
STREAM = Shape(
    prefix="item",
    num_entities=40_000,
    num_sources=30,
    source_prefix="feed",
    coverage=(0.12, 0.30),
    sensitivity=(0.88, 0.99),
    false_positive=(0.005, 0.05),
    true_value_probs=(1.0,),
    false_candidates=1,
)


@dataclass
class Corpus:
    """Generated triples plus the ground truth the program never sees."""

    name: str
    triples: list[tuple[str, str, str]]
    truth: dict[tuple[str, str], bool]
    entities: list[str]  # entities that received at least one triple, first-seen order

    def accuracy(self, scores: dict[tuple[str, str], float]) -> float:
        """Share of asserted facts whose decision at ``THRESHOLD`` matches the truth.

        A fact missing from ``scores`` counts as wrong.
        """
        right = 0
        for pair, label in self.truth.items():
            score = scores.get(pair)
            if score is not None and (score >= THRESHOLD) == label:
                right += 1
        return right / len(self.truth)


def _spaced(rng: np.random.Generator, bounds: tuple[float, float], n: int) -> np.ndarray:
    """``n`` evenly spaced values over ``bounds``, in seeded order.

    Every seed gets the same set of source behaviours, only assigned to
    different sources, so corpus size and difficulty barely move with the
    seed and a run-to-run spread is the program's, not the generator's.
    """
    values = np.linspace(bounds[0], bounds[1], n)
    rng.shuffle(values)
    return values


def _source_params(
    shape: Shape, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-source coverage, sensitivity and false-positive rate."""
    n = shape.num_sources
    if shape.zipf_coverage > 0:
        weights = 1.0 / np.arange(1, n + 1) ** shape.zipf_coverage
        rng.shuffle(weights)
        coverage = np.minimum(1.0, weights * shape.sources_per_entity / weights.sum())
    else:
        coverage = _spaced(rng, shape.coverage, n)
    sensitivity = _spaced(rng, shape.sensitivity, n)
    false_positive = _spaced(rng, shape.false_positive, n)
    return coverage, sensitivity, false_positive


def generate(
    shape: Shape,
    seed: int,
    *,
    num_entities: int | None = None,
    entity_offset: int = 0,
) -> Corpus:
    """Generate one corpus of ``shape`` from ``seed``.

    Source behaviour depends on ``seed`` alone, so extra entities drawn with
    an ``entity_offset`` come from the same sources as the main corpus.
    """
    coverage, sensitivity, false_positive = _source_params(
        shape, np.random.default_rng([seed, 0])
    )
    rng = np.random.default_rng([seed, 1, entity_offset])
    num_entities = shape.num_entities if num_entities is None else num_entities
    max_true = len(shape.true_value_probs)
    slots = max_true + shape.false_candidates

    n_true = 1 + rng.choice(max_true, size=num_entities, p=shape.true_value_probs)
    cover = rng.random((num_entities, shape.num_sources)) < coverage
    pair_entity, pair_source = np.nonzero(cover)
    slot = np.arange(slots)
    is_true_slot = slot[None, :] < n_true[pair_entity][:, None]
    is_false_slot = slot[None, :] >= max_true
    prob = np.where(
        is_true_slot,
        sensitivity[pair_source][:, None],
        np.where(is_false_slot, false_positive[pair_source][:, None], 0.0),
    )
    asserted = rng.random(prob.shape) < prob
    row, col = np.nonzero(asserted)
    t_entity = pair_entity[row]
    t_source = pair_source[row]
    # Crawl order: each source's feed arrives whole, entities in id order.
    order = np.lexsort((col, t_entity, t_source))
    t_entity, t_source, col = t_entity[order], t_source[order], col[order]
    t_value = (t_entity + entity_offset) * slots + col
    labels = (col < n_true[t_entity]).tolist()

    entity_names = [f"{shape.prefix}{e + entity_offset:06d}" for e in range(num_entities)]
    source_names = [f"{shape.source_prefix}{s:03d}" for s in range(shape.num_sources)]
    triples = [
        (entity_names[e], f"v{v}", source_names[s])
        for e, v, s in zip(t_entity.tolist(), t_value.tolist(), t_source.tolist())
    ]
    truth: dict[tuple[str, str], bool] = {}
    for (entity, attribute, _), label in zip(triples, labels):
        truth[(entity, attribute)] = label
    return Corpus(
        name=shape.prefix,
        triples=triples,
        truth=truth,
        entities=list(dict.fromkeys(entity for entity, _, _ in triples)),
    )
