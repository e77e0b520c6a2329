"""The hot-swappable truth query layer.

:class:`TruthService` is the serve-side of the train/serve split the paper's
Section 5.4 recommends ("standard LTM be infrequently run offline to update
source quality and LTMinc be deployed for online prediction"): it loads a
:class:`~repro.serving.artifact.TruthArtifact` and answers

* **point** queries — :meth:`TruthService.truth_of` — in O(1) via a hash
  index over ``(entity, attribute)``;
* **batch** queries — :meth:`TruthService.batch` — vectorised over pairs;
* **top-k** queries — :meth:`TruthService.top_k` — globally or per entity,
  with per-entity results served through an LRU cache;
* **unseen claims** — :meth:`TruthService.score` — via the closed-form
  LTMinc posterior (Equation 3) under the stored quality table, with
  prior-mean cold-start quality for sources the training run never saw.

All query state lives in one immutable snapshot object; :meth:`refresh`
swaps the snapshot atomically (copy-on-write), so a re-train can publish a
new artifact while in-flight queries keep reading the old one — no locks,
no torn reads.  :meth:`integrate` publishes an arriving batch through the
same swap.

Build one with :func:`serve`, which accepts an artifact path, a fitted
:class:`~repro.engine.TruthEngine`, a :class:`TruthArtifact`, or anything
:func:`repro.io.as_source` accepts (catalog key, triple file, iterable), in
which case it trains first.

Sharded training plugs in unchanged: an engine fitted with
``ExecutionConfig(num_shards=N)`` (see :mod:`repro.parallel`) exports one
merged artifact with identical query semantics, and per-shard artifacts
(:meth:`~repro.engine.TruthEngine.shard_artifacts`) recombine with
:func:`repro.parallel.merge_artifacts` into an artifact this service loads
like any other.

To serve this layer over the network, front it with :mod:`repro.api` — a
dependency-free ASGI application (``repro.api.create_app``, CLI:
``repro-truth serve``) exposing the point / batch / top-k / score paths as
HTTP endpoints, with rate limiting, idempotent ingest and metrics; its
write endpoints publish through :meth:`TruthService.integrate` and
:meth:`TruthService.refresh`, and reads take multi-read-consistent views via
:meth:`TruthService.snapshot`.
"""

from __future__ import annotations

import dataclasses
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.baselines.voting import Voting
from repro.core.base import SourceQualityTable
from repro.core.incremental import IncrementalLTM, prior_mean_predictor
from repro.core.priors import LTMPriors
from repro.data.claim_builder import bulk_build_claim_matrix
from repro.data.dataset import ClaimMatrix
from repro.exceptions import ArtifactError, NotFittedError
from repro.obs import engine_metrics, get_tracer
from repro.serving.artifact import MANIFEST_NAME, TruthArtifact
from repro.types import Triple

__all__ = ["TruthService", "serve"]


class _Snapshot:
    """One immutable, fully-indexed view of an artifact.

    Everything a query touches hangs off this object, so replacing the
    service's snapshot reference is the entire publish step of a refresh.
    """

    __slots__ = (
        "artifact",
        "scores",
        "by_entity",
        "predictor",
        "entity_top",
    )

    def __init__(self, artifact: TruthArtifact, cache_size: int):
        self.artifact = artifact
        # (entity, attribute) -> score: the O(1) point-lookup index.
        self.scores: dict[tuple[str, str], float] = artifact.fact_scores()
        # entity -> [(attribute, score), ...] in fact order.
        self.by_entity: dict[str, list[tuple[str, float]]] = {}
        for (entity, attribute), score in self.scores.items():
            self.by_entity.setdefault(entity, []).append((attribute, score))

        # Cold-start contract: sources unseen at fit time are scored at the
        # prior-mean quality rather than erroring (see TruthService.score).
        priors = artifact.config.params.get("priors")
        priors = priors if isinstance(priors, LTMPriors) else LTMPriors()
        self.predictor: IncrementalLTM | None = (
            None if artifact.quality is None else prior_mean_predictor(artifact.quality, priors)
        )

        # Per-entity ranked results are memoised per snapshot: the cache
        # dies with the snapshot, so a refresh can never serve stale ranks.
        # Close over the index dict, not the snapshot itself — a `self`
        # closure would cycle snapshot -> cache -> snapshot and keep retired
        # snapshots alive until a full GC pass.
        by_entity = self.by_entity

        @lru_cache(maxsize=cache_size)
        def entity_top(entity: str) -> tuple[tuple[str, float], ...]:
            ranked = sorted(by_entity.get(entity, ()), key=lambda item: -item[1])
            return tuple(ranked)

        self.entity_top = entity_top

    def top(self, k: int, entity: str | None = None) -> list[tuple[str, str, float]]:
        """The ``k`` highest-scored facts of *this* snapshot (see ``top_k``)."""
        if entity is not None:
            name = str(entity)
            return [(name, attr, score) for attr, score in self.entity_top(name)[: max(k, 0)]]
        artifact = self.artifact
        k = min(int(k), artifact.num_facts)
        if k <= 0:
            return []
        order = np.argpartition(-artifact.fact_score, k - 1)[:k]
        order = order[np.argsort(-artifact.fact_score[order], kind="stable")]
        return [
            (
                str(artifact.fact_entity[i]),
                str(artifact.fact_attribute[i]),
                float(artifact.fact_score[i]),
            )
            for i in order
        ]


class TruthService:
    """Query layer over a versioned truth artifact, and its only writer.

    :meth:`refresh` publishes a re-trained artifact and :meth:`integrate`
    an arriving batch; each advances :attr:`generation`.

    Parameters
    ----------
    artifact:
        A :class:`~repro.serving.artifact.TruthArtifact` or the path of a
        saved artifact directory.
    cache_size:
        Size of the per-entity LRU cache used by entity-scoped
        :meth:`top_k` / :meth:`lookup` queries.

    Examples
    --------
    >>> from repro.engine import TruthEngine
    >>> from repro.serving import TruthService
    >>> engine = TruthEngine(method="voting").fit("paper_example")
    >>> service = TruthService(engine.to_artifact())
    >>> round(service.truth_of("Harry Potter", "Johnny Depp"), 2)
    0.33
    """

    def __init__(self, artifact: TruthArtifact | str | Path, cache_size: int = 4096):
        if isinstance(artifact, (str, Path)):
            artifact = TruthArtifact.load(artifact)
        if not isinstance(artifact, TruthArtifact):
            raise ArtifactError(
                f"TruthService needs a TruthArtifact or artifact path, "
                f"got {type(artifact).__name__}"
            )
        self._cache_size = int(cache_size)
        self._snapshot = _Snapshot(artifact, self._cache_size)
        self._generation = 1
        self._published_at = time.time()
        engine_metrics().snapshot_generation.set(self._generation)

    # -- snapshot management --------------------------------------------------------
    @property
    def artifact(self) -> TruthArtifact:
        """The artifact currently being served."""
        return self._snapshot.artifact

    @property
    def generation(self) -> int:
        """Monotonic count of published snapshots: 1 at load, +1 per publish."""
        return self._generation

    def snapshot(self) -> _Snapshot:
        """An atomic read view of the currently served state.

        Every attribute of the returned object — ``artifact``, ``scores``,
        ``entity_top``, ``top`` — belongs to *one* published snapshot, so a
        caller making several reads (a score *and* the threshold that
        judges it, say) sees a consistent state even if a concurrent
        :meth:`refresh` swaps the service mid-sequence.  This is the seam
        the :mod:`repro.api` HTTP tier reads through.
        """
        return self._snapshot

    def refresh(self, artifact: TruthArtifact | str | Path) -> "TruthService":
        """Atomically swap in a new artifact (copy-on-write snapshot).

        The replacement snapshot is fully built — indexes, predictor, a
        fresh LRU cache — before the single reference assignment that
        publishes it, so queries racing a refresh see either the old or the
        new state in full, never a mixture.

        Each refresh advances the ``repro_serving_snapshot_generation``
        gauge and records how long the previous snapshot was live in
        ``repro_serving_artifact_age_seconds`` (see :mod:`repro.obs`).
        """
        tracer = get_tracer()
        with tracer.span("service.refresh") as span:
            if isinstance(artifact, (str, Path)):
                artifact = TruthArtifact.load(artifact)
            self._snapshot = _Snapshot(artifact, self._cache_size)
            self._generation += 1
            now = time.time()
            metrics = engine_metrics()
            metrics.snapshot_generation.set(self._generation)
            metrics.artifact_age_seconds.set(max(0.0, now - self._published_at))
            self._published_at = now
            span.set(
                artifact=artifact.name,
                facts=len(artifact.fact_score),
                generation=self._generation,
            )
        return self

    def integrate(self, triples: "Iterable[Triple | tuple]") -> "TruthService":
        """Score an arriving batch (LTMinc) and publish it via :meth:`refresh`.

        Scores like :meth:`score`, or by voting without a quality table.
        Served facts keep their position and new ones append, under a
        scoring-only config: the bytes ``TruthEngine.partial_fit`` exports.
        A bad row or an empty batch raises ``DataModelError``.
        """
        snapshot = self._snapshot
        artifact = snapshot.artifact
        claims = bulk_build_claim_matrix(triples)
        scorer = snapshot.predictor if snapshot.predictor is not None else Voting()
        merged = dict(snapshot.scores)
        merged.update(claims.fact_scores(scorer.fit(claims).scores))
        steps = int(artifact.extras.get("steps_integrated", 0)) + 1
        return self.refresh(
            TruthArtifact(
                config=dataclasses.replace(
                    artifact.config, retrain_every=0, retain_history=False, export_dir=None
                ),
                fact_entity=np.array([entity for entity, _ in merged], dtype=str),
                fact_attribute=np.array([attribute for _, attribute in merged], dtype=str),
                fact_score=np.fromiter(merged.values(), dtype=float, count=len(merged)),
                quality=artifact.quality,
                name=artifact.name,
                extras={"steps_integrated": steps},
            )
        )

    # -- point / batch lookups ------------------------------------------------------
    def truth_of(
        self, entity: str, attribute: str, default: float | None = None
    ) -> float:
        """The stored truth posterior of ``(entity, attribute)`` — O(1).

        Unknown facts return ``default`` when given, else raise ``KeyError``.
        """
        snapshot = self._snapshot
        score = snapshot.scores.get((str(entity), str(attribute)))
        if score is not None:
            return score
        if default is not None:
            return default
        raise KeyError(f"unknown fact ({entity!r}, {attribute!r})")

    def __contains__(self, pair: object) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        return (str(pair[0]), str(pair[1])) in self._snapshot.scores

    def batch(
        self,
        pairs: Iterable[tuple[str, str]],
        default: float = float("nan"),
    ) -> np.ndarray:
        """Vectorised point lookup: one score per ``(entity, attribute)`` pair.

        Unknown facts score ``default`` (NaN unless overridden).
        """
        snapshot = self._snapshot
        scores = snapshot.scores
        return np.array(
            [scores.get((str(e), str(a)), default) for e, a in pairs], dtype=float
        )

    def lookup(self, entity: str) -> list[tuple[str, float]]:
        """All stored attributes of ``entity`` ranked by decreasing score."""
        return list(self._snapshot.entity_top(str(entity)))

    def top_k(self, k: int = 10, entity: str | None = None) -> list[tuple[str, str, float]]:
        """The ``k`` highest-scored facts, globally or for one entity.

        Returns ``(entity, attribute, score)`` tuples in decreasing score
        order.  Entity-scoped queries hit the per-snapshot LRU cache; a ``k``
        of zero or less returns ``[]``.
        """
        return self._snapshot.top(k, entity)

    def merged_records(self, threshold: float | None = None) -> dict[str, list[str]]:
        """Entity -> accepted attribute values at ``threshold``.

        Defaults to the acceptance threshold stored in the artifact's
        engine config.
        """
        snapshot = self._snapshot
        if threshold is None:
            threshold = snapshot.artifact.config.threshold
        merged: dict[str, list[str]] = {}
        for (entity, attribute), score in snapshot.scores.items():
            if score >= threshold:
                merged.setdefault(entity, []).append(attribute)
        return merged

    # -- scoring unseen claims ------------------------------------------------------
    def score(
        self, data: "Iterable[Triple | tuple] | ClaimMatrix"
    ) -> np.ndarray:
        """Score *new* claims with the closed-form LTMinc posterior (Eq. 3).

        Uses the artifact's stored source-quality table; claims from sources
        the training run never saw fall back to the prior-mean quality
        (sensitivity ``priors.sensitivity.mean``, specificity
        ``1 - priors.false_positive.mean``) — the documented cold-start
        behaviour, shared with
        :meth:`repro.engine.TruthEngine.predict_proba`.

        Raises
        ------
        NotFittedError
            If the artifact's method did not learn source quality
            (e.g. voting) — there is nothing to score unseen claims with.
        """
        snapshot = self._snapshot
        if snapshot.predictor is None:
            raise NotFittedError(
                f"artifact {snapshot.artifact.name!r} carries no source-quality "
                f"table (method {snapshot.artifact.method!r}); export from a "
                f"quality-estimating method (e.g. 'ltm') to score new claims"
            )
        claims = data if isinstance(data, ClaimMatrix) else bulk_build_claim_matrix(data)
        return snapshot.predictor.fit(claims).scores

    def score_facts(
        self, data: "Iterable[Triple | tuple] | ClaimMatrix"
    ) -> dict[tuple[str, str], float]:
        """Like :meth:`score`, returned as ``(entity, attribute) -> score``."""
        claims = data if isinstance(data, ClaimMatrix) else bulk_build_claim_matrix(data)
        return claims.fact_scores(self.score(claims))

    # -- introspection ---------------------------------------------------------------
    @property
    def quality(self) -> SourceQualityTable | None:
        """The source-quality table being served (``None`` for quality-less methods)."""
        return self._snapshot.artifact.quality

    def entities(self) -> list[str]:
        """Distinct entities with stored facts, in fact order."""
        return list(self._snapshot.by_entity)

    def __len__(self) -> int:
        return self._snapshot.artifact.num_facts

    def stats(self) -> dict[str, Any]:
        """Serving statistics: artifact identity, sizes, cache state."""
        snapshot = self._snapshot
        info = snapshot.artifact.summary()
        cache = snapshot.entity_top.cache_info()
        info["cache"] = {
            "hits": cache.hits,
            "misses": cache.misses,
            "size": cache.currsize,
            "max_size": cache.maxsize,
        }
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        artifact = self._snapshot.artifact
        return (
            f"TruthService(artifact={artifact.name!r}, method={artifact.method!r}, "
            f"facts={artifact.num_facts})"
        )


def serve(
    data: Any,
    *,
    method: str = "ltm",
    cache_size: int = 4096,
    **params: Any,
) -> TruthService:
    """Build a :class:`TruthService` from anything servable.

    Accepted inputs, in resolution order:

    * a :class:`TruthArtifact` or a saved artifact directory path — served
      directly;
    * a fitted :class:`~repro.engine.TruthEngine` — exported and served;
    * anything :func:`repro.io.as_source` accepts — a dataset-catalog key
      (``serve("books")``), a triple file, a :class:`~repro.io.DataSource`
      or a triple iterable — trained with ``method`` / ``params`` first,
      then served.

    The last form is the catalog-to-serving path: every dataset key that can
    feed :meth:`~repro.engine.TruthEngine.fit` can also be served.
    """
    from repro.engine.facade import TruthEngine

    if isinstance(data, TruthArtifact):
        return TruthService(data, cache_size=cache_size)
    if isinstance(data, TruthEngine):
        return TruthService(data.to_artifact(), cache_size=cache_size)
    if isinstance(data, (str, Path)):
        path = Path(data)
        if (path / MANIFEST_NAME).is_file():
            return TruthService(TruthArtifact.load(path), cache_size=cache_size)
    engine = TruthEngine(method=method, **params).fit(data)
    return TruthService(engine.to_artifact(), cache_size=cache_size)
