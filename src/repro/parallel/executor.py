"""Backend-pluggable execution of a shard plan.

:class:`ParallelExecutor` fits the configured solver on every shard of a
:class:`~repro.parallel.plan.ShardPlan` and reduces the results with
:func:`~repro.parallel.merge.merge_shard_fits`.  Two backends share one
worker function, so a fit is **deterministic for a fixed seed across
backends**:

* ``"serial"`` — an in-process loop; the debug / reference backend.
* ``"processes"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  shards fit in parallel, free of the GIL that serialises the Python-loop
  Gibbs sampler.

The process handoff is deliberately *object-free*: a shard crosses the
boundary as its rows exactly as the plan holds them —
:class:`~repro.types.Triple` tuples, which pickle like plain
``(entity, attribute, source)`` tuples — or, for a plan over an on-disk
claim store, as the store's path and the shard's entity keys.  With it go a
JSON-safe encoding of the solver hyperparameters (the same type-tagged
encoding artifacts use), and each worker rebuilds its claim matrix through
the vectorized bulk-ingest path
(:func:`~repro.data.claim_builder.bulk_build_claim_matrix`).  No solver,
matrix or rich config object is ever pickled — and because *both*
backends round-trip the hyperparameters through that encoding, they see
byte-identical inputs.

Per-shard randomness is derived from one :class:`numpy.random.SeedSequence`
spawned per shard slot, so shard seeds do not depend on which shards are
empty, on completion order, or on the backend.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro import obs
from repro.core.quality import expected_confusion_counts
from repro.data.claim_builder import bulk_build_claim_matrix
from repro.engine.config import EXECUTION_BACKENDS
from repro.engine.registry import MethodRegistry, default_registry
from repro.exceptions import ConfigurationError
from repro.parallel.merge import MergedFit, ShardFit, merge_shard_fits
from repro.parallel.plan import ShardPlan

# The artifact layer's type-tagged (de)serialisation doubles as the worker
# handoff codec: it is the one place rich params (LTMPriors, quality tables)
# already round-trip losslessly through plain JSON-safe containers.
from repro.serving.artifact import _decode_param, _encode_param
from repro.store.claims import ClaimStore
from repro.types import EntityKey

__all__ = ["ShardTask", "fit_shard", "ParallelExecutor"]


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: everything a worker needs, in plain containers.

    Attributes
    ----------
    index, num_shards:
        Shard slot and plan width.
    method:
        Canonical registry key of the solver.
    params:
        Solver hyperparameters, encoded with the artifact codec (decoded in
        the worker, identically on every backend).
    seed:
        Shard-specific seed derived from the base seed's
        :class:`~numpy.random.SeedSequence` (``None`` when the method is
        unseeded or no base seed was given).
    strategy:
        The method's shard-merge strategy (drives what the worker returns).
    triples:
        The shard's raw rows, :class:`~repro.types.Triple` or plain
        ``(entity, attribute, source)`` tuples (empty for a store task).
    store_path, entities:
        For a plan over an on-disk claim store: the store to read and the
        shard's entity keys in plan order.  The worker reopens the store
        read-only (SQLite WAL serves any number of concurrent readers) and
        reads only these entities' triples, so a shard crosses the process
        boundary as a key list.
    span_context:
        The caller's open span as a plain ``{"trace_id", "span_id"}`` dict
        (``None`` when tracing is off).  Its presence tells the worker to
        record telemetry; the executor grafts the worker's spans back under
        this context so one merged tree covers plan → shard fits → merge
        even across process boundaries.
    """

    index: int
    num_shards: int
    method: str
    params: Mapping[str, Any]
    seed: int | None
    strategy: str
    triples: tuple[tuple, ...] = ()
    store_path: str | None = None
    entities: tuple[EntityKey, ...] = ()
    span_context: Mapping[str, Any] | None = None


def fit_shard(task: ShardTask, registry: MethodRegistry | None = None) -> ShardFit:
    """Fit one shard and return its :class:`~repro.parallel.merge.ShardFit`.

    This is the process-pool entry point (module-level, picklable).  The
    shard matrix is rebuilt with the bulk claim-matrix path; because claim
    generation is entity-local, it is an exact entity-subset of the
    single-shard matrix.

    ``registry`` lets the in-process ``serial`` backend resolve methods
    from a caller-supplied registry; process workers always resolve against
    the shared default registry (registries do not cross the process
    boundary).

    A store task's triples are read from its claim store, laid out like the
    grouped plan's shard (entities in plan order, each entity's triples in
    ingest order), so both plans produce identical fits.  When traced, the
    read runs inside ``shard.fit`` as its ``store.read`` child span.

    For the ``trust_sync`` strategy the solver is constructed (validating
    hyperparameters) but not fitted — its iterations run cooperatively in
    the reducer — so the worker only extracts the shard's claim structure.

    When the task carries a ``span_context`` (or an enabled tracer is
    ambient — the serial backend), the fit runs under a
    worker-isolated tracer: its ``shard.fit`` span and everything recorded
    beneath it (chunked Gibbs sweeps) come back on
    :attr:`~repro.parallel.merge.ShardFit.spans` as plain dicts for the
    executor to graft into the caller's tree.
    """
    ambient = obs.get_tracer()
    if task.span_context is None and not ambient.enabled:
        return _fit_shard_impl(task, _read_triples(task), registry)
    collector = obs.InMemorySpanCollector()
    tracer = obs.Tracer(collector, clock=ambient.clock)
    with obs.use_tracer(tracer):
        with tracer.span("shard.fit", shard=task.index, method=task.method) as span:
            triples = _read_triples(task)
            span.set(triples=len(triples))
            fit = _fit_shard_impl(task, triples, registry)
            span.set(facts=fit.num_facts, sources=len(fit.source_names))
    return dataclasses.replace(fit, spans=tuple(collector.spans))


def _read_triples(task: ShardTask) -> tuple[tuple, ...]:
    """The task's rows: its own, or its entities' rows read from its claim store.

    A store read records a ``store.read`` span into the current tracer — a
    child of the worker's ``shard.fit`` when traced, nothing when not.
    """
    if task.store_path is None:
        return task.triples
    with obs.get_tracer().span("store.read", entities=len(task.entities)) as span:
        with ClaimStore(task.store_path, read_only=True) as store:
            triples = tuple(store.entity_triples(task.entities))
        span.set(triples=len(triples))
    return triples


def _fit_shard_impl(
    task: ShardTask, triples: tuple[tuple, ...], registry: MethodRegistry | None
) -> ShardFit:
    matrix = bulk_build_claim_matrix(triples)
    params = {key: _decode_param(value) for key, value in dict(task.params).items()}
    if task.seed is not None:
        params["seed"] = int(task.seed)
    resolved = registry if registry is not None else default_registry()
    spec = resolved.spec(task.method)
    solver = spec.factory(**params)

    scores: np.ndarray | None = None
    quality = None
    expected = None
    runtime = 0.0
    if task.strategy != "trust_sync":
        result = solver.fit(matrix)
        scores = np.asarray(result.scores, dtype=float)
        quality = result.source_quality
        runtime = float(result.runtime_seconds)
        if task.strategy in ("counts", "counts_positive"):
            # LTM-family solvers record their expected counts (LTMpos over
            # its positive-only matrix); recompute only when absent, on the
            # matching observation domain.
            expected = result.extras.get("expected_counts")
            if expected is None:
                counted = (
                    matrix.positive_only() if task.strategy == "counts_positive" else matrix
                )
                expected = expected_confusion_counts(counted, scores)
            expected = np.asarray(expected, dtype=float)

    return ShardFit(
        index=task.index,
        num_shards=task.num_shards,
        fact_entities=[fact.entity for fact in matrix.facts],
        fact_attributes=[fact.attribute for fact in matrix.facts],
        scores=scores,
        source_names=list(matrix.source_names),
        claim_fact=matrix.claim_fact,
        claim_source=matrix.claim_source,
        claim_obs=matrix.claim_obs,
        expected_counts=expected,
        quality=quality,
        runtime_seconds=runtime,
    )


class ParallelExecutor:
    """Fits a shard plan on a pluggable backend and merges the results.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"processes"`` (see module docstring).
    max_workers:
        Worker cap for the pool backends; defaults to
        ``min(num_tasks, cpu_count)``.

    Examples
    --------
    >>> from repro.parallel import ParallelExecutor, ShardPlanner
    >>> plan = ShardPlanner(2).plan("paper_example")
    >>> merged = ParallelExecutor("serial").fit(plan, "voting")
    >>> merged.num_facts
    5
    """

    def __init__(self, backend: str = "serial", max_workers: int | None = None):
        if backend not in EXECUTION_BACKENDS:
            raise ConfigurationError(
                f"unknown execution backend {backend!r}; "
                f"choose one of {list(EXECUTION_BACKENDS)}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1 (or None)")
        self.backend = backend
        self.max_workers = max_workers

    # -- shard seeding ---------------------------------------------------------------
    @staticmethod
    def shard_seeds(base_seed: int | None, num_shards: int) -> list[int | None]:
        """Per-shard seeds spawned from ``base_seed``'s :class:`SeedSequence`.

        One seed per shard *slot* (empty shards included), so a shard's seed
        never depends on which other shards hold data.  ``None`` propagates
        (unseeded stays unseeded).
        """
        if base_seed is None:
            return [None] * num_shards
        children = np.random.SeedSequence(int(base_seed)).spawn(num_shards)
        return [int(child.generate_state(1, dtype=np.uint32)[0]) for child in children]

    # -- fitting ---------------------------------------------------------------------
    def fit(
        self,
        plan: ShardPlan,
        method: str,
        params: Mapping[str, Any] | None = None,
        *,
        quality_sync_rounds: int = 0,
        registry: MethodRegistry | None = None,
    ) -> MergedFit:
        """Fit ``method`` on every shard of ``plan`` and merge the results.

        Parameters
        ----------
        plan:
            The entity-shard plan (empty shards are skipped).  A grouped
            plan carries its triples; a plan with a ``store_path`` carries
            only entity keys, and each worker reads its shard's triples
            from that claim store via indexed range reads.
        method:
            Registry key of the solver; it must declare a
            :attr:`~repro.engine.registry.MethodSpec.shard_strategy`.
        params:
            Solver hyperparameters (the per-shard seed is derived from
            ``params["seed"]`` when the method is seeded).
        quality_sync_rounds:
            Quality-synchronisation rounds of the count merge (see
            :mod:`repro.parallel.merge`).
        registry:
            Method registry to resolve against (defaults to the shared one).
        """
        resolved = registry if registry is not None else default_registry()
        spec = resolved.spec(method)
        if not spec.claim_based:
            raise ConfigurationError(
                f"method {spec.key!r} does not consume claim matrices and cannot "
                f"be executed by the sharded executor"
            )
        if spec.shard_strategy is None:
            shardable = sorted(
                s.key for s in resolved.specs() if s.shard_strategy is not None
            )
            raise ConfigurationError(
                f"method {spec.key!r} couples facts across entities and has no "
                f"entity-sharded execution strategy; shardable methods: {shardable}"
            )
        if self.backend == "processes":
            # Process workers resolve methods against the default registry
            # (a registry object cannot cross the handoff); refuse methods
            # it does not know rather than failing inside a worker.
            shared = default_registry()
            if spec.key not in shared or shared.spec(spec.key).factory is not spec.factory:
                raise ConfigurationError(
                    f"method {spec.key!r} is not resolvable from the shared "
                    f"default registry; custom-registry methods shard only on "
                    f"the 'serial' backend"
                )
        params = dict(params or {})
        encoded = {key: _encode_param(value) for key, value in params.items()}
        base_seed = params.get("seed") if spec.accepts("seed") else None
        seeds = self.shard_seeds(
            int(base_seed) if base_seed is not None else None, plan.num_shards
        )
        tracer = obs.get_tracer()
        context = tracer.current_context() if tracer.enabled else None
        tasks = [
            ShardTask(
                index=shard.index,
                num_shards=plan.num_shards,
                method=spec.key,
                params=encoded,
                seed=seeds[shard.index],
                strategy=spec.shard_strategy,
                triples=shard.triples,
                store_path=plan.store_path,
                entities=shard.entities if plan.store_path is not None else (),
                span_context=context,
            )
            for shard in plan.non_empty()
        ]
        if not tasks:
            raise ConfigurationError("cannot execute an empty shard plan (no triples)")
        fits = self._run(tasks, resolved)
        metrics = obs.engine_metrics()
        for fit in fits:
            metrics.shard_fit_seconds.observe(fit.runtime_seconds, backend=self.backend)
            if fit.spans:
                tracer.adopt(fit.spans, context=context)
        with tracer.span(
            "shard.merge",
            strategy=spec.shard_strategy,
            shards=len(fits),
            backend=self.backend,
            quality_sync_rounds=quality_sync_rounds,
        ):
            return merge_shard_fits(
                fits,
                spec.shard_strategy,
                params=params,
                quality_sync_rounds=quality_sync_rounds,
                num_shards=plan.num_shards,
            )

    def _run(self, tasks: list[ShardTask], registry: MethodRegistry) -> list[ShardFit]:
        """Dispatch ``tasks`` on the configured backend."""
        if self.backend == "serial" or len(tasks) == 1:
            return [fit_shard(task, registry=registry) for task in tasks]
        workers = self.max_workers
        if workers is None:
            workers = min(len(tasks), os.cpu_count() or 1)
        workers = min(workers, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fit_shard, tasks))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(backend={self.backend!r}, max_workers={self.max_workers})"
