"""Entity-sharded parallel execution (the library's scale-out seam).

The fourth pillar next to :mod:`repro.engine` (solve), :mod:`repro.io`
(ingest) and :mod:`repro.serving` (serve): split a corpus into entity
shards, fit every shard on a pluggable backend, and merge the results back
into one engine- and serving-compatible fit.

* :class:`~repro.parallel.plan.ShardPlanner` — stable hash-partitioning of
  any :class:`~repro.io.DataSource` by entity
  (:func:`repro.io.entity_partition_key`), with optional group routing so
  entity clusters co-locate; a source over an on-disk claim store
  (:mod:`repro.store.claims`) is planned by streaming entity keys alone —
  workers pull their triples through indexed range reads, so corpora never
  materialise in the planner;
* :class:`~repro.parallel.executor.ParallelExecutor` — ``serial`` /
  ``processes`` backends sharing one worker, deterministic for a fixed
  seed across backends;
* :mod:`repro.parallel.merge` — score-parity reducers per method family
  (exact for Voting / LTMinc, synchronised-trust exact for TruthFinder,
  count-summed with quality-sync rounds for the LTM family), plus
  :func:`~repro.parallel.merge.merge_artifacts` to combine per-shard
  serving artifacts.

Most users never touch this package directly: set
``EngineConfig(execution=ExecutionConfig(num_shards=4, backend="processes"))``
(or ``repro-truth integrate --shards 4 --backend processes``) and
:class:`~repro.engine.TruthEngine` routes fits through it automatically.
"""

from repro.parallel.executor import ParallelExecutor, ShardTask, fit_shard
from repro.parallel.merge import (
    MergedFit,
    ShardFit,
    merge_artifacts,
    merge_shard_fits,
    shard_artifact,
)
from repro.parallel.plan import Shard, ShardPlan, ShardPlanner

__all__ = [
    "Shard",
    "ShardPlan",
    "ShardPlanner",
    "ShardTask",
    "ShardFit",
    "MergedFit",
    "ParallelExecutor",
    "fit_shard",
    "merge_shard_fits",
    "merge_artifacts",
    "shard_artifact",
]
