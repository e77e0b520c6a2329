"""Declarative configuration of a :class:`~repro.engine.TruthEngine`.

An :class:`EngineConfig` is a plain, serialisable description of one engine:
which method to run (a registry key), the hyperparameters to build it with,
and the execution options (acceptance threshold, streaming re-train cadence).
Because it is data rather than code, a config can be loaded from JSON/YAML,
logged, diffed and shipped between services — the property that lets later
work (serving, sharding, multi-backend) treat truth discovery as a
configuration concern.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

from repro.exceptions import ConfigurationError
from repro.obs.config import TelemetryConfig

__all__ = ["EngineConfig", "ExecutionConfig", "TelemetryConfig"]

#: Executor backends accepted by :attr:`ExecutionConfig.backend`.
EXECUTION_BACKENDS = ("serial", "processes")


@dataclass(frozen=True)
class ExecutionConfig:
    """How a fit is executed: single-shard or entity-sharded parallel.

    The default (``num_shards=1``) is the classic single-shard path.  With
    ``num_shards > 1``, :meth:`~repro.engine.TruthEngine.fit` (and streaming
    re-fits) hash-partition the input by entity through
    :class:`~repro.parallel.ShardPlanner`, fit every shard on the configured
    backend and merge the per-shard results with
    :mod:`repro.parallel.merge` — score-parity with the single-shard engine
    for entity-decomposable methods (see :mod:`repro.parallel`).

    Attributes
    ----------
    num_shards:
        Number of entity shards (1 = no sharding).
    backend:
        Where shard fits run: ``"serial"`` (in-process loop — the debug /
        reference backend) or ``"processes"`` (a process pool, one worker
        per shard up to ``max_workers``).
    quality_sync_rounds:
        Number of post-merge quality-synchronisation rounds for
        count-mergeable methods (LTM family): each round recomputes the
        global source quality from the summed per-shard confusion counts
        and re-scores every shard's facts under it with the closed-form
        posterior (Equation 3), so cross-shard sources converge to a single
        quality estimate.  0 keeps the raw per-shard scores.
    max_workers:
        Worker cap for the processes backend (``None`` = one per
        shard, capped by the machine).
    partition_seed:
        Seed of the entity hash-partitioning
        (:func:`repro.io.entity_partition_key`); changing it re-balances
        shard membership deterministically.
    """

    num_shards: int = 1
    backend: str = "serial"
    quality_sync_rounds: int = 1
    max_workers: int | None = None
    partition_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if self.backend not in EXECUTION_BACKENDS:
            raise ConfigurationError(
                f"unknown execution backend {self.backend!r}; "
                f"choose one of {list(EXECUTION_BACKENDS)}"
            )
        if self.quality_sync_rounds < 0:
            raise ConfigurationError("quality_sync_rounds must be non-negative")
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1 (or None)")

    @property
    def sharded(self) -> bool:
        """Whether this config requests multi-shard execution."""
        return self.num_shards > 1

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionConfig":
        """Build an execution config from a plain mapping (e.g. parsed JSON)."""
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown ExecutionConfig keys: {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        return cls(**dict(data))

    def to_dict(self) -> dict[str, Any]:
        """The execution config as a plain JSON-safe dict."""
        return asdict(self)


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to build and run a :class:`~repro.engine.TruthEngine`.

    Attributes
    ----------
    method:
        Registry key (or alias) of the solver, e.g. ``"ltm"``, ``"voting"``,
        ``"three_estimates"``.
    params:
        Keyword arguments passed to the method's factory (hyperparameters
        such as ``iterations``, ``seed``, ``priors``).
    threshold:
        Truth-probability threshold above which a fact is accepted into the
        merged records.
    retrain_every:
        Streaming only: re-fit the full model after every ``retrain_every``
        calls to :meth:`~repro.engine.TruthEngine.partial_fit`
        (0 disables periodic re-training).
    cumulative:
        Streaming only: when true (default) re-fits use all data seen so
        far; when false they use only the data since the previous re-fit,
        with learned quality carried over as priors (paper Section 5.4).
    export_dir:
        Streaming only: when set, :meth:`~repro.engine.TruthEngine.partial_fit`
        publishes a :class:`~repro.serving.TruthArtifact` under this
        directory (``step_00001``, ``step_00002``, ...) so a concurrently
        running :class:`~repro.serving.TruthService` can
        :meth:`~repro.serving.TruthService.refresh` onto the newest snapshot.
    export_every:
        Streaming only: publish an artifact after every ``export_every``
        :meth:`~repro.engine.TruthEngine.partial_fit` steps (default 1:
        every step).
    retain_history:
        Streaming only: when true (default) the engine accumulates every
        triple it has seen, so cumulative re-fits and
        :meth:`~repro.engine.TruthEngine.fit` with no data cover the full
        stream.  Set false for out-of-core streams whose history lives
        elsewhere (e.g. a :class:`~repro.store.claims.ClaimStore` the engine
        reads through a :class:`~repro.io.store_source.StoreSource`): the
        engine then holds only the current re-train window (nothing when
        ``retrain_every=0``), bounding its memory by batch size.  Incompatible with cumulative periodic re-training
        (``cumulative=True`` with ``retrain_every > 0``), which by
        definition needs the full history in reach.
    execution:
        The :class:`ExecutionConfig` governing sharded parallel execution
        (defaults to single-shard serial).  A plain dict is accepted and
        coerced, so configs keep loading from JSON.
    telemetry:
        The :class:`~repro.obs.config.TelemetryConfig` governing tracing of
        this engine's fits (defaults to disabled — see :mod:`repro.obs`).
        A plain dict is accepted and coerced, like ``execution``.
    """

    method: str = "ltm"
    params: dict[str, Any] = field(default_factory=dict)
    threshold: float = 0.5
    retrain_every: int = 5
    cumulative: bool = True
    export_dir: str | None = None
    export_every: int = 1
    retain_history: bool = True
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if isinstance(self.execution, Mapping):
            object.__setattr__(self, "execution", ExecutionConfig.from_dict(self.execution))
        elif not isinstance(self.execution, ExecutionConfig):
            raise ConfigurationError(
                "execution must be an ExecutionConfig (or a mapping of its fields)"
            )
        if isinstance(self.telemetry, Mapping):
            object.__setattr__(self, "telemetry", TelemetryConfig.from_dict(self.telemetry))
        elif not isinstance(self.telemetry, TelemetryConfig):
            raise ConfigurationError(
                "telemetry must be a TelemetryConfig (or a mapping of its fields)"
            )
        if not isinstance(self.method, str) or not self.method.strip():
            raise ConfigurationError("method must be a non-empty string")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError("threshold must lie in [0, 1]")
        if self.retrain_every < 0:
            raise ConfigurationError("retrain_every must be non-negative")
        if self.export_every < 1:
            raise ConfigurationError("export_every must be at least 1")
        if not self.retain_history and self.cumulative and self.retrain_every:
            raise ConfigurationError(
                "retain_history=False cannot support cumulative periodic "
                "re-training; set cumulative=False (windowed re-fits) or "
                "retrain_every=0 (no re-training)"
            )
        object.__setattr__(self, "params", dict(self.params))

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        """Build a config from a plain mapping (e.g. parsed JSON).

        Unknown keys are rejected so that typos in config files fail loudly.
        """
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown EngineConfig keys: {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        return cls(**dict(data))

    def to_dict(self) -> dict[str, Any]:
        """The config as a plain dict (inverse of :meth:`from_dict`)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["params"] = dict(self.params)
        out["execution"] = self.execution.to_dict()
        out["telemetry"] = self.telemetry.to_dict()
        return out

    def with_overrides(self, **overrides: Any) -> "EngineConfig":
        """A copy of the config with ``overrides`` applied."""
        if "params" in overrides and overrides["params"] is not None:
            overrides["params"] = dict(overrides["params"])
        return replace(self, **overrides)

    def with_params(self, **params: Any) -> "EngineConfig":
        """A copy with ``params`` merged into the hyperparameters."""
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=merged)
