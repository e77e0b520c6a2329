"""The batch integration flow: raw triples in, merged records out.

:func:`run_integration` is the canonical end-to-end entry point and one
:meth:`TruthEngine.fit <repro.engine.TruthEngine.fit>`: the engine resolves
the input (catalog keys, files, ``store://`` URLs, datasets, raw databases
and in-memory triples all work), builds the fact and claim tables of
Definitions 2-3, fits the method and thresholds the scores.  With an
:class:`~repro.engine.ExecutionConfig` of ``num_shards > 1`` the same fit
runs entity-sharded through :mod:`repro.parallel`.  :func:`repro.discover`
wraps it in one line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.base import SourceQualityTable, TruthMethod, TruthResult
from repro.data.dataset import ClaimMatrix
from repro.data.raw import RawDatabase
from repro.engine.config import EngineConfig, ExecutionConfig
from repro.engine.facade import TruthEngine
from repro.exceptions import ConfigurationError
from repro.types import Triple

__all__ = ["IntegrationResult", "run_integration"]


@dataclass
class IntegrationResult:
    """Everything produced by one integration run.

    Attributes
    ----------
    merged_records:
        Mapping of entity to the attribute values accepted as true.
    rejected_records:
        Mapping of entity to the asserted attribute values rejected as false.
    fact_scores:
        Mapping of ``(entity, attribute)`` to the inferred truth probability.
    source_quality:
        Per-source quality table, when the method provides one.
    truth_result:
        The raw solver output.
    claims:
        The claim matrix the solver was fitted on.
    """

    merged_records: dict[str, list[str]] = field(default_factory=dict)
    rejected_records: dict[str, list[str]] = field(default_factory=dict)
    fact_scores: dict[tuple[str, str], float] = field(default_factory=dict)
    source_quality: SourceQualityTable | None = None
    truth_result: TruthResult | None = None
    claims: ClaimMatrix | None = None

    @classmethod
    def from_engine(cls, engine: TruthEngine) -> "IntegrationResult":
        """The result of ``engine``'s last fit."""
        truth_result = engine.result()
        return cls(
            merged_records=engine.merged_records(),
            rejected_records=engine.rejected_records(),
            fact_scores=engine.fact_scores,
            source_quality=truth_result.source_quality,
            truth_result=truth_result,
            claims=engine.claims(),
        )

    def accepted_values(self, entity: str) -> list[str]:
        """Accepted attribute values of ``entity`` (empty when unknown)."""
        return list(self.merged_records.get(entity, ()))

    def num_accepted(self) -> int:
        """Total number of accepted facts."""
        return sum(len(values) for values in self.merged_records.values())

    def num_rejected(self) -> int:
        """Total number of rejected facts."""
        return sum(len(values) for values in self.rejected_records.values())


def run_integration(
    data: "Iterable[Triple | tuple] | RawDatabase | str | Any",
    *,
    method: TruthMethod | str | None = None,
    threshold: float = 0.5,
    execution: ExecutionConfig | None = None,
    **method_params: Any,
) -> IntegrationResult:
    """Run the full integration flow and return an :class:`IntegrationResult`.

    Parameters
    ----------
    data:
        The assertions to integrate: raw triples, a
        :class:`~repro.data.raw.RawDatabase`, a
        :class:`~repro.data.dataset.TruthDataset`, any
        :class:`~repro.io.base.DataSource`, or a dataset-catalog key / file
        path / ``store://`` URL (resolved through :func:`repro.io.as_source`).
    method:
        The truth-finding method: a :class:`~repro.core.base.TruthMethod`
        instance, a registry key such as ``"voting"`` (resolved through
        :func:`repro.engine.default_registry` and built with
        ``method_params``), or ``None`` for ``"ltm"``
        (:class:`~repro.core.model.LatentTruthModel`) with library defaults.
    threshold:
        Truth-probability threshold above which a fact is accepted into the
        merged records.
    execution:
        Optional :class:`~repro.engine.ExecutionConfig`; with
        ``num_shards > 1`` the fit runs entity-sharded through
        :mod:`repro.parallel` (requires a registry key — shard workers
        resolve the solver through the registry).
    **method_params:
        Hyperparameters for registry construction when ``method`` is a
        key (e.g. ``iterations``, ``seed``).
    """
    solver = method if isinstance(method, TruthMethod) else None
    if solver is not None and method_params:
        raise ConfigurationError(
            "method hyperparameters are only accepted with a string method name"
        )
    config = EngineConfig(
        method="ltm" if method is None or solver is not None else method,
        params=method_params,
        threshold=threshold,
        execution=execution if execution is not None else ExecutionConfig(),
    )
    return IntegrationResult.from_engine(TruthEngine(config, solver=solver).fit(data))
