"""``repro.obs`` — process-wide telemetry: tracing spans, unified metrics.

The observability spine of the library.  Every pillar records into the same
two primitives:

* **Tracing** (:mod:`repro.obs.trace`) — nested, wall-clock-timed spans
  covering the full lifecycle: ``fit`` / ``partial_fit``
  (:class:`~repro.engine.TruthEngine`), chunked ``gibbs.iteration`` spans
  (:class:`~repro.core.gibbs.CollapsedGibbsSampler`), ``shard.plan`` /
  ``shard.fit`` / ``shard.merge`` (:mod:`repro.parallel` — worker spans
  cross process boundaries as plain dicts and are grafted into one tree),
  ``store.append`` / ``store.compact``
  (:class:`~repro.store.claims.ClaimStore`), ``source.iter_batches``
  (:class:`~repro.io.DataSource`), ``service.refresh``
  (:class:`~repro.serving.TruthService`) and ``artifact.save`` /
  ``artifact.load``.  Disabled by default at near-zero cost; enabled by
  :func:`configure`, by ``EngineConfig(telemetry=...)``, or by the CLI's
  ``--telemetry`` / ``--trace-out`` flags.

* **Metrics** (:mod:`repro.obs.metrics`) — the Prometheus-format
  counter/gauge/histogram registry the HTTP tier has always used, plus a
  process-global default registry carrying the engine-side series
  (``repro_engine_*``, ``repro_gibbs_*``, ``repro_parallel_*``,
  ``repro_store_*``, ``repro_serving_*``).  ``GET /metrics`` exposes both.

Typical use::

    >>> from repro import obs
    >>> tracer = obs.configure()                      # record in memory
    >>> # ... run fits / stores / services ...
    >>> spans = tracer.collector.spans                # finished span dicts
    >>> obs.shutdown()                                # back to the no-op tracer

Instrumented code never holds a tracer: it calls :func:`get_tracer` at use
time, which resolves the context-local tracer (installed per shard worker by
:func:`use_tracer`) and falls back to the process-global one.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator

from repro.obs.config import TelemetryConfig
from repro.obs.metrics import (
    Counter,
    EngineMetrics,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    engine_metrics,
    global_registry,
    reset_global_registry,
    set_global_registry,
)
from repro.obs.trace import (
    InMemorySpanCollector,
    JsonlSpanExporter,
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
)

__all__ = [
    "TelemetryConfig",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "EngineMetrics",
    "engine_metrics",
    "global_registry",
    "set_global_registry",
    "reset_global_registry",
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "InMemorySpanCollector",
    "JsonlSpanExporter",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "configure",
    "tracer_for",
    "shutdown",
    "reset",
]

_STATE: dict = {"tracer": NOOP_TRACER}

# Worker-scoped tracer override: a shard worker (repro.parallel.executor)
# installs its isolated collecting tracer here so the code it runs — the
# Gibbs sampler, store reads — records into the worker's tree without
# touching process-global state (context vars are per-thread, so
# concurrent callers never see each other's tracer).
import contextvars as _contextvars

_ACTIVE: _contextvars.ContextVar = _contextvars.ContextVar(
    "repro_obs_active_tracer", default=None
)


def get_tracer() -> "Tracer | NoopTracer":
    """The tracer instrumentation records into right now.

    Resolution order: the context-local tracer installed by
    :func:`use_tracer` (shard workers), else the process-global tracer
    (:func:`configure` / :func:`set_tracer`), else :data:`NOOP_TRACER`.
    """
    active = _ACTIVE.get()
    return active if active is not None else _STATE["tracer"]


def set_tracer(tracer: "Tracer | NoopTracer") -> "Tracer | NoopTracer":
    """Install ``tracer`` process-globally; returns the previous one."""
    previous = _STATE["tracer"]
    _STATE["tracer"] = tracer
    return previous


@contextlib.contextmanager
def use_tracer(tracer: "Tracer | NoopTracer") -> Iterator["Tracer | NoopTracer"]:
    """Context-locally override :func:`get_tracer` (per-worker isolation)."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def configure(
    *,
    trace_path: str | None = None,
    collector: InMemorySpanCollector | None = None,
    clock: Callable[[], float] = time.time,
) -> Tracer:
    """Install a recording process-global tracer and return it.

    Always attaches an :class:`InMemorySpanCollector` (reachable as
    ``tracer.collector``); ``trace_path`` additionally streams every span to
    a canonical-JSON lines file for ``repro-truth obs summary|tail``.
    ``clock`` is injectable for byte-stable exports in tests.
    """
    sinks: list = [collector if collector is not None else InMemorySpanCollector()]
    if trace_path:
        sinks.append(JsonlSpanExporter(trace_path))
    tracer = Tracer(*sinks, clock=clock)
    set_tracer(tracer)
    return tracer


def tracer_for(telemetry: "TelemetryConfig | None") -> "Tracer | NoopTracer":
    """The tracer a run under ``telemetry`` should record into.

    An already-active recording tracer always wins (so ``obs.configure()``
    traces every engine in the process); otherwise an
    ``enabled`` config installs one — honouring its ``trace_path`` — and a
    disabled/absent config leaves the no-op tracer in place.
    """
    active = get_tracer()
    if active.enabled:
        return active
    if telemetry is not None and telemetry.enabled:
        return configure(trace_path=telemetry.trace_path)
    return active


def shutdown() -> None:
    """Close the global tracer's sinks and restore the no-op tracer."""
    tracer = _STATE["tracer"]
    tracer.close()
    _STATE["tracer"] = NOOP_TRACER


def reset() -> None:
    """Full telemetry reset: no-op tracer and a fresh global metrics registry.

    Test isolation: spans and engine-side metric series recorded by one test
    never leak into the next.
    """
    shutdown()
    reset_global_registry()
