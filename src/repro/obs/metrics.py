"""Process-wide metrics: counters, gauges, histograms, Prometheus rendering.

This module is the single home of the metric primitives the library uses —
:class:`Counter`, :class:`Gauge`, :class:`Histogram` and the
:class:`MetricsRegistry` that renders them in the Prometheus text exposition
format (version 0.0.4).  They back the HTTP tier's ``GET /metrics``, and
the engine, the shard executor, the claim store and the serving layer
record into the same primitives.

Two registries coexist by convention:

* each :class:`~repro.api.TruthAPI` keeps its *per-app* registry for the
  request-scoped series (``repro_api_*``), exactly as before;
* everything below the HTTP tier records into the **process-global default
  registry** (:func:`global_registry`), under disjoint name prefixes
  (``repro_engine_*``, ``repro_gibbs_*``, ``repro_parallel_*``,
  ``repro_store_*``, ``repro_serving_*``).  ``GET /metrics`` renders its app
  registry followed by the global one, so one scrape sees both.

:func:`engine_metrics` lazily registers the engine-side series (creation is
idempotent — repeated calls return the same metric objects), so a process
that never fits anything exposes no engine series.

Metric label values are always bounded vocabularies (method keys, backend
names, operation names), never raw user data, so cardinality stays bounded.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "FIT_SECONDS_BUCKETS",
    "ITERATION_BUCKETS",
    "FRACTION_BUCKETS",
    "EngineMetrics",
    "engine_metrics",
    "global_registry",
    "set_global_registry",
    "reset_global_registry",
]

#: Default latency histogram bucket upper bounds, in seconds.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5
)

#: Bucket bounds for whole-fit / per-shard wall times, in seconds.
FIT_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 300.0,
)

#: Bucket bounds for Gibbs iteration budgets (the paper's Figure 5 grid).
ITERATION_BUCKETS = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)

#: Bucket bounds for fractions in [0, 1] (flip fractions, acceptance rates).
FRACTION_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    escaped = ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in key
    )
    return "{" + escaped + "}"


class Counter:
    """A monotonically increasing labelled counter."""

    kind = "counter"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help_text = help_text
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def render(self) -> Iterable[str]:
        for key in sorted(self._values):
            yield f"{self.name}{_render_labels(key)} {_format_value(self._values[key])}"


class Gauge(Counter):
    """A labelled gauge — a counter whose value can also be set outright."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)


class Histogram:
    """A labelled cumulative histogram with fixed bucket bounds."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ):
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        self._counts: dict[tuple[tuple[str, str], ...], list[int]] = {}
        self._sums: dict[tuple[tuple[str, str], ...], float] = {}
        self._totals: dict[tuple[tuple[str, str], ...], int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def render(self) -> Iterable[str]:
        for key in sorted(self._totals):
            # observe() increments every bucket whose bound covers the value,
            # so the stored counts are already cumulative (Prometheus form).
            counts = self._counts[key]
            for bound, bucket_count in zip(self.buckets, counts):
                bucket_key = key + (("le", _format_value(bound)),)
                yield f"{self.name}_bucket{_render_labels(bucket_key)} {bucket_count}"
            inf_key = key + (("le", "+Inf"),)
            yield f"{self.name}_bucket{_render_labels(inf_key)} {self._totals[key]}"
            yield f"{self.name}_sum{_render_labels(key)} {_format_value(self._sums[key])}"
            yield f"{self.name}_count{_render_labels(key)} {self._totals[key]}"


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


class MetricsRegistry:
    """A named set of metrics rendered as one Prometheus text document."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str, help_text: str) -> Counter:
        return self._get_or_create(name, help_text, Counter)

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self._get_or_create(name, help_text, Gauge)

    def histogram(
        self, name: str, help_text: str, buckets: tuple[float, ...] = LATENCY_BUCKETS
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help_text, buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is already registered as {metric.kind}")
        return metric

    def _get_or_create(self, name, help_text, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, help_text)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(f"metric {name!r} is already registered as {metric.kind}")
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        """The registered metric names, sorted (render order)."""
        return sorted(self._metrics)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            lines.append(f"# HELP {name} {metric.help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


# -- the process-global default registry -------------------------------------------

_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global default registry (engine/store/parallel/serving series)."""
    return _GLOBAL_REGISTRY


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global registry; returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous


def reset_global_registry() -> MetricsRegistry:
    """Install (and return) a fresh empty global registry — test isolation."""
    fresh = MetricsRegistry()
    set_global_registry(fresh)
    return fresh


class EngineMetrics:
    """The engine-side metric series, bound to one registry.

    Creation is idempotent (``MetricsRegistry`` get-or-creates by name), so
    building this view per recording site is cheap and every site shares the
    same underlying metric objects.  Series and their labels:

    ========================================  =======================  =========
    series                                    labels                   type
    ========================================  =======================  =========
    ``repro_engine_fit_seconds``              ``method``, ``backend``  histogram
    ``repro_engine_fit_iterations``           ``method``               histogram
    ``repro_engine_fits_total``               ``method``, ``mode``     counter
    ``repro_engine_triples_ingested_total``   ``path``                 counter
    ``repro_gibbs_flip_fraction``             —                        histogram
    ``repro_parallel_shard_fit_seconds``      ``backend``              histogram
    ``repro_store_rows_total``                ``op``                   counter
    ``repro_store_op_seconds``                ``op``                   histogram
    ``repro_serving_snapshot_generation``     —                        gauge
    ``repro_serving_artifact_age_seconds``    —                        gauge
    ========================================  =======================  =========
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.fit_seconds = registry.histogram(
            "repro_engine_fit_seconds",
            "Wall time of full engine fits, by method/backend.",
            FIT_SECONDS_BUCKETS,
        )
        self.fit_iterations = registry.histogram(
            "repro_engine_fit_iterations",
            "Sampler iterations per fit, by method.",
            ITERATION_BUCKETS,
        )
        self.fits_total = registry.counter(
            "repro_engine_fits_total",
            "Completed full fits, by method and mode (batch/refit).",
        )
        self.triples_ingested = registry.counter(
            "repro_engine_triples_ingested_total",
            "Triples consumed by engine fits and partial_fit batches, by path.",
        )
        self.gibbs_flip_fraction = registry.histogram(
            "repro_gibbs_flip_fraction",
            "Mean per-sweep fraction of facts that flipped truth value, per fit.",
            FRACTION_BUCKETS,
        )
        self.shard_fit_seconds = registry.histogram(
            "repro_parallel_shard_fit_seconds",
            "Wall time of individual shard fits, by executor backend.",
            FIT_SECONDS_BUCKETS,
        )
        self.store_rows = registry.counter(
            "repro_store_rows_total",
            "Claim-store rows written (op=append) and evicted (op=deleted).",
        )
        self.store_op_seconds = registry.histogram(
            "repro_store_op_seconds",
            "Wall time of claim-store append/compact operations, by op.",
            FIT_SECONDS_BUCKETS,
        )
        self.snapshot_generation = registry.gauge(
            "repro_serving_snapshot_generation",
            "Monotonic generation of the snapshot a TruthService serves.",
        )
        self.artifact_age_seconds = registry.gauge(
            "repro_serving_artifact_age_seconds",
            "Seconds the previously served artifact was live before the last refresh.",
        )


def engine_metrics(registry: MetricsRegistry | None = None) -> EngineMetrics:
    """The engine-side series on ``registry`` (default: the global registry)."""
    return EngineMetrics(registry if registry is not None else _GLOBAL_REGISTRY)
