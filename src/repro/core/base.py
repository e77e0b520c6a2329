"""Shared solver interfaces: truth methods, truth results and quality tables.

Every truth-finding method in the library — the Latent Truth Model, its
incremental and positive-only variants, and all seven baselines — implements
the same :class:`TruthMethod` interface and returns a :class:`TruthResult`.
The comparison harness (paper Table 7, Figures 2-3) and the runtime study
(Table 9, Figure 6) are written once against these types.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.data.dataset import ClaimMatrix
from repro.exceptions import EvaluationError, NotFittedError

__all__ = ["SourceQualityTable", "TruthResult", "TruthMethod", "timed_fit"]


@dataclass
class SourceQualityTable:
    """Per-source quality estimates (paper Section 3 and Table 8).

    All arrays are indexed by dense source id and aligned with
    ``source_names``.

    Attributes
    ----------
    source_names:
        Source names, position = source id.
    sensitivity:
        Estimated sensitivity (recall) per source: P(claim true | fact true).
    specificity:
        Estimated specificity per source: P(claim false | fact false).
    precision:
        Estimated precision per source: P(fact true | claim true).
    accuracy:
        Estimated accuracy per source (optional; NaN when not computed).
    """

    source_names: tuple[str, ...]
    sensitivity: np.ndarray
    specificity: np.ndarray
    precision: np.ndarray
    accuracy: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.source_names)
        for name in ("sensitivity", "specificity", "precision"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise EvaluationError(
                    f"{name} must have shape ({n},), got {arr.shape}"
                )
        if self.accuracy is None:
            self.accuracy = np.full(n, np.nan)
        elif self.accuracy.shape != (n,):
            raise EvaluationError(
                f"accuracy must have shape ({n},), got {self.accuracy.shape}"
            )

    @property
    def num_sources(self) -> int:
        """Number of sources covered by the table."""
        return len(self.source_names)

    @property
    def false_positive_rate(self) -> np.ndarray:
        """1 - specificity per source."""
        return 1.0 - self.specificity

    @property
    def false_negative_rate(self) -> np.ndarray:
        """1 - sensitivity per source."""
        return 1.0 - self.sensitivity

    def of(self, source_name: str) -> dict[str, float]:
        """Return the quality measures of one source as a dict."""
        try:
            sid = self.source_names.index(source_name)
        except ValueError as exc:
            raise EvaluationError(f"unknown source {source_name!r}") from exc
        return {
            "sensitivity": float(self.sensitivity[sid]),
            "specificity": float(self.specificity[sid]),
            "precision": float(self.precision[sid]),
            "accuracy": float(self.accuracy[sid]),
        }

    def ranked_by_sensitivity(self) -> list[tuple[str, float, float]]:
        """Sources sorted by decreasing sensitivity, as ``(name, sens, spec)``.

        This is the presentation used in the paper's Table 8.
        """
        order = np.argsort(-self.sensitivity)
        return [
            (self.source_names[i], float(self.sensitivity[i]), float(self.specificity[i]))
            for i in order
        ]

    def as_rows(self) -> list[dict[str, float | str]]:
        """Return one dict per source, convenient for tabular display."""
        return [
            {
                "source": name,
                "sensitivity": float(self.sensitivity[i]),
                "specificity": float(self.specificity[i]),
                "precision": float(self.precision[i]),
                "accuracy": float(self.accuracy[i]),
            }
            for i, name in enumerate(self.source_names)
        ]


@dataclass
class TruthResult:
    """The output of fitting a truth-finding method to a claim matrix.

    Attributes
    ----------
    method:
        Name of the method that produced the result.
    scores:
        Per-fact truth probability (or normalised confidence score in
        ``[0, 1]`` for heuristic baselines), indexed by fact id.
    source_quality:
        Optional per-source quality table (methods that model quality).
    runtime_seconds:
        Wall-clock fit time.
    extras:
        Method-specific diagnostics (e.g. Gibbs traces, iteration counts).
    """

    method: str
    scores: np.ndarray
    source_quality: SourceQualityTable | None = None
    runtime_seconds: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=float)
        if self.scores.ndim != 1:
            raise EvaluationError("scores must be a one-dimensional array over facts")

    @property
    def num_facts(self) -> int:
        """Number of facts scored."""
        return int(self.scores.shape[0])

    def predictions(self, threshold: float = 0.5) -> np.ndarray:
        """Boolean truth predictions at ``threshold`` (score >= threshold => true)."""
        return self.scores >= threshold

    def scores_for(self, fact_ids: Sequence[int]) -> np.ndarray:
        """Scores restricted to ``fact_ids`` (in that order)."""
        return self.scores[np.asarray(list(fact_ids), dtype=np.int64)]

    def top_facts(self, k: int = 10) -> list[tuple[int, float]]:
        """The ``k`` facts with the highest scores, as ``(fact_id, score)``."""
        order = np.argsort(-self.scores)[:k]
        return [(int(i), float(self.scores[i])) for i in order]


class TruthMethod(abc.ABC):
    """Abstract interface implemented by every truth-finding method.

    Subclasses implement :meth:`_fit` and set :attr:`name`.  The public
    :meth:`fit` wraps it with timing and records the fitted result so that
    :meth:`result` can be called afterwards.
    """

    #: Human-readable method name used in comparison tables.
    name: str = "method"

    def __init__(self) -> None:
        self._result: TruthResult | None = None

    @abc.abstractmethod
    def _fit(self, claims: ClaimMatrix) -> TruthResult:
        """Fit the method to ``claims`` and return a result (no timing needed)."""

    def fit(self, claims: ClaimMatrix) -> TruthResult:
        """Fit the method to ``claims``; returns a timed :class:`TruthResult`."""
        start = time.perf_counter()
        result = self._fit(claims)
        result.runtime_seconds = time.perf_counter() - start
        result.method = self.name
        self._result = result
        return result

    def result(self) -> TruthResult:
        """Return the result of the last :meth:`fit` call.

        Raises
        ------
        NotFittedError
            If :meth:`fit` has not been called yet.
        """
        if self._result is None:
            raise NotFittedError(f"{self.name} has not been fitted yet")
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def timed_fit(method: TruthMethod, claims: ClaimMatrix) -> tuple[TruthResult, float]:
    """Fit ``method`` on ``claims`` and return ``(result, runtime_seconds)``."""
    result = method.fit(claims)
    return result, result.runtime_seconds


def normalise_scores(scores: np.ndarray) -> np.ndarray:
    """Normalise arbitrary non-negative confidence scores into [0, 1] by the maximum.

    Several baselines (HubAuthority, AvgLog, Investment, PooledInvestment)
    produce unbounded credit scores; the paper thresholds them after
    normalisation, which is what makes those methods look conservative at a
    0.5 threshold.  Zero or negative maxima map everything to zero.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        return scores
    maximum = scores.max()
    if maximum <= 0:
        return np.zeros_like(scores)
    return np.clip(scores / maximum, 0.0, 1.0)
