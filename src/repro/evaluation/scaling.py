"""Runtime-scaling study (paper Table 9 and Figure 6).

The paper establishes that LTM's inference cost is linear in the number of
claims by timing it on nested subsets of the movie data and fitting a linear
regression (reporting an R-squared of 0.9913).  This module provides the
subset construction, the timing loop and the regression.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.base import TruthMethod
from repro.data.dataset import ClaimMatrix
from repro.exceptions import EvaluationError

__all__ = ["LinearFit", "linear_fit", "entity_subsets", "runtime_scaling_study"]


@dataclass(frozen=True)
class LinearFit:
    """Ordinary-least-squares fit ``y ~ slope * x + intercept``.

    Attributes
    ----------
    slope, intercept:
        Fitted coefficients.
    r_squared:
        Goodness of fit; close to 1 indicates the relationship is linear.
    """

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Predicted value at ``x``."""
        return self.slope * x + self.intercept


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Least-squares linear regression of ``y`` on ``x`` with R-squared."""
    x_arr = np.asarray(list(x), dtype=float)
    y_arr = np.asarray(list(y), dtype=float)
    if x_arr.size != y_arr.size:
        raise EvaluationError("x and y must have the same length")
    if x_arr.size < 2:
        raise EvaluationError("linear regression requires at least two points")
    slope, intercept = np.polyfit(x_arr, y_arr, deg=1)
    predictions = slope * x_arr + intercept
    residual = float(((y_arr - predictions) ** 2).sum())
    total = float(((y_arr - y_arr.mean()) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=float(r_squared))


def entity_subsets(
    claims: ClaimMatrix,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seed: int | None = 13,
) -> list[ClaimMatrix]:
    """Nested random entity subsets of increasing size (as in Table 9).

    Each subset keeps all facts and claims of the sampled entities, matching
    the paper's construction of the 3k/6k/9k/12k/15k movie subsets.
    """
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise EvaluationError(f"subset fractions must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    entities = list(claims.entities)
    order = rng.permutation(len(entities))
    subsets: list[ClaimMatrix] = []
    for fraction in sorted(fractions):
        count = max(1, int(round(fraction * len(entities))))
        sampled = [entities[i] for i in order[:count]]
        subsets.append(claims.restrict_to_entities(sampled))
    return subsets


def runtime_scaling_study(
    method_factory: Callable[[], TruthMethod],
    subsets: Iterable[ClaimMatrix],
    repeats: int = 5,
) -> tuple[list[dict[str, float]], LinearFit]:
    """Time a method on each subset and regress runtime on the number of claims.

    Runtimes are **CPU seconds** of this process (:func:`time.process_time`
    around ``method.fit``), not wall-clock time: time the process spends
    waiting for a CPU on a shared host would otherwise bend the curve.  As in
    :mod:`timeit`, each timed fit runs with the garbage collector paused
    after a full collection, so a collection pause landing in one subset's
    fit cannot bend it either.  CPU time spent in worker processes a method
    may start is not counted.

    Parameters
    ----------
    method_factory:
        Zero-argument callable returning a fresh method instance (so each
        timing starts from a clean state).
    subsets:
        Claim matrices of increasing size.
    repeats:
        Number of timed repetitions per subset; their median is used.

    Returns
    -------
    (measurements, fit):
        ``measurements`` is one dict per subset with the number of entities,
        facts, claims and the median runtime in CPU seconds
        (``runtime_seconds``); ``fit`` is the linear
        regression of runtime on claims (Figure 6's regression line).
    """
    if repeats <= 0:
        raise EvaluationError("repeats must be positive")
    subsets = list(subsets)
    runtimes: list[list[float]] = [[] for _ in subsets]
    # Round-robin over the subsets, so a slow spell of the machine lands in
    # one repetition of several subsets rather than in every repetition of
    # one subset, and each subset's median drops it.
    for _ in range(repeats):
        for subset, times in zip(subsets, runtimes):
            method = method_factory()
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                started = time.process_time()
                method.fit(subset)
                times.append(time.process_time() - started)
            finally:
                if gc_was_enabled:
                    gc.enable()
    measurements = [
        {
            "entities": float(subset.num_entities),
            "facts": float(subset.num_facts),
            "claims": float(subset.num_claims),
            "runtime_seconds": float(np.median(times)),
        }
        for subset, times in zip(subsets, runtimes)
    ]
    fit = linear_fit(
        [m["claims"] for m in measurements],
        [m["runtime_seconds"] for m in measurements],
    )
    return measurements, fit
