"""3-Estimates (Galland, Abiteboul, Marian & Senellart, WSDM 2010).

3-Estimates is the strongest baseline in the paper's comparison because —
unlike the positive-claim methods — it consumes *negative* claims as well.
It jointly estimates three quantities:

* the probability ``T(f)`` that each fact is true,
* the error factor ``epsilon(s)`` of each source, and
* the difficulty ``phi(f)`` of each fact (how easy it is to get wrong),

with mutually-recursive averaging updates and per-round renormalisation.  A
source is only penalised lightly for erring on a hard fact, and a fact
contradicted by low-error sources is unlikely to be true.

Because source error is a *single* scalar, 3-Estimates cannot distinguish a
source that omits values (false negatives) from one that invents them (false
positives); the paper shows this costs it recall relative to LTM while its
precision stays high (Table 7).

This implementation follows the structure of the original algorithm with the
normalisation simplified to clamping and min-max rescaling; the qualitative
behaviour (high precision, recall between Voting and LTM) is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import TruthMethod, TruthResult
from repro.data.dataset import ClaimMatrix
from repro.exceptions import ConfigurationError

__all__ = ["ThreeEstimates"]


class ThreeEstimates(TruthMethod):
    """Joint estimation of fact truth, source error and fact difficulty.

    Parameters
    ----------
    iterations:
        Number of rounds of the three alternating updates.
    initial_error:
        Initial per-source error factor (small: sources assumed mostly right).
    initial_difficulty:
        Initial per-fact difficulty.
    epsilon:
        Lower clamp applied to error and difficulty to avoid divisions by
        zero and degenerate fixed points.
    """

    name = "3-Estimates"

    def __init__(
        self,
        iterations: int = 20,
        initial_error: float = 0.1,
        initial_difficulty: float = 0.5,
        max_error: float = 0.4,
        epsilon: float = 1e-3,
    ):
        super().__init__()
        if iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if not 0.0 < initial_error < 1.0:
            raise ConfigurationError("initial_error must be in (0, 1)")
        if not 0.0 < initial_difficulty <= 1.0:
            raise ConfigurationError("initial_difficulty must be in (0, 1]")
        if not 0.0 < max_error < 1.0:
            raise ConfigurationError("max_error must be in (0, 1)")
        self.iterations = iterations
        self.initial_error = initial_error
        self.initial_difficulty = initial_difficulty
        self.max_error = max_error
        self.epsilon = epsilon

    def _fit(self, claims: ClaimMatrix) -> TruthResult:
        num_facts = claims.num_facts
        num_sources = claims.num_sources

        fact_idx = claims.claim_fact
        source_idx = claims.claim_source
        obs = claims.claim_obs.astype(float)

        fact_degree = np.maximum(np.bincount(fact_idx, minlength=num_facts), 1).astype(float)
        source_degree = np.maximum(np.bincount(source_idx, minlength=num_sources), 1).astype(float)

        truth = np.full(num_facts, 0.5, dtype=float)
        error = np.full(num_sources, self.initial_error, dtype=float)
        difficulty = np.full(num_facts, self.initial_difficulty, dtype=float)

        for _ in range(self.iterations):
            # --- update truth: a positive claim supports the fact with weight
            # (1 - error * difficulty); a negative claim supports it only with
            # weight (error * difficulty) -- i.e. "the source is wrong here".
            wrong_prob = np.clip(error[source_idx] * difficulty[fact_idx], self.epsilon, 1.0 - self.epsilon)
            support = obs * (1.0 - wrong_prob) + (1.0 - obs) * wrong_prob
            truth_sum = np.zeros(num_facts, dtype=float)
            np.add.at(truth_sum, fact_idx, support)
            truth = np.clip(truth_sum / fact_degree, 0.0, 1.0)

            # --- update source error: how often the source's claims disagree
            # with the current truth estimate, discounted by fact difficulty.
            disagreement = obs * (1.0 - truth[fact_idx]) + (1.0 - obs) * truth[fact_idx]
            scaled = disagreement / np.clip(difficulty[fact_idx], self.epsilon, 1.0)
            # The error estimate is clamped well below 1: a claim's meaning must
            # never invert (Galland et al. achieve the same effect with their
            # normalisation step).
            error_sum = np.zeros(num_sources, dtype=float)
            np.add.at(error_sum, source_idx, scaled)
            error = error_sum / source_degree
            error = np.clip(error, self.epsilon, self.max_error)

            # --- update fact difficulty: how much disagreement remains on this
            # fact, discounted by the error of the sources involved.
            scaled_difficulty = disagreement / np.clip(error[source_idx], self.epsilon, 1.0)
            difficulty_sum = np.zeros(num_facts, dtype=float)
            np.add.at(difficulty_sum, fact_idx, scaled_difficulty)
            difficulty = difficulty_sum / fact_degree
            difficulty = np.clip(difficulty, 0.1, 1.0)

        return TruthResult(
            method=self.name,
            scores=np.clip(truth, 0.0, 1.0),
            extras={
                "source_error": error,
                "fact_difficulty": difficulty,
                "iterations": self.iterations,
            },
        )
