"""LTMpos — the Latent Truth Model restricted to positive claims.

The paper uses this truncated variant to demonstrate the value of negative
claims: without them the model cannot distinguish "the source omitted the
fact" from "the source contradicted the fact", and — like TruthFinder and
Investment — it ends up scoring essentially every fact as true on
multi-valued data (Table 7, false-positive rate 1.0).
"""

from __future__ import annotations

from repro.core.base import TruthMethod, TruthResult
from repro.core.model import LatentTruthModel
from repro.core.priors import LTMPriors
from repro.data.dataset import ClaimMatrix

__all__ = ["PositiveOnlyLTM"]


class PositiveOnlyLTM(TruthMethod):
    """LTM fitted on the positive claims only (the paper's LTMpos ablation).

    Parameters are forwarded to the underlying
    :class:`~repro.core.model.LatentTruthModel`.
    """

    name = "LTMpos"

    def __init__(
        self,
        priors: LTMPriors | None = None,
        iterations: int = 100,
        burn_in: int | None = None,
        thin: int | None = None,
        seed: int | None = None,
    ):
        super().__init__()
        self._priors = priors
        self._iterations = iterations
        self._burn_in = burn_in
        self._thin = thin
        self._seed = seed

    def _fit(self, claims: ClaimMatrix) -> TruthResult:
        positive = claims.positive_only()
        # Without negative claims nothing in the data distinguishes the intended
        # solution from the globally flipped one, so the default prior must be
        # the paper's strong, fact-scaled specificity prior rather than the
        # data-adaptive one used by the full model.
        priors = self._priors or LTMPriors.scaled_to(positive.num_facts)
        model = LatentTruthModel(
            priors=priors,
            iterations=self._iterations,
            burn_in=self._burn_in,
            thin=self._thin,
            seed=self._seed,
        )
        result = model.fit(positive)
        return TruthResult(
            method=self.name,
            scores=result.scores,
            source_quality=result.source_quality,
            extras={"dropped_negative_claims": claims.num_negative_claims, **result.extras},
        )
