"""The Latent Truth Model (LTM) — the paper's primary contribution.

This package implements:

* the generative model of Section 4 (two-sided source quality as Beta-
  distributed sensitivity and false-positive rate, latent per-fact truth,
  Bernoulli claim observations);
* the collapsed Gibbs sampler of Section 5.2 / Algorithm 1, with burn-in and
  thinning, running in time linear in the number of claims as one walk over
  precomputed Equation-2 tables (:class:`~repro.core.gibbs.KernelTables`);
* MAP source-quality estimation of Section 5.3;
* the incremental predictor LTMinc of Section 5.4 (Equation 3), which reuses
  learned source quality to score new claims without re-sampling;
* the truncated positive-claims-only variant LTMpos used as an ablation in
  the paper's experiments.
"""

from repro.core.base import SourceQualityTable, TruthMethod, TruthResult
from repro.core.priors import BetaPrior, LTMPriors
from repro.core.counts import SourceCounts
from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig, GibbsTrace, KernelTables
from repro.core.quality import estimate_source_quality, expected_confusion_counts
from repro.core.model import LatentTruthModel
from repro.core.incremental import IncrementalLTM, posterior_truth_probability
from repro.core.ltmpos import PositiveOnlyLTM
from repro.core.posterior import claim_log_likelihood, complete_log_likelihood

__all__ = [
    "TruthMethod",
    "TruthResult",
    "SourceQualityTable",
    "BetaPrior",
    "LTMPriors",
    "SourceCounts",
    "CollapsedGibbsSampler",
    "GibbsConfig",
    "GibbsTrace",
    "KernelTables",
    "LatentTruthModel",
    "IncrementalLTM",
    "PositiveOnlyLTM",
    "posterior_truth_probability",
    "estimate_source_quality",
    "expected_confusion_counts",
    "claim_log_likelihood",
    "complete_log_likelihood",
]
