"""Collapsed Gibbs sampler for the Latent Truth Model (Algorithm 1).

The sampler iterates over facts, re-sampling each fact's latent truth from its
conditional distribution given every other fact's current truth (Equation 2 of
the paper).  Because the Beta priors are conjugate to the Bernoulli
observation model, the quality parameters and the per-fact truth probabilities
are integrated out analytically; the only state is the per-source confusion
counts maintained by :class:`~repro.core.counts.SourceCounts`.

Each sweep touches every claim exactly once, so a run of ``K`` iterations
costs ``O(K * |C|)`` — the linear complexity the paper reports (Figure 6).

Equation 2 only ever evaluates ``log(m + alpha)`` for integer occupancies
``m`` bounded by each source's claim count, so :class:`KernelTables`
precomputes every transcendental a fit can touch.  A sweep is then a walk
over facts ``0..F-1`` in index order that does integer indexing into Python
lists plus IEEE-754 adds and subtracts — no per-fact numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.obs import get_tracer
from repro.core.counts import SourceCounts
from repro.core.priors import LTMPriors
from repro.data.dataset import ClaimMatrix
from repro.exceptions import ConfigurationError, ModelError

__all__ = ["GibbsConfig", "GibbsTrace", "KernelTables", "CollapsedGibbsSampler"]


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler schedule: iteration count, burn-in and thinning.

    Attributes
    ----------
    iterations:
        Total number of Gibbs sweeps over all facts.
    burn_in:
        Number of initial sweeps discarded before samples are collected.
    thin:
        Keep every ``thin``-th sweep after burn-in (1 keeps every sweep).
    seed:
        Seed of the sampler's random generator; fits are reproducible for a
        fixed seed.
    """

    iterations: int = 100
    burn_in: int = 20
    thin: int = 4
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.burn_in < 0 or self.burn_in >= self.iterations:
            raise ConfigurationError(
                f"burn_in must be in [0, iterations); got burn_in={self.burn_in}, iterations={self.iterations}"
            )
        if self.thin <= 0:
            raise ConfigurationError("thin must be a positive integer")

    @classmethod
    def paper_schedule(cls, iterations: int, seed: int | None = None) -> "GibbsConfig":
        """The burn-in / thinning schedule the paper pairs with each iteration budget.

        The paper's convergence study (Figure 5) uses total iteration budgets
        of 7, 10, 20, 50, 100, 200 and 500 with burn-in 2, 2, 5, 10, 20, 50,
        100 and sample gaps 0, 0, 0, 1, 4, 4, 9 respectively.  Budgets not in
        that list fall back to proportional choices (20% burn-in, gap so that
        roughly 20 samples are kept).
        """
        schedule = {
            7: (2, 1),
            10: (2, 1),
            20: (5, 1),
            50: (10, 2),
            100: (20, 5),
            200: (50, 5),
            500: (100, 10),
        }
        if iterations in schedule:
            burn_in, thin = schedule[iterations]
        else:
            burn_in = max(1, iterations // 5)
            thin = max(1, (iterations - burn_in) // 20)
        return cls(iterations=iterations, burn_in=burn_in, thin=thin, seed=seed)

    @property
    def num_samples(self) -> int:
        """Number of retained samples under this schedule."""
        return len(range(self.burn_in, self.iterations, self.thin))


@dataclass
class GibbsTrace:
    """Diagnostics collected during sampling.

    Attributes
    ----------
    flips_per_iteration:
        How many facts changed truth value in each sweep; a rapidly shrinking
        sequence indicates convergence.
    samples_collected:
        Number of retained (post burn-in, thinned) samples.
    checkpoint_scores:
        Optional snapshots of the running truth-probability estimate, keyed
        by iteration index (only populated when checkpoints are requested).
    """

    flips_per_iteration: list[int] = field(default_factory=list)
    samples_collected: int = 0
    checkpoint_scores: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        """Number of sweeps performed."""
        return len(self.flips_per_iteration)

    def flip_fraction(self, num_facts: int) -> list[float]:
        """Per-iteration fraction of facts that flipped."""
        if num_facts == 0:
            return []
        return [flips / num_facts for flips in self.flips_per_iteration]


class KernelTables:
    """Precomputed arithmetic of Equation 2.

    For every source ``s`` (with ``d_s`` claims), truth value ``t`` and
    observation ``o`` the tables hold::

        log_num[num_offset(s, t, o) + m] = log(m + alpha[s, t, o])   m in [0, d_s]
        log_den[den_offset(s, t) + m]    = log(m + alpha_sum[s, t])  m in [0, d_s]

    and per claim ``i`` the precomputed index bases for both truth values, so
    a claim's Equation-2 contribution under current truth ``t`` is::

        (log_num[num_base[t][i] + n - 1] - log_den[den_base[t][i] + N - 1])
      - (log_num[num_base[1-t][i] + n'] - log_den[den_base[1-t][i] + N'])

    where ``n``/``N`` are the claim's bucket count and bucket total under
    ``t`` (gathered through ``count_idx``/``total_idx`` from the flattened
    confusion counts).  After construction the only floating-point operations
    are subtractions and left-to-right additions, which IEEE-754 defines
    identically for numpy float64 and Python floats.
    """

    def __init__(self, claims: ClaimMatrix, priors: LTMPriors):
        num_sources = claims.num_sources
        alpha = priors.alpha_array(claims.source_names)  # (S, 2, 2)
        alpha_sum = alpha.sum(axis=2)  # (S, 2)
        per_source = claims.claim_counts_per_source()
        lengths = per_source + 1  # occupancies 0..d_s inclusive

        # Table layout: per source a block of 4 (respectively 2) sub-tables,
        # one per (t, o) (respectively t), each ``lengths[s]`` long.
        num_offsets = np.concatenate(([0], np.cumsum(4 * lengths)))[:-1]
        den_offsets = np.concatenate(([0], np.cumsum(2 * lengths)))[:-1]
        source_ids4 = np.repeat(np.arange(num_sources), 4 * lengths)
        position4 = np.arange(int((4 * lengths).sum())) - np.repeat(num_offsets, 4 * lengths)
        sub4 = position4 // np.repeat(lengths, 4 * lengths)  # t * 2 + o
        occupancy4 = position4 % np.repeat(lengths, 4 * lengths)
        self.log_num = np.log(occupancy4 + alpha[source_ids4, sub4 // 2, sub4 % 2])
        source_ids2 = np.repeat(np.arange(num_sources), 2 * lengths)
        position2 = np.arange(int((2 * lengths).sum())) - np.repeat(den_offsets, 2 * lengths)
        sub2 = position2 // np.repeat(lengths, 2 * lengths)  # t
        occupancy2 = position2 % np.repeat(lengths, 2 * lengths)
        self.log_den = np.log(occupancy2 + alpha_sum[source_ids2, sub2])

        claim_source = claims.claim_source
        claim_obs = np.asarray(claims.claim_obs, dtype=np.int64)
        claim_lengths = lengths[claim_source]
        self.num_base = [
            num_offsets[claim_source] + (t * 2 + claim_obs) * claim_lengths for t in (0, 1)
        ]
        self.den_base = [den_offsets[claim_source] + t * claim_lengths for t in (0, 1)]
        # Flattened (S, 2, 2) confusion-count and (S, 2) total indices.
        self.count_idx = [(claim_source * 2 + t) * 2 + claim_obs for t in (0, 1)]
        self.total_idx = [claim_source * 2 + t for t in (0, 1)]

        log_beta = np.log(priors.beta_array())
        # delta_log_beta[t] = log beta_t - log beta_{1-t}: the prior part of
        # the current-vs-other log-ratio.
        self.delta_log_beta = np.array(
            [log_beta[0] - log_beta[1], log_beta[1] - log_beta[0]]
        )
        self.prior_true = priors.truth.mean

    @staticmethod
    def switch_thresholds(uniforms: np.ndarray) -> np.ndarray:
        """Per-fact flip thresholds for one sweep's uniform draws.

        The rule "flip when ``u < 1 / (1 + exp(delta))``" is exactly "flip
        when ``delta < log((1 - u) / u)``" (both sides strictly monotone);
        evaluating the right-hand side once per sweep as a single whole-array
        call removes every per-fact ``exp``.  ``u == 0.0`` maps to ``+inf``
        (always flip), matching the sigmoid rule.
        """
        with np.errstate(divide="ignore"):
            return np.log((1.0 - uniforms) / uniforms)


class CollapsedGibbsSampler:
    """Runs Algorithm 1 on a claim matrix under a given prior specification.

    Parameters
    ----------
    priors:
        The :class:`~repro.core.priors.LTMPriors` providing the ``alpha`` and
        ``beta`` pseudo-counts of Equation (2).
    config:
        The sampling schedule.
    """

    def __init__(self, priors: LTMPriors | None = None, config: GibbsConfig | None = None):
        self.priors = priors if priors is not None else LTMPriors()
        self.config = config if config is not None else GibbsConfig()

    def run(
        self,
        claims: ClaimMatrix,
        initial_truth: np.ndarray | None = None,
        checkpoints: Sequence[int] = (),
        callback: Callable[[int, np.ndarray], None] | None = None,
    ) -> tuple[np.ndarray, SourceCounts, GibbsTrace]:
        """Sample latent truths for every fact of ``claims``.

        Parameters
        ----------
        claims:
            The claim matrix to fit.
        initial_truth:
            Optional initial truth assignment (defaults to uniform random, as
            in Algorithm 1's initialisation).
        checkpoints:
            Iteration indices at which to snapshot the running probability
            estimate (used by the convergence study, Figure 5).
        callback:
            Optional ``callback(iteration, current_truth)`` invoked after each
            sweep.

        Returns
        -------
        (scores, counts, trace):
            ``scores`` is the posterior truth probability per fact (the
            average of retained samples), ``counts`` the final confusion
            counts under the last truth assignment, and ``trace`` the
            sampling diagnostics.
        """
        if claims.num_facts == 0:
            raise ModelError("cannot run the Gibbs sampler on a claim matrix with no facts")
        config = self.config
        rng = np.random.default_rng(config.seed)
        num_facts = claims.num_facts
        truth = self._initial_assignment(num_facts, initial_truth, rng)

        tables = KernelTables(claims, self.priors)
        counts = SourceCounts.from_assignment(claims, truth)
        counts_list = counts.counts.reshape(-1).tolist()
        totals_list = counts.counts.sum(axis=2).reshape(-1).tolist()
        log_num, log_den = tables.log_num.tolist(), tables.log_den.tolist()
        dlb0, dlb1 = tables.delta_log_beta.tolist()
        prior_true = tables.prior_true

        # Per-fact claim rows: 8-tuples of table/count indices in the roles
        # (num_cur, count_cur, den_cur, total_cur, num_oth, count_oth, den_oth,
        # total_oth), one list per current truth value.  The current side's
        # table bases are pre-shifted by the ``- 1`` that excludes the fact's
        # own claims.  Claims stay in CSR order, so the per-fact sum
        # accumulates left to right.
        def side(t: int, shift: int) -> list[list[int]]:
            return [
                (tables.num_base[t] - shift).tolist(),
                tables.count_idx[t].tolist(),
                (tables.den_base[t] - shift).tolist(),
                tables.total_idx[t].tolist(),
            ]

        claim_rows_true = list(zip(*side(1, 1), *side(0, 0)))
        claim_rows_false = list(zip(*side(0, 1), *side(1, 0)))
        fact_ptr = claims.fact_ptr.tolist()
        rows_true = [claim_rows_true[fact_ptr[f] : fact_ptr[f + 1]] for f in range(num_facts)]
        rows_false = [claim_rows_false[fact_ptr[f] : fact_ptr[f + 1]] for f in range(num_facts)]

        truth_list = truth.tolist()
        score_sum = np.zeros(num_facts, dtype=float)
        samples = 0
        trace = GibbsTrace()
        checkpoint_set = set(int(c) for c in checkpoints)

        # Telemetry: sweeps are grouped into at most ~10 chunked
        # ``gibbs.iteration`` spans per fit — per-sweep granularity without
        # per-claim (or even per-sweep) span overhead.  The inner loop is
        # untouched when tracing is disabled.
        tracer = get_tracer()
        traced = tracer.enabled
        chunk = max(1, config.iterations // 10)
        chunk_start = tracer.now() if traced else 0.0
        chunk_first = 0
        chunk_flips = 0

        for iteration in range(config.iterations):
            uniforms = rng.random(num_facts)
            uniforms_list = uniforms.tolist()
            thresholds_list = KernelTables.switch_thresholds(uniforms).tolist()
            flips = 0
            for fact in range(num_facts):
                current = truth_list[fact]
                rows = rows_true[fact] if current else rows_false[fact]
                if not rows:
                    # A fact with no claims: sample from the prior alone.
                    new_truth = 1 if uniforms_list[fact] < prior_true else 0
                    if new_truth != current:
                        truth_list[fact] = new_truth
                        flips += 1
                    continue
                # Equation (2), with every log from the precomputed tables.
                acc = 0.0
                for a, cb, c, tb, e, co, h, to in rows:
                    acc += (log_num[a + counts_list[cb]] - log_den[c + totals_list[tb]]) - (
                        log_num[e + counts_list[co]] - log_den[h + totals_list[to]]
                    )
                if (acc + (dlb1 if current else dlb0)) < thresholds_list[fact]:
                    for _, ci_c, _, ti_c, _, ci_o, _, ti_o in rows:
                        counts_list[ci_c] -= 1
                        counts_list[ci_o] += 1
                        totals_list[ti_c] -= 1
                        totals_list[ti_o] += 1
                    truth_list[fact] = 1 - current
                    flips += 1

            trace.flips_per_iteration.append(flips)
            if traced:
                chunk_flips += flips
                if (iteration + 1) % chunk == 0 or iteration == config.iterations - 1:
                    sweeps = iteration - chunk_first + 1
                    tracer.record(
                        "gibbs.iteration",
                        chunk_start,
                        end=tracer.now(),
                        first_iteration=chunk_first,
                        iterations=sweeps,
                        flips=chunk_flips,
                        flip_fraction=round(chunk_flips / (sweeps * num_facts), 6),
                    )
                    chunk_start = tracer.now()
                    chunk_first = iteration + 1
                    chunk_flips = 0

            sampling = (
                iteration >= config.burn_in
                and (iteration - config.burn_in) % config.thin == 0
            )
            if sampling or callback is not None or iteration in checkpoint_set:
                truth_arr = np.asarray(truth_list, dtype=np.int64)
            if sampling:
                score_sum += truth_arr
                samples += 1
            if iteration in checkpoint_set:
                running = score_sum / samples if samples else truth_arr.astype(float)
                trace.checkpoint_scores[iteration] = running.copy()
            if callback is not None:
                callback(iteration, truth_arr)

        trace.samples_collected = samples
        scores = score_sum / samples if samples else np.asarray(truth_list, dtype=float)
        counts.counts[:] = np.asarray(counts_list, dtype=np.int64).reshape(
            claims.num_sources, 2, 2
        )
        counts.verify_non_negative()
        return scores, counts, trace

    @staticmethod
    def _initial_assignment(
        num_facts: int,
        initial_truth: np.ndarray | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if initial_truth is None:
            return (rng.random(num_facts) < 0.5).astype(np.int64)
        values = np.asarray(initial_truth)
        if values.shape != (num_facts,):
            raise ModelError(
                f"initial truth must have shape ({num_facts},), got {values.shape}"
            )
        # Check before casting: an int cast would truncate 0.7 or 1.9 into
        # a "binary" assignment.
        if not np.isin(values, (0, 1)).all():
            raise ModelError("initial truth assignment must be binary")
        return values.astype(np.int64)
