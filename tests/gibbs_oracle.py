"""Reference per-fact sweep of Algorithm 1: the exactness oracle for the sampler.

:func:`oracle_run` has the signature of
:meth:`repro.core.gibbs.CollapsedGibbsSampler.run` (so it can also be patched
in as that method) and evaluates Equation 2 one fact at a time with numpy
gathers over :class:`~repro.core.gibbs.KernelTables`.  It shares the
tables' arithmetic, the flip thresholds and the random stream with the
sampler, and sums each fact's claims left to right with
``np.add.reduceat``, so for a fixed seed the two make bit-identical flip
decisions.  It is slow on purpose: it is the plain reading of Algorithm 1
against which the sampler's table walk is checked.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.counts import SourceCounts
from repro.core.gibbs import CollapsedGibbsSampler, GibbsTrace, KernelTables
from repro.data.dataset import ClaimMatrix


def oracle_run(
    sampler: CollapsedGibbsSampler,
    claims: ClaimMatrix,
    initial_truth: np.ndarray | None = None,
    checkpoints: Sequence[int] = (),
    callback: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, SourceCounts, GibbsTrace]:
    """Run ``sampler``'s chain with the per-fact numpy sweep."""
    config = sampler.config
    rng = np.random.default_rng(config.seed)
    num_facts = claims.num_facts

    truth = CollapsedGibbsSampler._initial_assignment(num_facts, initial_truth, rng)
    counts = SourceCounts.from_assignment(claims, truth)
    # ``counts_flat`` aliases the counts buffer, so in-place updates keep
    # ``counts`` in sync.
    counts_flat = counts.counts.reshape(-1)
    totals_flat = counts.counts.sum(axis=2).reshape(-1)

    tables = KernelTables(claims, sampler.priors)
    log_num, log_den = tables.log_num, tables.log_den
    fact_ptr = claims.fact_ptr
    segment_start = np.zeros(1, dtype=np.intp)

    score_sum = np.zeros(num_facts, dtype=float)
    samples = 0
    trace = GibbsTrace()
    checkpoint_set = set(int(c) for c in checkpoints)

    for iteration in range(config.iterations):
        flips = 0
        uniforms = rng.random(num_facts)
        thresholds = KernelTables.switch_thresholds(uniforms)
        for f in range(num_facts):
            start, stop = fact_ptr[f], fact_ptr[f + 1]
            if start == stop:
                # A fact with no claims: sample from the prior alone.
                new_t = 1 if uniforms[f] < tables.prior_true else 0
                if new_t != truth[f]:
                    truth[f] = new_t
                    flips += 1
                continue
            cur = int(truth[f])
            claims_f = slice(start, stop)
            nb_cur, nb_oth = tables.num_base[cur][claims_f], tables.num_base[1 - cur][claims_f]
            db_cur, db_oth = tables.den_base[cur][claims_f], tables.den_base[1 - cur][claims_f]
            ci_cur, ci_oth = tables.count_idx[cur][claims_f], tables.count_idx[1 - cur][claims_f]
            ti_cur, ti_oth = tables.total_idx[cur][claims_f], tables.total_idx[1 - cur][claims_f]
            # Equation (2): the current side excludes fact f's own claims.
            terms = (
                log_num[nb_cur + (counts_flat[ci_cur] - 1)]
                - log_den[db_cur + (totals_flat[ti_cur] - 1)]
            ) - (
                log_num[nb_oth + counts_flat[ci_oth]]
                - log_den[db_oth + totals_flat[ti_oth]]
            )
            delta = np.add.reduceat(terms, segment_start)[0] + tables.delta_log_beta[cur]
            if delta < thresholds[f]:
                truth[f] = 1 - cur
                flips += 1
                np.add.at(counts_flat, ci_cur, -1)
                np.add.at(counts_flat, ci_oth, 1)
                np.add.at(totals_flat, ti_cur, -1)
                np.add.at(totals_flat, ti_oth, 1)

        trace.flips_per_iteration.append(flips)
        if iteration >= config.burn_in and (iteration - config.burn_in) % config.thin == 0:
            score_sum += truth
            samples += 1
        if iteration in checkpoint_set:
            running = score_sum / samples if samples else truth.astype(float)
            trace.checkpoint_scores[iteration] = running.copy()
        if callback is not None:
            callback(iteration, truth)

    trace.samples_collected = samples
    scores = score_sum / samples if samples else truth.astype(float)
    counts.verify_non_negative()
    return scores, counts, trace
