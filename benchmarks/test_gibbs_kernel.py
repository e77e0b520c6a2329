"""Gibbs sweep A/B — the table walk vs the per-fact oracle on the Figure-6 workload.

Times `CollapsedGibbsSampler.run` (the table walk over precomputed Equation-2
tables) against the per-fact numpy reference sweep in `tests/gibbs_oracle.py`
on the same 100-iteration chain and seed, requires bit-identical output, and
pins the speedup to a recorded floor.  The two are timed alternately over
several rounds and compared on their medians, so one noisy run cannot make or
break the floor.  Two numbers matter:

* the A/B ratio against the oracle — asserted >= 5x;
* the per-claim cost against the fig6 slope recorded before the table walk
  existed (6.503e-04 s/claim at 100 iterations), recorded in the results file.
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

from conftest import SEED, write_result

from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig
from repro.core.priors import LTMPriors

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from gibbs_oracle import oracle_run  # noqa: E402

ITERATIONS = 100
ROUNDS = 3
# Asserted floor for the walk vs the per-fact oracle, same seed.
SPEEDUP_FLOOR = 5.0
# Fig-6 slope committed before the table walk existed (seconds per claim for a
# 100-iteration fit on this machine class) — the reference for the 10x claim.
PRE_WALK_SECONDS_PER_CLAIM = 6.503e-04


def _timed(run, claims):
    started = time.perf_counter()
    out = run(claims)
    return time.perf_counter() - started, out


def test_blocked_kernel_speedup(movie_dataset, results_dir):
    claims = movie_dataset.claims
    config = GibbsConfig.paper_schedule(ITERATIONS, seed=SEED)
    sampler = CollapsedGibbsSampler(priors=LTMPriors.adaptive(claims), config=config)

    oracle_times, walk_times = [], []
    for _ in range(ROUNDS):
        # Oracle first in each round: if anything, cache warm-up favours it.
        oracle_time, oracle = _timed(lambda c: oracle_run(sampler, c), claims)
        walk_time, walk = _timed(sampler.run, claims)
        oracle_times.append(oracle_time)
        walk_times.append(walk_time)
        # Exactness before speed: the walk reproduces the oracle chain bit
        # for bit.
        assert np.array_equal(oracle[0], walk[0])
        assert np.array_equal(oracle[1].counts, walk[1].counts)
        assert oracle[2].flips_per_iteration == walk[2].flips_per_iteration

    oracle_median = statistics.median(oracle_times)
    walk_median = statistics.median(walk_times)
    speedup = oracle_median / walk_median
    per_claim = walk_median / claims.num_claims
    vs_reference = PRE_WALK_SECONDS_PER_CLAIM / per_claim
    assert speedup >= SPEEDUP_FLOOR

    lines = [
        "Gibbs sweep A/B — table walk vs per-fact oracle on the Figure-6 movie workload "
        f"({ITERATIONS} iterations, {claims.num_claims} claims, "
        f"{claims.num_facts} facts, {claims.num_sources} sources; "
        f"medians of {ROUNDS} alternating runs)",
        "",
        f"{'sweep':<10} {'runtime (s)':>14} {'s/claim':>12}",
        f"{'oracle':<10} {oracle_median:>14.3f} {oracle_median / claims.num_claims:>12.3e}",
        f"{'walk':<10} {walk_median:>14.3f} {per_claim:>12.3e}",
        "",
        f"speedup walk vs oracle: {speedup:.2f}x (asserted floor {SPEEDUP_FLOOR:.0f}x)",
        f"speedup vs pre-walk fig6 slope ({PRE_WALK_SECONDS_PER_CLAIM:.3e} s/claim): "
        f"{vs_reference:.2f}x",
        "scores, counts and per-sweep flips: identical",
    ]
    text = "\n".join(lines) + "\n"
    write_result(results_dir, "gibbs_kernel_speedup.txt", text)
    print("\n" + text)
