"""Tests for the collapsed Gibbs sampler (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.counts import SourceCounts
from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig
from repro.core.priors import BetaPrior, LTMPriors
from repro.data.claim_builder import build_claim_matrix
from repro.data.dataset import ClaimMatrix
from repro.data.records import Fact
from repro.exceptions import ConfigurationError, ModelError


class TestGibbsConfig:
    def test_defaults_valid(self):
        config = GibbsConfig()
        assert config.iterations > config.burn_in

    def test_invalid_iterations(self):
        with pytest.raises(ConfigurationError):
            GibbsConfig(iterations=0)

    def test_invalid_burn_in(self):
        with pytest.raises(ConfigurationError):
            GibbsConfig(iterations=10, burn_in=10)
        with pytest.raises(ConfigurationError):
            GibbsConfig(iterations=10, burn_in=-1)

    def test_invalid_thin(self):
        with pytest.raises(ConfigurationError):
            GibbsConfig(iterations=10, burn_in=2, thin=0)

    def test_paper_schedule_known_budgets(self):
        config = GibbsConfig.paper_schedule(100)
        assert (config.iterations, config.burn_in, config.thin) == (100, 20, 5)
        config = GibbsConfig.paper_schedule(7)
        assert (config.iterations, config.burn_in) == (7, 2)

    def test_paper_schedule_fallback(self):
        config = GibbsConfig.paper_schedule(64)
        assert 0 <= config.burn_in < config.iterations
        assert config.thin >= 1

    def test_num_samples(self):
        config = GibbsConfig(iterations=100, burn_in=20, thin=5)
        assert config.num_samples == 16


class TestCollapsedGibbsSampler:
    def test_scores_shape_and_range(self, paper_claims):
        sampler = CollapsedGibbsSampler(config=GibbsConfig(iterations=50, burn_in=10, thin=2, seed=0))
        scores, counts, trace = sampler.run(paper_claims)
        assert scores.shape == (paper_claims.num_facts,)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)
        assert trace.samples_collected == GibbsConfig(iterations=50, burn_in=10, thin=2).num_samples
        assert counts.total() == paper_claims.num_claims

    def test_reproducible_with_seed(self, paper_claims):
        config = GibbsConfig(iterations=40, burn_in=10, thin=2, seed=123)
        scores_a, _, _ = CollapsedGibbsSampler(config=config).run(paper_claims)
        scores_b, _, _ = CollapsedGibbsSampler(config=config).run(paper_claims)
        assert np.array_equal(scores_a, scores_b)

    def test_different_seeds_differ(self, small_book_dataset):
        claims = small_book_dataset.claims
        a, _, _ = CollapsedGibbsSampler(
            config=GibbsConfig(iterations=20, burn_in=5, thin=1, seed=1)
        ).run(claims)
        b, _, _ = CollapsedGibbsSampler(
            config=GibbsConfig(iterations=20, burn_in=5, thin=1, seed=2)
        ).run(claims)
        assert not np.array_equal(a, b)

    def test_empty_claims_rejected(self):
        empty = ClaimMatrix(facts=[], source_names=["s"], claim_fact=[], claim_source=[], claim_obs=[])
        with pytest.raises(ModelError):
            CollapsedGibbsSampler().run(empty)

    def test_counts_consistent_with_final_assignment(self, paper_claims):
        sampler = CollapsedGibbsSampler(config=GibbsConfig(iterations=30, burn_in=5, thin=1, seed=7))
        collected = {}

        def callback(iteration, truth):
            collected["truth"] = truth.copy()

        scores, counts, _ = sampler.run(paper_claims, callback=callback)
        rebuilt = SourceCounts.from_assignment(paper_claims, collected["truth"])
        assert np.array_equal(counts.counts, rebuilt.counts)

    def test_initial_truth_respected(self, paper_claims):
        initial = np.ones(paper_claims.num_facts, dtype=np.int64)
        sampler = CollapsedGibbsSampler(config=GibbsConfig(iterations=5, burn_in=1, thin=1, seed=0))
        scores, _, _ = sampler.run(paper_claims, initial_truth=initial)
        assert scores.shape == (paper_claims.num_facts,)
        # A boolean assignment is the same assignment.
        from_bool, _, _ = sampler.run(paper_claims, initial_truth=initial.astype(bool))
        assert np.array_equal(scores, from_bool)

    def test_invalid_initial_truth(self, paper_claims):
        sampler = CollapsedGibbsSampler()
        with pytest.raises(ModelError):
            sampler.run(paper_claims, initial_truth=np.ones(3))
        with pytest.raises(ModelError):
            sampler.run(paper_claims, initial_truth=np.full(paper_claims.num_facts, 2))
        # Fractional values must be rejected, not truncated to 0 or 1.
        for value in (0.7, 1.9):
            with pytest.raises(ModelError, match="binary"):
                sampler.run(paper_claims, initial_truth=np.full(paper_claims.num_facts, value))

    def test_checkpoints_recorded(self, paper_claims):
        sampler = CollapsedGibbsSampler(config=GibbsConfig(iterations=30, burn_in=5, thin=1, seed=0))
        _, _, trace = sampler.run(paper_claims, checkpoints=[10, 20])
        assert set(trace.checkpoint_scores) == {10, 20}
        for snapshot in trace.checkpoint_scores.values():
            assert snapshot.shape == (paper_claims.num_facts,)

    def test_fact_without_claims_follows_prior(self):
        # One fact has no claims at all; its score should hover around the
        # truth prior mean rather than collapsing to 0 or 1.
        facts = [Fact(0, "e1", "a"), Fact(1, "e2", "b")]
        matrix = ClaimMatrix(
            facts=facts,
            source_names=["s"],
            claim_fact=[0],
            claim_source=[0],
            claim_obs=[True],
        )
        priors = LTMPriors(truth=BetaPrior(5.0, 5.0))
        sampler = CollapsedGibbsSampler(
            priors=priors, config=GibbsConfig(iterations=400, burn_in=50, thin=1, seed=3)
        )
        scores, _, _ = sampler.run(matrix)
        assert 0.2 < scores[1] < 0.8

    def test_flip_counts_recorded(self, paper_claims):
        sampler = CollapsedGibbsSampler(config=GibbsConfig(iterations=25, burn_in=5, thin=1, seed=0))
        _, _, trace = sampler.run(paper_claims)
        assert trace.total_iterations == 25
        assert all(0 <= flips <= paper_claims.num_facts for flips in trace.flips_per_iteration)
        fractions = trace.flip_fraction(paper_claims.num_facts)
        assert len(fractions) == 25

    def test_strong_consensus_is_recovered(self):
        # Five reliable sources agree on one value per entity and all deny a
        # sixth source's spurious value: the spurious facts should score low.
        triples = []
        for e in range(20):
            for s in range(5):
                triples.append((f"e{e}", f"true_{e}", f"good{s}"))
            triples.append((f"e{e}", f"junk_{e}", "spammer"))
        claims = build_claim_matrix(triples)
        sampler = CollapsedGibbsSampler(
            priors=LTMPriors.adaptive(claims),
            config=GibbsConfig(iterations=100, burn_in=20, thin=2, seed=0),
        )
        scores, _, _ = sampler.run(claims)
        true_ids = [f.fact_id for f in claims.facts if str(f.attribute).startswith("true_")]
        junk_ids = [f.fact_id for f in claims.facts if str(f.attribute).startswith("junk_")]
        assert scores[true_ids].mean() > 0.9
        assert scores[junk_ids].mean() < 0.5
