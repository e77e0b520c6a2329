"""Exactness tests for the Gibbs sampler's table walk.

The contract under test is strong: for the same seed the sampler of
:mod:`repro.core.gibbs` must be *bit-identical* to the per-fact reference
sweep in ``gibbs_oracle.py`` — same scores, same final confusion counts,
same per-sweep flip sequence, same checkpoint snapshots — on every catalog
dataset and on degenerate corpora.  Not statistically equivalent chains: the
same chain.  Golden fixed-seed values pin that chain across changes to both.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gibbs_oracle import oracle_run
from repro.core.gibbs import CollapsedGibbsSampler, GibbsConfig, GibbsTrace, KernelTables
from repro.core.model import LatentTruthModel
from repro.core.ltmpos import PositiveOnlyLTM
from repro.core.priors import LTMPriors
from repro.data.claim_builder import build_claim_matrix
from repro.data.dataset import ClaimMatrix
from repro.data.records import Fact
from repro.engine import EngineConfig, ExecutionConfig, TruthEngine
from repro.io.catalog import default_catalog
from repro.types import Triple


def _run_both(claims, budget: int, seed: int = 13, priors=None):
    """Run the oracle and the sampler on the paper schedule for ``budget``."""
    priors = priors or LTMPriors.adaptive(claims)
    config = GibbsConfig.paper_schedule(budget, seed=seed)
    sampler = CollapsedGibbsSampler(priors=priors, config=config)
    return oracle_run(sampler, claims), sampler.run(claims)


def _assert_parity(oracle, walk):
    scores_o, counts_o, trace_o = oracle
    scores_w, counts_w, trace_w = walk
    assert np.array_equal(scores_o, scores_w)
    assert np.array_equal(counts_o.counts, counts_w.counts)
    assert trace_o.flips_per_iteration == trace_w.flips_per_iteration
    assert trace_o.samples_collected == trace_w.samples_collected


def _with_oracle(monkeypatch, fit):
    """Call ``fit()`` with every sampler run routed through the oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(CollapsedGibbsSampler, "run", oracle_run)
        return fit()


class TestKernelConfig:
    def test_trace_defaults(self):
        trace = GibbsTrace()
        assert trace.flips_per_iteration == []
        assert trace.samples_collected == 0
        assert trace.checkpoint_scores == {}
        assert trace.total_iterations == 0


# ---------------------------------------------------------------------------
# Golden fixed-seed chains
# ---------------------------------------------------------------------------
GOLDEN = json.loads((Path(__file__).parent / "data" / "gibbs_golden.json").read_text())


class TestGoldenValues:
    """The default sampler reproduces pinned chains byte for byte.

    ``tests/data/gibbs_golden.json`` holds, per catalog dataset, the sha256 of
    the ``scores`` bytes, the final confusion counts and the per-sweep flip
    counts of a seed-13 paper-schedule fit under adaptive priors.  Any change
    to the sweep's arithmetic or visiting order shows up here.
    """

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_default_sampler_matches_golden(self, key):
        golden = GOLDEN[key]
        claims = default_catalog().create(key).to_dataset().claims
        config = GibbsConfig.paper_schedule(golden["budget"], seed=13)
        sampler = CollapsedGibbsSampler(priors=LTMPriors.adaptive(claims), config=config)
        scores, counts, trace = sampler.run(claims)
        assert hashlib.sha256(scores.tobytes()).hexdigest() == golden["scores_sha256"]
        assert counts.counts.tolist() == golden["counts"]
        assert trace.flips_per_iteration == golden["flips_per_iteration"]


# ---------------------------------------------------------------------------
# Exact parity on every catalog dataset
# ---------------------------------------------------------------------------
class TestCatalogParity:
    # Budgets follow the paper schedule; larger corpora get shorter chains to
    # keep the suite fast — the arithmetic exercised per sweep is identical.
    @pytest.mark.parametrize(
        "key, budget",
        [
            ("paper_example", 100),
            ("books_small", 100),
            ("movies_small", 100),
            ("books", 50),
            ("movies", 20),
            ("adversarial", 20),
            ("ltm_generative", 7),
        ],
    )
    def test_blocked_matches_scalar(self, key, budget):
        claims = default_catalog().create(key).to_dataset().claims
        _assert_parity(*_run_both(claims, budget))

    @pytest.mark.parametrize("budget", [7, 10, 20, 50, 100, 200])
    def test_paper_schedule_budgets(self, paper_claims, budget):
        _assert_parity(*_run_both(paper_claims, budget, seed=budget))

    def test_checkpoints_and_callback_parity(self, small_movie_dataset):
        claims = small_movie_dataset.claims
        config = GibbsConfig(iterations=30, burn_in=5, thin=2, seed=11)
        sampler = CollapsedGibbsSampler(priors=LTMPriors.adaptive(claims), config=config)
        snapshots = {"oracle": [], "walk": []}

        def run(runner, key):
            seen = snapshots[key]
            return runner(claims, checkpoints=(5, 20), callback=lambda i, t: seen.append(t.copy()))

        oracle = run(lambda *a, **k: oracle_run(sampler, *a, **k), "oracle")
        walk = run(sampler.run, "walk")
        _assert_parity(oracle, walk)
        for key in (5, 20):
            assert np.array_equal(oracle[2].checkpoint_scores[key], walk[2].checkpoint_scores[key])
        assert len(snapshots["oracle"]) == len(snapshots["walk"]) == 30
        for a, b in zip(snapshots["oracle"], snapshots["walk"]):
            assert np.array_equal(a, b)

    def test_initial_truth_parity(self, paper_claims):
        initial = np.ones(paper_claims.num_facts, dtype=np.int64)
        sampler = CollapsedGibbsSampler(config=GibbsConfig(iterations=20, burn_in=4, thin=1, seed=5))
        _assert_parity(
            oracle_run(sampler, paper_claims, initial_truth=initial),
            sampler.run(paper_claims, initial_truth=initial),
        )


# ---------------------------------------------------------------------------
# Degenerate corpora
# ---------------------------------------------------------------------------
class TestDegenerateCorpora:
    """Parity on corpora at the extremes of fact–source conflict."""

    def test_single_source_corpus_parity(self):
        # Every fact claims through the same source, so each flip changes the
        # counts the next fact reads: a purely sequential chain.
        triples = [Triple(f"e{i}", f"v{i}", "lone") for i in range(12)]
        claims = build_claim_matrix(triples)
        _assert_parity(*_run_both(claims, 50, seed=2))

    def test_disjoint_sources_parity(self):
        # No two facts share a source: every fact's conditional is independent.
        triples = [Triple(f"e{i}", f"v{i}", f"s{i}") for i in range(8)]
        claims = build_claim_matrix(triples)
        _assert_parity(*_run_both(claims, 50, seed=4))

    def test_claimless_fact_parity(self):
        # Fact 1 has no claims and is sampled from the truth prior inline.
        facts = [Fact(0, "e1", "a"), Fact(1, "e2", "b"), Fact(2, "e3", "c")]
        claims = ClaimMatrix(
            facts=facts,
            source_names=["s"],
            claim_fact=[0, 2],
            claim_source=[0, 0],
            claim_obs=[True, False],
        )
        oracle, walk = _run_both(claims, 100, seed=9, priors=LTMPriors.paper_book_defaults())
        _assert_parity(oracle, walk)
        # The claimless fact's score reflects the truth prior, not 0/1 collapse.
        assert 0.0 < walk[0][1] < 1.0

    def test_all_facts_claimless(self):
        facts = [Fact(0, "e1", "a"), Fact(1, "e2", "b")]
        claims = ClaimMatrix(
            facts=facts, source_names=["s"], claim_fact=[], claim_source=[], claim_obs=[]
        )
        _assert_parity(*_run_both(claims, 20, seed=1, priors=LTMPriors.paper_book_defaults()))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora_parity(self, seed):
        rng = np.random.default_rng(seed)
        num_entities = int(rng.integers(5, 40))
        num_sources = int(rng.integers(1, 12))
        triples = []
        for e in range(num_entities):
            degree = min(num_sources, int(rng.integers(1, 5)))
            for s in rng.choice(num_sources, size=degree, replace=False):
                triples.append(Triple(f"e{e}", f"v{rng.integers(0, 3)}", f"s{s}"))
        claims = build_claim_matrix(triples)
        _assert_parity(*_run_both(claims, 20, seed=seed + 100))


# ---------------------------------------------------------------------------
# Kernel tables
# ---------------------------------------------------------------------------
class TestKernelTables:
    def test_threshold_rule_matches_sigmoid_rule(self):
        # "u < 1 / (1 + exp(delta))" and "delta < log((1 - u) / u)" are the
        # same decision; the tables evaluate the latter so each sweep costs
        # one whole-array log instead of a per-fact exp.
        rng = np.random.default_rng(0)
        uniforms = rng.random(1000)
        deltas = rng.normal(scale=30.0, size=1000)
        thresholds = KernelTables.switch_thresholds(uniforms)
        old_rule = uniforms < 1.0 / (1.0 + np.exp(deltas))
        new_rule = deltas < thresholds
        assert np.array_equal(old_rule, new_rule)

    def test_zero_uniform_always_flips(self):
        thresholds = KernelTables.switch_thresholds(np.array([0.0, 0.5]))
        assert thresholds[0] == np.inf
        assert thresholds[1] == pytest.approx(0.0)

    def test_table_entries_are_log_counts_plus_alpha(self, paper_claims):
        priors = LTMPriors.adaptive(paper_claims)
        tables = KernelTables(paper_claims, priors)
        alpha = priors.alpha_array(paper_claims.source_names)
        # Source 0's (t=0, o=0) sub-table starts at offset 0: entry m must be
        # log(m + alpha[0, 0, 0]).
        d0 = int(paper_claims.claim_counts_per_source()[0])
        expected = np.log(np.arange(d0 + 1) + alpha[0, 0, 0])
        assert np.array_equal(tables.log_num[: d0 + 1], expected)
        assert tables.delta_log_beta[0] == -tables.delta_log_beta[1]


# ---------------------------------------------------------------------------
# Model / engine / CLI integration: each surface runs the oracle's chain
# ---------------------------------------------------------------------------
class TestKernelIntegration:
    def test_latent_truth_model_kernel_parity(self, small_book_dataset, monkeypatch):
        claims = small_book_dataset.claims
        walk = LatentTruthModel(iterations=30, seed=4).fit(claims)
        oracle = _with_oracle(monkeypatch, lambda: LatentTruthModel(iterations=30, seed=4).fit(claims))
        assert np.array_equal(walk.scores, oracle.scores)
        assert np.array_equal(walk.extras["final_counts"], oracle.extras["final_counts"])

    def test_positive_only_ltm_forwards_kernel(self, paper_claims, monkeypatch):
        walk = PositiveOnlyLTM(iterations=30, seed=4).fit(paper_claims)
        oracle = _with_oracle(monkeypatch, lambda: PositiveOnlyLTM(iterations=30, seed=4).fit(paper_claims))
        assert np.array_equal(walk.scores, oracle.scores)

    def test_engine_params_reach_sampler_and_artifact(self, tmp_path, monkeypatch):
        params = {"iterations": 25, "seed": 11}
        engine = TruthEngine(method="ltm", params=params).fit("paper_example")
        reference = _with_oracle(
            monkeypatch, lambda: TruthEngine(method="ltm", params=params).fit("paper_example")
        )
        assert engine.last_trace.flips_per_iteration == reference.last_trace.flips_per_iteration
        assert np.array_equal(engine.result().scores, reference.result().scores)
        # The sampler settings and the scores survive the artifact round-trip.
        loaded = TruthEngine.load(engine.save(tmp_path / "artifact"))
        assert loaded.config.params == params
        assert loaded.fact_scores == engine.fact_scores

    def test_sharded_execution_kernel_parity(self, monkeypatch):
        def sharded():
            engine = TruthEngine(
                EngineConfig(
                    method="ltm",
                    params={"iterations": 20, "seed": 6},
                    execution=ExecutionConfig(num_shards=3, backend="serial"),
                )
            )
            return engine.fit("movies_small")

        walk = sharded()
        oracle = _with_oracle(monkeypatch, sharded)
        assert walk.fact_scores == oracle.fact_scores

    def test_cli_kernel_artifacts_byte_identical(self, tmp_path, capsys, monkeypatch):
        # The exported artifact's scores are the oracle chain's, byte for byte.
        from repro.cli import main

        def export(name):
            args = ["export", "paper_example", str(tmp_path / name), "--iterations", "30", "--seed", "7"]
            assert main(args) == 0
            return np.load(tmp_path / name / "arrays.npz")["fact_score"]

        walk = export("walk")
        oracle = _with_oracle(monkeypatch, lambda: export("oracle"))
        capsys.readouterr()
        assert walk.tobytes() == oracle.tobytes()
