"""Tests for repro.parallel: planning, execution backends, score-parity merge.

The contract pinned here (see ISSUE 5 / README "Scaling out"):

* entity partitioning is stable across runs, hash seeds and Python versions;
* sharded fits are **score-identical** to serial for the entity-decomposable
  methods (Voting exactly; LTMinc and the trust-synchronised TruthFinder to
  floating-point reduction order) on every catalog dataset shape;
* sampled LTM is statistically equivalent (pinned AUC tolerance on the LTM
  generative workload) with one globally consistent quality table;
* results are deterministic for a fixed seed **across backends**
  (serial / processes);
* the merged artifact set round-trips through
  :class:`~repro.serving.TruthService` with identical query results;
* clustered entities co-locate, and scaling curves built from sharded runs
  match serial ones.
"""

import numpy as np
import pytest

from repro.core.model import LatentTruthModel
from repro.data.claim_builder import build_claim_matrix
from repro.engine import EngineConfig, ExecutionConfig, TruthEngine, default_registry
from repro.evaluation.roc import auc_score
from repro.evaluation.scaling import entity_subsets, linear_fit
from repro.exceptions import ArtifactError, ConfigurationError, NotFittedError
from repro.extensions.entity_clusters import EntityClusteredLTM
from repro.io import MemorySource, as_source, entity_partition_key
from repro.parallel import (
    MergedFit,
    ParallelExecutor,
    ShardPlanner,
    merge_artifacts,
)
from repro.serving import TruthService

# Small catalog variants: every catalog dataset *shape* (worked example, the
# two simulators, the generative process, the adversarial profile), sized for
# CI.  (key, factory params)
CATALOG_CASES = [
    ("paper_example", {}),
    ("books_small", {}),
    ("movies_small", {}),
    ("ltm_generative", {"num_facts": 400, "num_sources": 10, "seed": 42}),
    ("adversarial", {"num_movies": 80, "labelled_movies": 30, "seed": 41}),
]


def _aligned_scores(engine: TruthEngine, reference: TruthEngine) -> np.ndarray:
    """``engine``'s scores reordered to ``reference``'s fact ids."""
    scores = engine.fact_scores
    return np.array(
        [
            scores[(fact.entity, str(fact.attribute))]
            for fact in reference.claims().facts
        ]
    )


def _sharded(method, num_shards=4, backend="serial", sync_rounds=1, **params):
    return TruthEngine(
        EngineConfig(
            method=method,
            params=params,
            execution=ExecutionConfig(
                num_shards=num_shards,
                backend=backend,
                quality_sync_rounds=sync_rounds,
            ),
        )
    )


# ---------------------------------------------------------------------------
# Partition key and planner
# ---------------------------------------------------------------------------
class TestEntityPartitionKey:
    def test_pinned_values_are_version_stable(self):
        # These values must NEVER change: shard routing depends on them.
        assert entity_partition_key("Harry Potter") == 11092153610038008094
        assert entity_partition_key("Harry Potter", seed=1) == 4037308553356559288

    def test_independent_of_hash_randomisation(self):
        # Same digest regardless of str-hash; non-str keys go through str().
        assert entity_partition_key(42) == entity_partition_key("42")
        assert entity_partition_key("e1") == entity_partition_key("e1")

    def test_seed_changes_partitioning(self):
        entities = [f"e{i}" for i in range(200)]
        a = [entity_partition_key(e, seed=0) % 4 for e in entities]
        b = [entity_partition_key(e, seed=1) % 4 for e in entities]
        assert a != b

    def test_roughly_uniform(self):
        counts = np.bincount(
            [entity_partition_key(f"entity-{i}") % 4 for i in range(2000)], minlength=4
        )
        assert counts.min() > 350


class TestShardPlanner:
    def test_partition_is_disjoint_and_covering(self):
        source = as_source("books_small")
        plan = ShardPlanner(4).plan(source)
        all_triples = list(source.iter_triples())
        assert plan.num_triples == len(all_triples)
        seen_entities = [e for shard in plan for e in shard.entities]
        assert len(seen_entities) == len(set(seen_entities))
        assert set(seen_entities) == {t.entity for t in all_triples}
        for shard in plan:
            for triple in shard.triples:
                assert plan.shards[shard.index].index == ShardPlanner(4).shard_of(
                    triple.entity
                )

    def test_assignment_is_stable_across_planners(self):
        first = ShardPlanner(8, seed=3)
        second = ShardPlanner(8, seed=3)
        for entity in ("Harry Potter", "movie-17", "book 4", "ä-umlaut"):
            assert first.shard_of(entity) == second.shard_of(entity)

    def test_entity_triples_stay_together(self):
        plan = ShardPlanner(3).plan("paper_example")
        entity_shards = {}
        for shard in plan:
            for triple in shard.triples:
                entity_shards.setdefault(triple.entity, set()).add(shard.index)
        assert all(len(shards) == 1 for shards in entity_shards.values())

    def test_more_shards_than_entities_leaves_empty_shards(self):
        plan = ShardPlanner(16).plan("paper_example")  # 2 entities
        assert plan.num_shards == 16
        assert len(plan.non_empty()) <= 2
        assert plan.num_triples == 8

    def test_group_of_co_locates_groups(self):
        clusters = {f"e{i}": f"cluster{i % 3}" for i in range(30)}
        triples = [(e, "v", "s1") for e in clusters] + [(e, "w", "s2") for e in clusters]
        planner = ShardPlanner(5, group_of=lambda e: clusters[e])
        plan = planner.plan(triples)
        cluster_shards = {}
        for shard in plan:
            for entity in shard.entities:
                cluster_shards.setdefault(clusters[entity], set()).add(shard.index)
        assert all(len(shards) == 1 for shards in cluster_shards.values())

    def test_invalid_num_shards(self):
        with pytest.raises(ConfigurationError):
            ShardPlanner(0)


# ---------------------------------------------------------------------------
# Score parity on every catalog dataset shape
# ---------------------------------------------------------------------------
class TestScoreParity:
    @pytest.mark.parametrize("key,params", CATALOG_CASES, ids=[c[0] for c in CATALOG_CASES])
    def test_voting_is_score_identical(self, key, params):
        source = as_source(key, **params)
        serial = TruthEngine(method="voting").fit(source)
        sharded = _sharded("voting").fit(source)
        np.testing.assert_array_equal(_aligned_scores(sharded, serial), serial.predict_proba())

    @pytest.mark.parametrize("key,params", CATALOG_CASES, ids=[c[0] for c in CATALOG_CASES])
    def test_truthfinder_is_score_identical(self, key, params):
        source = as_source(key, **params)
        serial = TruthEngine(method="truthfinder").fit(source)
        sharded = _sharded("truthfinder").fit(source)
        np.testing.assert_allclose(
            _aligned_scores(sharded, serial), serial.predict_proba(), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("key,params", CATALOG_CASES, ids=[c[0] for c in CATALOG_CASES])
    def test_ltm_inc_is_score_identical(self, key, params):
        source = as_source(key, **params)
        quality = LatentTruthModel(iterations=30, seed=3).fit(
            build_claim_matrix(source.iter_triples())
        ).source_quality
        serial = TruthEngine(method="ltm_inc", params={"source_quality": quality}).fit(source)
        sharded = _sharded("ltm_inc", source_quality=quality).fit(source)
        np.testing.assert_allclose(
            _aligned_scores(sharded, serial), serial.predict_proba(), rtol=0, atol=1e-12
        )

    def test_sampled_ltm_auc_within_tolerance_on_ltm_generative(self):
        """Sharded LTM is statistically equivalent to serial (pinned AUC tol)."""
        source = as_source("ltm_generative", num_facts=600, num_sources=12, seed=42)
        dataset = source.to_dataset()
        # Label facts by identity: the engine rebuilds its matrix from the
        # positive triples, which drops facts no source ever asserted.
        pair_labels = {
            (fact.entity, str(fact.attribute)): dataset.labels[fact.fact_id]
            for fact in dataset.claims.facts
            if fact.fact_id in dataset.labels
        }

        serial = TruthEngine(method="ltm", params={"iterations": 40, "seed": 7}).fit(source)
        sharded = _sharded("ltm", iterations=40, seed=7).fit(source)

        common = [pair for pair in pair_labels if pair in serial.fact_scores]
        assert len(common) >= 400
        labels = np.array([pair_labels[pair] for pair in common])
        serial_auc = auc_score([serial.fact_scores[p] for p in common], labels)
        sharded_auc = auc_score([sharded.fact_scores[p] for p in common], labels)
        # Pinned tolerance: sharding must never cost more than 0.02 AUC.  (It
        # may *gain* AUC: the quality-sync rounds replace finite-sample Gibbs
        # averages with the closed-form posterior under the merged quality.)
        assert sharded_auc >= serial_auc - 0.02
        assert serial_auc >= 0.85 and sharded_auc >= 0.85  # both fits work

    def test_ltm_pos_keeps_positive_only_semantics_when_sharded(self):
        """LTMpos never sees negative claims: the sharded merge (counts and
        quality-sync re-scoring) must stay on the positive-claim domain, so
        the method's documented optimism (junk facts scored high — the
        paper's FPR ~1.0 ablation behaviour) survives sharding."""
        triples = []
        for e in range(24):
            for s in range(5):
                triples.append((f"e{e}", f"true_{e}", f"good{s}"))
            triples.append((f"e{e}", f"junk_{e}", "spammer"))
        serial = TruthEngine(method="ltm_pos", params={"iterations": 60, "seed": 3}).fit(
            triples
        )
        sharded = _sharded("ltm_pos", num_shards=3, iterations=60, seed=3).fit(triples)
        serial_scores, sharded_scores = serial.fact_scores, sharded.fact_scores
        assert all(
            (serial_scores[k] >= 0.5) == (sharded_scores[k] >= 0.5)
            for k in serial_scores
        )
        junk = [v for k, v in sharded_scores.items() if k[1].startswith("junk_")]
        assert min(junk) >= 0.5  # still optimistic, like serial LTMpos
        diffs = [abs(serial_scores[k] - sharded_scores[k]) for k in serial_scores]
        assert float(np.mean(diffs)) < 0.05

    def test_ltm_quality_sync_gives_one_global_quality(self):
        sharded = _sharded("ltm", iterations=30, seed=5, sync_rounds=2).fit("books_small")
        quality = sharded.quality_report()
        serial = TruthEngine(method="ltm", params={"iterations": 30, "seed": 5}).fit(
            "books_small"
        )
        reference = serial.quality_report()
        assert set(quality.source_names) == set(reference.source_names)
        lookup = {n: i for i, n in enumerate(quality.source_names)}
        aligned = np.array([quality.sensitivity[lookup[n]] for n in reference.source_names])
        # Statistically close, not identical: different Gibbs chains.
        assert np.abs(aligned - reference.sensitivity).mean() < 0.1


# ---------------------------------------------------------------------------
# Backend determinism
# ---------------------------------------------------------------------------
class TestBackendDeterminism:
    @pytest.mark.parametrize("method,params", [
        ("voting", {}),
        ("truthfinder", {}),
        ("ltm", {"iterations": 20, "seed": 11}),
    ])
    def test_backends_agree_bitwise(self, method, params):
        reference = None
        for backend in ("serial", "processes"):
            engine = _sharded(method, backend=backend, **params).fit("books_small")
            scores = engine.predict_proba()
            if reference is None:
                reference = scores
            else:
                np.testing.assert_array_equal(scores, reference)

    def test_same_seed_same_result_repeated(self):
        a = _sharded("ltm", iterations=20, seed=9).fit("books_small").predict_proba()
        b = _sharded("ltm", iterations=20, seed=9).fit("books_small").predict_proba()
        np.testing.assert_array_equal(a, b)

    def test_shard_seeds_are_slot_stable(self):
        seeds = ParallelExecutor.shard_seeds(7, 4)
        assert seeds == ParallelExecutor.shard_seeds(7, 4)
        assert len(set(seeds)) == 4
        assert ParallelExecutor.shard_seeds(None, 3) == [None, None, None]
        # A shard's seed must not depend on the plan width's occupancy, only
        # on (base seed, slot, width).
        assert ParallelExecutor.shard_seeds(7, 4) != ParallelExecutor.shard_seeds(8, 4)


# ---------------------------------------------------------------------------
# Engine and serving integration
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def test_sharded_artifact_serves_identically(self, tmp_path):
        engine = _sharded("ltm", iterations=25, seed=3).fit("books_small")
        path = engine.save(tmp_path / "artifact")
        service = TruthService(path)
        pairs = [(f.entity, str(f.attribute)) for f in engine.claims().facts]
        np.testing.assert_array_equal(service.batch(pairs), engine.predict_proba())

    def test_shard_artifacts_merge_back_to_engine_state(self, tmp_path):
        engine = _sharded("ltm", num_shards=3, iterations=25, seed=3).fit("books_small")
        paths = [
            artifact.save(tmp_path / f"shard_{i:02d}")
            for i, artifact in enumerate(engine.shard_artifacts())
        ]
        merged = merge_artifacts(paths)
        service = TruthService(merged)
        pairs = [(f.entity, str(f.attribute)) for f in engine.claims().facts]
        np.testing.assert_allclose(
            service.batch(pairs), engine.predict_proba(), rtol=0, atol=1e-12
        )
        quality = engine.quality_report()
        lookup = {n: i for i, n in enumerate(merged.quality.source_names)}
        idx = [lookup[n] for n in quality.source_names]
        np.testing.assert_allclose(
            merged.quality.sensitivity[idx], quality.sensitivity, rtol=0, atol=1e-9
        )

    def test_merge_artifacts_rejects_overlap(self, tmp_path):
        engine = TruthEngine(method="voting").fit("paper_example")
        artifact = engine.to_artifact()
        with pytest.raises(ArtifactError, match="overlap"):
            merge_artifacts([artifact, artifact])

    def test_shard_artifacts_requires_sharded_fit(self):
        engine = TruthEngine(method="voting").fit("paper_example")
        with pytest.raises(NotFittedError):
            engine.shard_artifacts()

    def test_sharded_streaming_refit(self):
        engine = TruthEngine(
            EngineConfig(
                method="ltm",
                params={"iterations": 15, "seed": 2},
                retrain_every=1,
                execution=ExecutionConfig(num_shards=2, backend="processes"),
            )
        )
        source = MemorySource(
            [(f"e{i}", f"v{i}", f"s{j}") for i in range(8) for j in range(3)]
        )
        for batch in source.iter_batches(4, by_entity=True):
            engine.partial_fit(batch)
        assert engine.is_fitted
        assert engine.source_quality is not None
        assert all(r.retrained for r in engine.reports)
        assert engine.result().extras["execution"]["num_shards"] == 2

    def test_sharded_fit_rejects_claim_matrix_input(self):
        claims = build_claim_matrix([("e", "a", "s1"), ("e", "b", "s2")])
        with pytest.raises(ConfigurationError, match="ClaimMatrix"):
            _sharded("voting").fit(claims)

    def test_sharded_engine_rejects_solver_instance(self):
        from repro.baselines.voting import Voting

        with pytest.raises(ConfigurationError, match="prebuilt solver"):
            TruthEngine(
                EngineConfig(method="voting", execution=ExecutionConfig(num_shards=2)),
                solver=Voting(),
            )

    def test_config_mutated_to_sharded_with_solver_raises_not_degrades(self):
        """Reassigning engine.config mid-lifecycle must never silently run
        a requested sharded fit single-shard."""
        from repro.baselines.voting import Voting

        engine = TruthEngine(solver=Voting())
        engine.config = engine.config.with_overrides(
            execution=ExecutionConfig(num_shards=4)
        )
        with pytest.raises(ConfigurationError, match="prebuilt solver"):
            engine.fit([("e", "a", "s1"), ("e", "b", "s2")])

    def test_custom_registry_shards_on_in_process_backends(self):
        from repro.baselines.voting import Voting
        from repro.engine.registry import MethodRegistry

        registry = MethodRegistry()
        registry.register_method(
            "myvote", Voting, "custom voting", shard_strategy="local"
        )
        engine = TruthEngine(
            EngineConfig(
                method="myvote",
                execution=ExecutionConfig(num_shards=3, backend="serial"),
            ),
            registry=registry,
        ).fit("paper_example")
        reference = TruthEngine(method="voting").fit("paper_example")
        np.testing.assert_array_equal(
            _aligned_scores(engine, reference), reference.predict_proba()
        )
        with pytest.raises(ConfigurationError, match="default registry"):
            TruthEngine(
                EngineConfig(
                    method="myvote",
                    execution=ExecutionConfig(num_shards=3, backend="processes"),
                ),
                registry=registry,
            ).fit("paper_example")

    def test_non_shardable_method_raises_pointed_error(self):
        with pytest.raises(ConfigurationError, match="shardable methods"):
            _sharded("investment").fit("paper_example")


class TestExecutionConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(backend="gpu")
        with pytest.raises(ConfigurationError):
            ExecutionConfig(quality_sync_rounds=-1)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(max_workers=0)

    def test_round_trips_through_dicts_and_engine_config(self):
        execution = ExecutionConfig(num_shards=4, backend="processes", quality_sync_rounds=2)
        assert ExecutionConfig.from_dict(execution.to_dict()) == execution
        config = EngineConfig(method="voting", execution=execution)
        assert EngineConfig.from_dict(config.to_dict()) == config
        coerced = EngineConfig(method="voting", execution={"num_shards": 3})
        assert coerced.execution == ExecutionConfig(num_shards=3)

    def test_execution_survives_artifact_round_trip(self, tmp_path):
        engine = _sharded("voting", num_shards=2, backend="processes").fit("paper_example")
        path = engine.save(tmp_path / "artifact")
        restored = TruthEngine.load(path)
        assert restored.config.execution == engine.config.execution


# ---------------------------------------------------------------------------
# Satellites: entity clusters and scaling curves under sharded execution
# ---------------------------------------------------------------------------
class TestClusteredSharding:
    def test_cluster_assignment_co_shards_with_group_of(self):
        clusters = {f"m{i}": ("horror" if i % 2 else "drama") for i in range(40)}
        triples = [
            (entity, f"director-{i % 5}", f"src{j}")
            for i, entity in enumerate(clusters)
            for j in range(3)
        ]
        planner = ShardPlanner(4, group_of=lambda e: clusters[e])
        plan = planner.plan(triples)
        shard_of_cluster = {}
        for shard in plan:
            for entity in shard.entities:
                label = clusters[entity]
                assert shard_of_cluster.setdefault(label, shard.index) == shard.index

    def test_clustered_ltm_fits_whole_clusters_per_shard(self):
        """Each shard holds whole clusters, so per-shard EntityClusteredLTM
        sees every cluster exactly once across the plan."""
        clusters = {f"m{i}": f"c{i % 3}" for i in range(18)}
        triples = [
            (entity, "true-value", f"good{j}") for entity in clusters for j in range(3)
        ] + [(entity, "junk", "spammer") for entity in clusters]
        planner = ShardPlanner(3, group_of=lambda e: clusters[e])
        plan = planner.plan(triples)

        seen_clusters = []
        for shard in plan.non_empty():
            matrix = build_claim_matrix(shard.triples)
            model = EntityClusteredLTM(
                {e: clusters[e] for e in shard.entities},
                min_cluster_entities=1,
                iterations=15,
                seed=4,
            )
            scores, results = model.fit(matrix)
            assert scores.shape == (matrix.num_facts,)
            seen_clusters.extend(results)
        assert sorted(seen_clusters) == sorted(set(clusters.values()))


class TestScalingUnderSharding:
    def test_sharded_scaling_curve_matches_serial(self):
        source = as_source("movies_small")
        claims = build_claim_matrix(source.iter_triples())
        subsets = entity_subsets(claims, fractions=(0.4, 0.7, 1.0), seed=13)

        measurements = []
        for subset in subsets:
            triples = [
                (subset.fact(int(f)).entity, subset.fact(int(f)).attribute,
                 subset.source_names[int(s)])
                for f, s, o in zip(subset.claim_fact, subset.claim_source, subset.claim_obs)
                if o
            ]
            serial = TruthEngine(method="voting").fit(triples)
            sharded = _sharded("voting", num_shards=3).fit(triples)
            np.testing.assert_array_equal(
                _aligned_scores(sharded, serial), serial.predict_proba()
            )
            measurements.append(
                (float(serial.claims().num_claims),
                 float(sharded.result().runtime_seconds))
            )

        claims_counts = [m[0] for m in measurements]
        assert claims_counts == sorted(claims_counts)
        fit = linear_fit(claims_counts, [m[1] for m in measurements])
        assert np.isfinite(fit.slope) and np.isfinite(fit.r_squared)


# ---------------------------------------------------------------------------
# Stable batch ordering (repro.io satellite)
# ---------------------------------------------------------------------------
class TestStableBatchOrdering:
    def test_unshuffled_order_is_first_seen(self):
        source = MemorySource([("b", "1", "s"), ("a", "2", "s"), ("b", "3", "t")])
        batches = list(source.iter_batches(10, by_entity=True))
        assert batches[0].entities == ["b", "a"]

    def test_seeded_shuffle_is_digest_stable(self):
        triples = [(f"e{i}", "v", "s") for i in range(12)]
        source = MemorySource(triples)
        order = [b.entities for b in source.iter_batches(3, by_entity=True, shuffle=True, seed=5)]
        again = [b.entities for b in source.iter_batches(3, by_entity=True, shuffle=True, seed=5)]
        other = [b.entities for b in source.iter_batches(3, by_entity=True, shuffle=True, seed=6)]
        assert order == again
        assert order != other
        # The order is the digest order — reproducible from first principles,
        # independent of interpreter hash randomisation.
        expected = sorted(
            (e for e, _, _ in triples), key=lambda e: entity_partition_key(e, seed=5)
        )
        assert [e for batch in order for e in batch] == expected


class TestExecutorSurface:
    def test_executor_fit_returns_merged_fit(self):
        plan = ShardPlanner(2).plan("paper_example")
        merged = ParallelExecutor("serial").fit(plan, "voting")
        assert isinstance(merged, MergedFit)
        assert merged.num_facts == 5
        assert merged.strategy == "local"
        assert len(merged.shard_summaries()) == len(plan.non_empty())

    def test_executor_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor("quantum")

    def test_registry_declares_shard_strategies(self):
        registry = default_registry()
        assert registry.spec("voting").shard_strategy == "local"
        assert registry.spec("ltm_inc").shard_strategy == "local"
        assert registry.spec("ltm").shard_strategy == "counts"
        assert registry.spec("ltm_pos").shard_strategy == "counts_positive"
        assert registry.spec("truthfinder").shard_strategy == "trust_sync"
        assert registry.spec("investment").shard_strategy is None
        assert "shard_strategy" in registry.spec("ltm").metadata()


# ---------------------------------------------------------------------------
# Out-of-core key-range plans (ISSUE 7)
# ---------------------------------------------------------------------------
class TestKeyShardPlans:
    """plan() over an on-disk store: sharding without materialising the corpus."""

    def _triples(self, num_entities=16):
        triples = []
        for e in range(num_entities):
            for s in range(3):
                triples.append((f"e{e}", f"true_{e}", f"good{s}"))
            triples.append((f"e{e}", f"junk_{e}", "spammer"))
        return triples

    @pytest.fixture
    def store_path(self, tmp_path):
        from repro.store import ClaimStore

        path = tmp_path / "claims.db"
        with ClaimStore(path) as store:
            store.append(self._triples())
        return path

    def test_plan_keys_membership_matches_eager_plan(self, store_path):
        from repro.io import StoreSource

        planner = ShardPlanner(4, seed=3)
        with StoreSource(store_path) as source:
            keyed = planner.plan(source)
        eager = planner.plan(self._triples())
        assert keyed.store_path == str(store_path)
        assert eager.store_path is None
        assert keyed.num_triples == 0
        assert keyed.num_entities == eager.num_entities
        for key_shard, shard in zip(keyed.shards, eager.shards):
            assert key_shard.entities == shard.entities
        assert [s.index for s in keyed.non_empty()] == [
            s.index for s in eager.non_empty()
        ]

    def test_plan_keys_accepts_store_urls(self, store_path):
        plan = ShardPlanner(2).plan(f"store://{store_path}")
        assert plan.store_path == str(store_path)
        assert plan.num_entities == 16

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_range_fit_is_score_identical_to_eager_fit(self, store_path, backend):
        planner = ShardPlanner(3, seed=1)
        keyed = planner.plan(f"store://{store_path}")
        eager = planner.plan(self._triples())
        executor = ParallelExecutor(backend)
        from_keys = executor.fit(keyed, "voting")
        from_triples = executor.fit(eager, "voting")
        assert from_keys.fact_scores() == from_triples.fact_scores()

    def test_range_fit_gibbs_ltm_parity(self, store_path):
        planner = ShardPlanner(2, seed=0)
        params = {"iterations": 30, "seed": 11}
        from_keys = ParallelExecutor("serial").fit(
            planner.plan(f"store://{store_path}"), "ltm", params,
            quality_sync_rounds=1,
        )
        from_triples = ParallelExecutor("serial").fit(
            planner.plan(self._triples()), "ltm", params,
            quality_sync_rounds=1,
        )
        assert from_keys.fact_scores() == from_triples.fact_scores()

    def test_fit_shard_range_reopens_the_store_read_only(self, store_path):
        from repro.parallel import ShardTask, fit_shard

        task = ShardTask(
            index=0,
            num_shards=1,
            method="voting",
            params={},
            seed=None,
            strategy="local",
            store_path=str(store_path),
            entities=("e0", "e1"),
        )
        fit = fit_shard(task)
        # 2 entities x (1 true fact + 1 junk fact) each.
        assert fit.num_facts == 4
        assert sorted(set(fit.fact_entities)) == ["e0", "e1"]

    def test_in_memory_store_fits_like_its_triples(self):
        from repro.io import StoreSource
        from repro.store import ClaimStore

        store = ClaimStore(":memory:")
        store.append(self._triples())
        execution = ExecutionConfig(num_shards=3, backend="serial")
        config = EngineConfig(method="voting", execution=execution)
        from_store = TruthEngine(config).fit(StoreSource(store))
        from_triples = TruthEngine(config).fit(self._triples())
        assert from_store.fact_scores == from_triples.fact_scores
        # A worker cannot reopen an in-memory store, so it is planned by triples.
        assert ShardPlanner(3).plan(StoreSource(store)).store_path is None
