"""Tests of the serving subsystem: TruthArtifact, TruthService and the CLI.

Covers the acceptance contracts of the serving pillar:

* save → load → ``predict_proba`` score-identity across every catalog
  dataset and across representative methods;
* byte-identical artifact payloads for two fits with the same seed;
* version-mismatch warning and schema-migration hooks on load;
* cold-start scoring of claims from sources unseen at fit time;
* atomic ``refresh`` snapshot swaps under interleaved / concurrent queries;
* step-artifact emission from ``partial_fit`` / ``export_dir``;
* the ``repro-truth export`` / ``query`` CLI surface.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import cli
from repro.core.priors import LTMPriors
from repro.engine import EngineConfig, ExecutionConfig, TruthEngine
from repro.exceptions import (
    ArtifactError,
    ArtifactVersionWarning,
    ConfigurationError,
    NotFittedError,
)
from repro.io import as_source, default_catalog
from repro.serving import SCHEMA_VERSION, TruthArtifact, TruthService, load_artifact, serve
from repro.serving import artifact as artifact_module


#: Small overrides per catalog key so full-size simulators stay test-sized.
CATALOG_OVERRIDES: dict[str, dict] = {
    "paper_example": {},
    "books": {"num_books": 30, "labelled_books": 10},
    "books_small": {},
    "movies": {"num_movies": 40, "labelled_movies": 10},
    "movies_small": {},
    "ltm_generative": {"num_facts": 60, "num_sources": 6},
    "adversarial": {"num_movies": 40, "labelled_movies": 10},
}


def _source_for(key: str):
    return as_source(key, **CATALOG_OVERRIDES.get(key, {}))


def _fitted_engine(key: str, method: str) -> TruthEngine:
    source = _source_for(key)
    if method == "ltm_inc":
        # LTMinc needs previously learned quality; learn it with a short LTM run.
        quality = (
            TruthEngine(method="ltm", iterations=5, seed=13).fit(source).quality_report()
        )
        return TruthEngine(method="ltm_inc", source_quality=quality).fit(source)
    params = {"iterations": 5, "seed": 13} if method == "ltm" else {}
    return TruthEngine(method=method, **params).fit(source)


# ---------------------------------------------------------------------------
# Round trip: save -> load -> predict_proba score-identity
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(CATALOG_OVERRIDES))
@pytest.mark.parametrize("method", ["ltm", "ltm_inc", "voting", "truthfinder"])
def test_round_trip_score_identity(tmp_path, key, method):
    engine = _fitted_engine(key, method)
    path = engine.save(tmp_path / "artifact")

    loaded = TruthEngine.load(path)
    np.testing.assert_array_equal(loaded.predict_proba(), engine.predict_proba())
    assert loaded.fact_scores == engine.fact_scores
    assert loaded.is_fitted
    assert loaded.config.method == engine.config.method

    if engine.source_quality is not None:
        assert loaded.source_quality is not None
        assert loaded.source_quality.source_names == engine.source_quality.source_names
        np.testing.assert_array_equal(
            loaded.source_quality.sensitivity, engine.source_quality.sensitivity
        )
        np.testing.assert_array_equal(
            loaded.source_quality.specificity, engine.source_quality.specificity
        )
        # Serving-style prediction on fresh triples is identical too.
        new = [("round-trip-entity", "v1", "round-trip-source")]
        np.testing.assert_array_equal(
            loaded.predict_proba(new), engine.predict_proba(new)
        )


def test_round_trip_preserves_config_and_metadata(tmp_path):
    config = EngineConfig(
        method="ltm",
        params={"iterations": 5, "seed": 21, "priors": LTMPriors.paper_book_defaults()},
        threshold=0.6,
        retrain_every=3,
        cumulative=False,
    )
    engine = TruthEngine(config).fit("paper_example")
    artifact = engine.to_artifact(name="paper-v1", extras={"note": "round-trip"})
    path = artifact.save(tmp_path / "artifact")

    restored = load_artifact(path)
    assert restored.name == "paper-v1"
    assert restored.extras == {"note": "round-trip", "steps_integrated": 0}
    assert restored.schema_version == SCHEMA_VERSION
    assert restored.seed == 21
    assert restored.config.threshold == 0.6
    assert restored.config.retrain_every == 3
    assert restored.config.cumulative is False
    priors = restored.config.params["priors"]
    assert isinstance(priors, LTMPriors)
    assert priors.false_positive.positive == 10.0
    assert priors.false_positive.negative == 1000.0

    # Non-serialisable extras fail as ArtifactError, like config params do.
    with pytest.raises(ArtifactError, match="serialisable"):
        engine.to_artifact(extras={"when": object()}).manifest()


def test_to_artifact_before_fit_raises():
    with pytest.raises(NotFittedError):
        TruthEngine(method="voting").to_artifact()


# ---------------------------------------------------------------------------
# Determinism: same seed, byte-identical payload
# ---------------------------------------------------------------------------
def test_same_seed_fits_are_byte_identical(tmp_path):
    def payload():
        engine = TruthEngine(method="ltm", iterations=20, seed=99).fit(
            _source_for("books_small")
        )
        return engine.to_artifact(name="determinism").payload()

    first, second = payload(), payload()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical fits"

    # The on-disk files are byte-identical as well.
    engine = TruthEngine(method="ltm", iterations=20, seed=99).fit(
        _source_for("books_small")
    )
    path = engine.to_artifact(name="determinism").save(tmp_path / "a")
    for name, data in first.items():
        assert (path / name).read_bytes() == data


def test_artifact_records_seed_and_version(tmp_path):
    import repro

    engine = TruthEngine(method="ltm", iterations=5, seed=4).fit("paper_example")
    path = engine.save(tmp_path / "artifact")
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 4
    assert manifest["repro_version"] == repro.__version__
    assert manifest["schema_version"] == SCHEMA_VERSION


# ---------------------------------------------------------------------------
# Version mismatch and schema migrations
# ---------------------------------------------------------------------------
def test_load_warns_on_version_mismatch(tmp_path):
    engine = TruthEngine(method="voting").fit("paper_example")
    path = engine.save(tmp_path / "artifact")
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["repro_version"] = "0.0.1"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    with pytest.warns(ArtifactVersionWarning, match="0.0.1"):
        restored = TruthArtifact.load(path)
    assert restored.num_facts == engine.to_artifact().num_facts


def test_unmigratable_old_schema_fails_pointedly(tmp_path):
    engine = TruthEngine(method="voting").fit("paper_example")
    path = engine.save(tmp_path / "artifact")
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["schema_version"] = 0
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    with pytest.raises(ArtifactError, match="no migration"):
        TruthArtifact.load(path)


def test_migration_hook_upgrades_old_artifacts(tmp_path):
    engine = TruthEngine(method="voting").fit("paper_example")
    path = engine.save(tmp_path / "artifact")
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["schema_version"] = 0
    manifest.pop("name")  # pretend v0 manifests had no name field
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    def upgrade_v0(data: dict) -> dict:
        data["schema_version"] = 1
        data.setdefault("name", "migrated-v0")
        return data

    # v0 -> v1 through the test hook, then v1 -> v2 through the bundled one.
    artifact_module.register_migration(0, upgrade_v0)
    try:
        restored = TruthArtifact.load(path)
    finally:
        artifact_module._MIGRATIONS.pop(0, None)
    assert restored.name == "migrated-v0"
    assert restored.num_facts == 5
    assert restored.schema_version == SCHEMA_VERSION == 3

    # Registering forwards or twice is rejected.
    with pytest.raises(ArtifactError):
        artifact_module.register_migration(SCHEMA_VERSION, upgrade_v0)


def test_v1_artifact_with_kernel_param_loads_serves_and_refits(tmp_path):
    # Schema-1 artifacts exported with a Gibbs kernel choice carry
    # ``params.kernel``; the 1 -> 2 migration drops it.
    params = {"iterations": 25, "seed": 11}
    engine = TruthEngine(method="ltm", params=params).fit("paper_example")
    path = engine.save(tmp_path / "artifact")
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["schema_version"] = 1
    manifest["config"]["params"]["kernel"] = "blocked"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    restored = TruthArtifact.load(path)
    assert restored.schema_version == SCHEMA_VERSION
    assert restored.config.params == params
    assert restored.fact_scores() == engine.fact_scores
    service = TruthService(path)
    for (entity, attribute), score in engine.fact_scores.items():
        assert service.truth_of(entity, attribute) == score

    refit = TruthEngine.load(path).fit("paper_example")
    assert refit.fact_scores == engine.fact_scores


def test_v2_artifact_with_threads_backend_loads_as_serial(tmp_path):
    # Schema-2 artifacts may record the removed ``threads`` shard backend;
    # the 2 -> 3 migration maps it to ``serial`` (identical scores).
    execution = ExecutionConfig(num_shards=2, backend="serial")
    engine = TruthEngine(method="voting", execution=execution).fit("paper_example")
    path = engine.save(tmp_path / "artifact")
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["schema_version"] = 2
    manifest["config"]["execution"]["backend"] = "threads"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    restored = TruthEngine.load(path)
    assert restored.config.execution == execution
    assert restored.fact_scores == engine.fact_scores
    refit = restored.fit("paper_example")
    assert refit.fact_scores == engine.fact_scores


def test_load_rejects_non_artifacts(tmp_path):
    with pytest.raises(ArtifactError, match="manifest"):
        TruthArtifact.load(tmp_path)
    (tmp_path / "manifest.json").write_text("not json", encoding="utf-8")
    with pytest.raises(ArtifactError, match="JSON"):
        TruthArtifact.load(tmp_path)


def test_load_wraps_corruption_in_artifact_error(tmp_path, capsys):
    """Corrupt payloads surface as ArtifactError (the CLI's error contract)."""
    engine = TruthEngine(method="ltm", iterations=5, seed=1).fit("paper_example")
    path = engine.save(tmp_path / "artifact")

    arrays = (path / "arrays.npz").read_bytes()
    (path / "arrays.npz").write_bytes(arrays[: len(arrays) // 2])
    with pytest.raises(ArtifactError, match="corrupt|does not match"):
        TruthArtifact.load(path)
    assert cli.main(["query", str(path), "Harry Potter"]) == 2
    assert "error" in capsys.readouterr().err
    (path / "arrays.npz").write_bytes(arrays)

    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["config"]["threshold"] = 2.0  # invalid EngineConfig
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ArtifactError, match="invalid engine config"):
        TruthArtifact.load(path)

    manifest["config"]["threshold"] = 0.5
    manifest["config"]["params"] = {"priors": {"__type__": "BetaPrior"}}  # malformed
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ArtifactError, match="invalid engine config"):
        TruthArtifact.load(path)


def test_save_to_unwritable_target_raises_artifact_error(tmp_path, capsys):
    engine = TruthEngine(method="voting").fit("paper_example")
    blocker = tmp_path / "occupied"
    blocker.write_text("a regular file", encoding="utf-8")
    with pytest.raises(ArtifactError, match="cannot write"):
        engine.save(blocker)
    # The CLI keeps its error contract: message + exit 2, no traceback.
    assert cli.main(["export", "paper_example", str(blocker), "--method", "voting"]) == 2
    assert "error" in capsys.readouterr().err


def test_load_rejects_array_paths_outside_the_artifact(tmp_path):
    engine = TruthEngine(method="voting").fit("paper_example")
    path = engine.save(tmp_path / "artifact")
    outside = tmp_path / "outside.npz"
    outside.write_bytes((path / "arrays.npz").read_bytes())
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for escape in ("../outside.npz", str(outside)):
        manifest["arrays"] = escape
        manifest.pop("arrays_sha256", None)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactError, match="outside"):
            TruthArtifact.load(path)


def test_save_overwrite_commits_via_the_manifest(tmp_path):
    """In-place overwrite publishes through the manifest, replaced last.

    The only torn window an overwriting ``save()`` can expose is "new
    arrays, old manifest"; that combination must fail as ``ArtifactError``
    (not a raw ``KeyError``), and the completed overwrite must load cleanly.
    """
    quality_engine = TruthEngine(method="ltm", iterations=5, seed=1).fit("paper_example")
    path = quality_engine.save(tmp_path / "artifact")

    plain = TruthEngine(method="voting").fit("paper_example").to_artifact()
    (path / "arrays.npz").write_bytes(plain.payload()["arrays.npz"])
    with pytest.raises(ArtifactError, match="mid-overwrite"):
        TruthArtifact.load(path)  # old has_quality manifest, quality-less arrays

    plain.save(path)  # the overwrite completes: manifest flips last
    assert TruthArtifact.load(path).quality is None


# ---------------------------------------------------------------------------
# Cold start: claims from sources unseen at fit time
# ---------------------------------------------------------------------------
def test_predict_proba_mixed_seen_and_unseen_sources(paper_triples):
    engine = TruthEngine(method="ltm", iterations=20, seed=7).fit(paper_triples)
    mixed = [
        ("Harry Potter", "Daniel Radcliffe", "IMDB"),  # seen source
        ("Harry Potter", "Daniel Radcliffe", "totally-new-wiki"),  # unseen
        ("New Film", "New Director", "another-new-feed"),  # unseen only
    ]
    scores = engine.predict_proba(mixed)
    assert scores.shape == (2,)  # two facts
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert np.all(np.isfinite(scores))

    # The fallback quality is the prior mean, not the historical 0.5 / 0.99
    # constants: scoring through an explicitly prior-mean-quality predictor
    # must give identical numbers.
    from repro.core.incremental import IncrementalLTM
    from repro.data.claim_builder import build_claim_matrix

    priors = LTMPriors()
    predictor = IncrementalLTM(
        engine.quality_report(),
        truth_prior=(priors.truth.positive, priors.truth.negative),
        default_sensitivity=priors.sensitivity.mean,
        default_specificity=1.0 - priors.false_positive.mean,
    )
    expected = predictor.fit(build_claim_matrix(mixed, strict=False)).scores
    np.testing.assert_array_equal(scores, expected)


def test_service_score_matches_engine_cold_start(tmp_path, paper_triples):
    engine = TruthEngine(method="ltm", iterations=20, seed=7).fit(paper_triples)
    service = TruthService(engine.save(tmp_path / "artifact"))
    mixed = [
        ("Harry Potter", "Emma Watson", "Netflix"),
        ("Harry Potter", "Emma Watson", "unseen-source"),
        ("Fresh Entity", "Fresh Value", "unseen-source"),
    ]
    np.testing.assert_allclose(service.score(mixed), engine.predict_proba(mixed))
    by_fact = service.score_facts(mixed)
    assert set(by_fact) == {
        ("Harry Potter", "Emma Watson"),
        ("Fresh Entity", "Fresh Value"),
    }


def test_partial_fit_accepts_unseen_sources_after_load(tmp_path):
    engine = TruthEngine(method="ltm", iterations=10, seed=3).fit("paper_example")
    loaded = TruthEngine.load(engine.save(tmp_path / "artifact"))
    loaded.partial_fit([("Pirates 5", "Johnny Depp", "never-seen-before")])
    assert ("Pirates 5", "Johnny Depp") in loaded.fact_scores


def test_score_without_quality_raises_pointedly(tmp_path):
    engine = TruthEngine(method="voting").fit("paper_example")
    service = TruthService(engine.save(tmp_path / "artifact"))
    with pytest.raises(NotFittedError, match="quality"):
        service.score([("a", "b", "c")])


# ---------------------------------------------------------------------------
# TruthService queries
# ---------------------------------------------------------------------------
@pytest.fixture()
def paper_service(tmp_path):
    engine = TruthEngine(method="voting", threshold=0.5).fit("paper_example")
    return TruthService(engine.save(tmp_path / "artifact")), engine


def test_point_and_batch_lookups(paper_service):
    service, engine = paper_service
    for (entity, attribute), score in engine.fact_scores.items():
        assert service.truth_of(entity, attribute) == pytest.approx(score)
        assert (entity, attribute) in service

    assert service.truth_of("nope", "nothing", default=0.25) == 0.25
    with pytest.raises(KeyError):
        service.truth_of("nope", "nothing")
    assert ("nope", "nothing") not in service
    assert "not-a-pair" not in service

    pairs = [("Harry Potter", "Johnny Depp"), ("missing", "missing")]
    batch = service.batch(pairs)
    assert batch[0] == pytest.approx(1 / 3)
    assert np.isnan(batch[1])
    assert service.batch(pairs, default=-1.0)[1] == -1.0


def test_top_k_and_lookup_and_merged_records(paper_service):
    service, engine = paper_service
    ranked = service.lookup("Harry Potter")
    assert [a for a, _ in ranked[:3]] == sorted(
        [a for a, _ in ranked[:3]],
        key=lambda a: -service.truth_of("Harry Potter", a),
    )
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)

    top_entity = service.top_k(2, entity="Harry Potter")
    assert all(e == "Harry Potter" for e, _, _ in top_entity)
    assert len(top_entity) == 2

    top_global = service.top_k(3)
    assert len(top_global) == 3
    assert [s for _, _, s in top_global] == sorted(
        (s for _, _, s in top_global), reverse=True
    )
    assert service.top_k(0) == []
    assert service.top_k(0, entity="Harry Potter") == []
    assert service.top_k(-1, entity="Harry Potter") == []
    assert len(service.top_k(100)) == len(service)

    assert service.merged_records() == engine.merged_records()
    assert service.merged_records(threshold=0.0) == engine.merged_records(threshold=0.0)

    # The per-entity cache registers hits on repeat queries.
    service.lookup("Harry Potter")
    assert service.stats()["cache"]["hits"] >= 1


def test_entities_and_len(paper_service):
    service, engine = paper_service
    assert set(service.entities()) == {"Harry Potter", "Pirates 4"}
    assert len(service) == len(engine.fact_scores)


def test_service_requires_artifact(tmp_path):
    with pytest.raises(ArtifactError):
        TruthService(object())  # type: ignore[arg-type]
    with pytest.raises(ArtifactError):
        TruthService(tmp_path / "does-not-exist")


# ---------------------------------------------------------------------------
# refresh(): atomic snapshot swap
# ---------------------------------------------------------------------------
def test_refresh_swaps_snapshots_under_interleaved_queries(tmp_path):
    streamed = [
        ("Pirates 5", "Johnny Depp", "IMDB"),
        ("Pirates 5", "Johnny Depp", "Netflix"),
    ]
    engine = TruthEngine(method="ltm", iterations=10, seed=5, retrain_every=0).fit(
        "paper_example"
    )
    first = engine.save(tmp_path / "v1")
    service = TruthService(first)
    assert ("Pirates 5", "Johnny Depp") not in service

    before = service.truth_of("Harry Potter", "Daniel Radcliffe")
    engine.partial_fit(streamed)
    second = engine.save(tmp_path / "v2")

    # Interleaved queries: still the old snapshot until refresh returns.
    assert ("Pirates 5", "Johnny Depp") not in service
    service.refresh(second)
    assert service.truth_of("Pirates 5", "Johnny Depp") > 0.5
    assert service.truth_of("Harry Potter", "Daniel Radcliffe") == pytest.approx(before)
    assert len(service) == len(engine.fact_scores)


def test_refresh_is_atomic_under_concurrent_readers(tmp_path):
    """Readers racing refresh() must always see one complete snapshot."""
    base = TruthEngine(method="voting").fit("paper_example")
    v1 = base.to_artifact(name="v1")
    shifted = TruthArtifact(
        config=v1.config,
        fact_entity=v1.fact_entity,
        fact_attribute=v1.fact_attribute,
        fact_score=np.clip(v1.fact_score * 0.5, 0.0, 1.0),
        quality=v1.quality,
        name="v2",
    )
    service = TruthService(v1)
    valid = {
        name: art.fact_scores() for name, art in (("v1", v1), ("v2", shifted))
    }
    errors: list[Exception] = []
    stop = threading.Event()

    def reader() -> None:
        pairs = list(valid["v1"])
        try:
            while not stop.is_set():
                scores = service.batch(pairs)
                observed = dict(zip(pairs, scores.tolist()))
                if not any(
                    all(observed[p] == pytest.approx(snap[p]) for p in pairs)
                    for snap in valid.values()
                ):
                    raise AssertionError(f"torn snapshot observed: {observed}")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    for _ in range(200):
        service.refresh(shifted)
        service.refresh(v1)
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not errors, errors[0]


# ---------------------------------------------------------------------------
# Streaming artifact emission
# ---------------------------------------------------------------------------
def test_partial_fit_publishes_step_artifacts(tmp_path):
    export_dir = tmp_path / "steps"
    engine = TruthEngine(
        EngineConfig(
            method="ltm",
            params={"iterations": 10, "seed": 2},
            retrain_every=0,
            export_dir=str(export_dir),
            export_every=2,
        )
    )
    engine.fit("paper_example")
    engine.partial_fit([("Pirates 5", "Johnny Depp", "IMDB")])
    assert not export_dir.exists()  # step 1: below the export cadence
    engine.partial_fit([("Pirates 6", "Johnny Depp", "IMDB")])
    published = sorted(p.name for p in export_dir.iterdir())
    assert published == ["step_00002"]

    artifact = load_artifact(export_dir / "step_00002")
    assert artifact.extras["step"] == 2
    assert artifact.fact_scores() == engine.fact_scores
    # The published snapshot is immediately servable.
    assert TruthService(export_dir / "step_00002").truth_of("Pirates 6", "Johnny Depp") > 0


def test_step_numbering_survives_save_load(tmp_path):
    """A reloaded engine keeps numbering steps forward, never overwriting."""
    export_dir = tmp_path / "steps"
    config = EngineConfig(
        method="ltm",
        params={"iterations": 10, "seed": 2},
        retrain_every=0,
        export_dir=str(export_dir),
    )
    engine = TruthEngine(config).fit("paper_example")
    engine.partial_fit([("Pirates 5", "Johnny Depp", "IMDB")])
    engine.partial_fit([("Pirates 6", "Johnny Depp", "IMDB")])
    assert sorted(p.name for p in export_dir.iterdir()) == ["step_00001", "step_00002"]
    first_manifest = (export_dir / "step_00001" / "manifest.json").read_bytes()

    restored = TruthEngine.load(export_dir / "step_00002")
    restored.partial_fit([("Pirates 7", "Johnny Depp", "IMDB")])
    assert sorted(p.name for p in export_dir.iterdir()) == [
        "step_00001",
        "step_00002",
        "step_00003",
    ]
    # The pre-restart artifacts are untouched.
    assert (export_dir / "step_00001" / "manifest.json").read_bytes() == first_manifest
    assert load_artifact(export_dir / "step_00003").extras["step"] == 3


def test_load_detects_mid_overwrite_tear(tmp_path):
    """Old manifest + new arrays (the reverse tear) fails pointedly."""
    engine = TruthEngine(method="voting").fit("paper_example")
    path = engine.save(tmp_path / "artifact")
    bigger = TruthEngine(method="voting").fit(_source_for("books_small"))
    (path / "arrays.npz").write_bytes(bigger.to_artifact().payload()["arrays.npz"])
    with pytest.raises(ArtifactError, match="mid-overwrite"):
        TruthArtifact.load(path)


def test_cli_export_positional_source_is_file_first(tmp_path, capsys, monkeypatch):
    """A local file named like a catalog key means the file, as in integrate."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "movies").write_text(
        "entity\tattribute\tsource\nOnly Movie\tOnly Director\tonly-source\n",
        encoding="utf-8",
    )
    assert cli.main(["export", "movies", "art", "--method", "voting"]) == 0
    assert "1 facts" in capsys.readouterr().out
    assert cli.main(["query", "art", "Only Movie"]) == 0
    assert "Only Director" in capsys.readouterr().out


def test_streaming_export_dir_publishes_steps(tmp_path):
    engine = TruthEngine(
        EngineConfig(
            method="ltm",
            params={"iterations": 10, "seed": 1},
            retrain_every=0,
            export_dir=str(tmp_path / "steps"),
        )
    )
    engine.ingest(_source_for("paper_example").iter_triples())
    engine.fit()
    stream = as_source(
        [("Pirates 5", "Johnny Depp", "IMDB"), ("Pirates 5", "Someone", "BadSource.com")]
    )
    for batch in stream.iter_batches(1, by_entity=True):
        engine.partial_fit(batch)
    published = sorted(p.name for p in (tmp_path / "steps").iterdir())
    assert published == ["step_00001"]


def test_engine_config_validates_export_fields():
    with pytest.raises(ConfigurationError):
        EngineConfig(export_every=0)
    config = EngineConfig.from_dict(
        {"method": "voting", "export_dir": "/tmp/x", "export_every": 3}
    )
    assert config.export_dir == "/tmp/x"
    assert EngineConfig.from_dict(config.to_dict()) == config


# ---------------------------------------------------------------------------
# serve(): anything servable
# ---------------------------------------------------------------------------
def test_serve_from_catalog_key_engine_artifact_and_path(tmp_path):
    from_key = serve("paper_example", method="voting")
    assert from_key.truth_of("Harry Potter", "Johnny Depp") == pytest.approx(1 / 3)

    engine = TruthEngine(method="voting").fit("paper_example")
    from_engine = serve(engine)
    assert len(from_engine) == len(from_key)

    artifact = engine.to_artifact()
    assert len(serve(artifact)) == len(from_key)

    path = artifact.save(tmp_path / "artifact")
    assert len(serve(path)) == len(from_key)
    assert len(serve(str(path))) == len(from_key)


def test_serve_catalog_keys_cover_the_whole_catalog():
    for key in default_catalog().names():
        assert key in CATALOG_OVERRIDES, f"catalog dataset {key!r} missing from tests"


# ---------------------------------------------------------------------------
# CLI: export and query
# ---------------------------------------------------------------------------
def test_cli_export_then_query(tmp_path, capsys):
    artifact = tmp_path / "artifact"
    code = cli.main(
        ["export", "paper_example", str(artifact), "--method", "ltm",
         "--iterations", "10", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote artifact" in out and "5 facts" in out

    assert cli.main(["query", str(artifact), "Harry Potter"]) == 0
    out = capsys.readouterr().out
    assert "Daniel Radcliffe" in out and "accepted" in out

    assert cli.main(
        ["query", str(artifact), "Harry Potter", "--attribute", "Daniel Radcliffe"]
    ) == 0
    assert "Daniel Radcliffe" in capsys.readouterr().out

    assert cli.main(["query", str(artifact), "--top", "2"]) == 0
    lines = [
        line for line in capsys.readouterr().out.splitlines() if line.count("\t") == 2
    ]
    assert len(lines) == 2


def test_cli_query_errors(tmp_path, capsys):
    assert cli.main(["query", str(tmp_path / "nope"), "x"]) == 2
    assert "error" in capsys.readouterr().err

    artifact = tmp_path / "artifact"
    assert cli.main(["export", "paper_example", str(artifact), "--method", "voting"]) == 0
    capsys.readouterr()
    assert cli.main(["query", str(artifact), "Unknown Entity"]) == 1
    assert "no stored facts" in capsys.readouterr().err
    assert cli.main(["query", str(artifact), "--attribute", "x"]) == 2
    assert "requires an entity" in capsys.readouterr().err


def test_cli_export_rejects_bad_method(tmp_path, capsys):
    assert cli.main(["export", "paper_example", str(tmp_path / "a"), "--method", "nope"]) == 2
    assert "unknown method" in capsys.readouterr().err
    assert cli.main(
        ["export", "paper_example", str(tmp_path / "a"), "--method", "gaussian_ltm"]
    ) == 2
    assert "error" in capsys.readouterr().err
