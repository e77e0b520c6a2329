"""Train → export → serve → refresh: the full serving lifecycle.

This is the deployment the paper recommends in Section 5.4 ("standard LTM be
infrequently run offline to update source quality and LTMinc be deployed for
online prediction"), expressed with :mod:`repro.serving`:

1. **Train** the Latent Truth Model on a simulated movie crawl from the
   dataset catalog.
2. **Export** the fitted engine as a versioned
   :class:`~repro.serving.TruthArtifact` directory (config + seed + learned
   quality + fact posteriors).
3. **Serve** point / batch / top-k truth queries from a
   :class:`~repro.serving.TruthService` — O(1) lookups, no inference — and
   score never-seen claims with the closed-form LTMinc posterior.
4. **Refresh**: keep answering queries while ``partial_fit`` integrates new
   batches and publishes step artifacts, then atomically swap the service
   onto the newest snapshot.

Run with::

    python examples/serve_lookup.py
"""

import tempfile
from pathlib import Path

from repro import EngineConfig, TruthEngine, as_source
from repro.io import split_prefix
from repro.serving import TruthArtifact, TruthService


def main() -> None:
    workspace = Path(tempfile.mkdtemp(prefix="repro-serving-"))

    print("1) Training LTM on the simulated movie feed ...")
    source = as_source("movies", seed=5, num_movies=300, labelled_movies=50)
    triples = list(source.iter_triples())
    historical, future = split_prefix(triples, fraction=0.7, seed=1)
    engine = TruthEngine(EngineConfig(
        method="ltm",
        params={"iterations": 80, "seed": 11},
        retrain_every=3,
        export_dir=str(workspace / "steps"),   # partial_fit publishes here
    ))
    engine.fit(historical)

    print("\n2) Exporting the fitted engine ...")
    artifact_path = engine.save(workspace / "movies-v1")
    artifact = TruthArtifact.load(artifact_path)
    print(f"   wrote {artifact_path}")
    print(f"   {artifact.summary()}")

    print("\n3) Serving queries from the artifact ...")
    service = TruthService(artifact_path)
    entity = service.entities()[0]
    print(f"   top facts for {entity!r}:")
    for _, attribute, score in service.top_k(3, entity=entity):
        print(f"     {attribute:30s} {score:.3f}")
    print("   global top-3:", [(e, a, round(s, 3)) for e, a, s in service.top_k(3)])
    unseen = [
        (entity, "A Brand New Claim", "brand-new-source"),
        (entity, "A Brand New Claim", "another-new-source"),
    ]
    print("   cold-start score of a claim from two unseen sources "
          "(prior-mean quality):", round(float(service.score(unseen)[0]), 3))

    print("\n4) Integrating new batches while the service keeps serving ...")
    stream = as_source(future)
    for batch in stream.iter_batches(40, by_entity=True):
        engine.partial_fit(batch)
        # Queries against the *old* snapshot keep working mid-retrain.
        service.truth_of(entity, service.lookup(entity)[0][0])
    steps = sorted((workspace / "steps").iterdir())
    print(f"   {len(steps)} step artifacts published, newest: {steps[-1].name}")

    print("\n5) Refreshing the service onto the newest snapshot ...")
    before = len(service)
    service.refresh(steps[-1])
    print(f"   facts served: {before} -> {len(service)}")
    print(f"   stats: {service.stats()}")


if __name__ == "__main__":
    main()
