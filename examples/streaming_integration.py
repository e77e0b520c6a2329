"""Streaming integration with LTMinc (paper Section 5.4), via `repro.io`.

A historical corpus is integrated once with the full Latent Truth Model; the
learned source quality then scores newly arriving batches with the closed-form
posterior of Equation (3) — no re-sampling — and the model is periodically
re-fitted on the accumulated data.

The data side is the unified :mod:`repro.io` API: the crawl comes from the
dataset catalog (``as_source("books", ...)``), ``split_prefix`` cuts it into
a history and a stream by entity, and the stream is chunked into whole-entity
batches with ``DataSource.iter_batches(n, by_entity=True)`` feeding
``TruthEngine.partial_fit`` batch by batch — the full claim table is never
materialised.

Run with::

    python examples/streaming_integration.py
"""

import numpy as np

from repro import EngineConfig, TruthEngine, as_source
from repro.evaluation import evaluate_scores
from repro.io import MemorySource, split_prefix


def main() -> None:
    print("Simulating a book crawl through the dataset catalog ...")
    source = as_source("books", seed=23, num_books=240, num_sellers=90, labelled_books=100)
    dataset = source.to_dataset()

    triples = list(source.iter_triples())
    historical, future = split_prefix(triples, fraction=0.4, seed=1)
    print(f"history: {len(historical)} triples, stream: {len(future)} triples")

    engine = TruthEngine(EngineConfig(
        method="ltm",
        params={"iterations": 80, "seed": 11},
        retrain_every=4,
    ))

    print("\nBootstrapping source quality on the historical corpus ...")
    engine.fit(historical)
    quality = engine.quality_report()
    print("bootstrap quality for 5 sellers:",
          {name: round(float(quality.sensitivity[i]), 2) for i, name in enumerate(quality.source_names[:5])})

    print("\nIntegrating the stream batch by batch (25 entities per batch) ...")
    stream = MemorySource(future, name="book-stream")
    for batch in stream.iter_batches(25, by_entity=True, shuffle=True, seed=2):
        report = engine.partial_fit(batch).last_report
        accepted = len(report.accepted_facts())
        flag = " (re-trained)" if report.retrained else ""
        print(f"  batch {report.batch_index:2d}: {report.num_triples:4d} triples, "
              f"{report.num_facts:3d} facts, {accepted:3d} accepted{flag}")

    # Grade the final state against the simulator's ground truth.
    matrix = dataset.claims
    scores = engine.fact_scores
    labelled = [
        (scores.get((matrix.fact(f).entity, str(matrix.fact(f).attribute)), 0.0), truth)
        for f, truth in dataset.labels.items()
    ]
    metrics = evaluate_scores(
        np.array([s for s, _ in labelled]), np.array([t for _, t in labelled])
    )
    print(
        f"\nFinal streaming accuracy on the labelled books: {metrics.accuracy:.3f} "
        f"(precision={metrics.precision:.3f}, recall={metrics.recall:.3f})"
    )


if __name__ == "__main__":
    main()
