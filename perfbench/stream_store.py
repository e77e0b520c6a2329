"""``stream_store``: append a low-conflict stream to a fresh ``ClaimStore``,
then fit it out of core.

After a small bootstrap LTM fit, the store is streamed through
``StoreSource.iter_batches`` into ``TruthEngine.partial_fit`` (closed-form
LTMinc, ``retain_history=False``).  Store reads and claim build do the work
and Gibbs does almost none.  Appends (writes) and the stream (reads) hit the
same store, so a change that moves cost between reads, writes and disk shows
on one of the three timings.

End-to-end metrics, medians of in-run repetitions: ``time1_ms`` the append,
``time2_ms`` the bootstrap fit plus the stream, ``time3_ms`` a scan of the
store through ``iter_batches`` with no fit (the read path alone).
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

from corpus import STREAM, Corpus, generate
from harness import Run, median, peak_rss_mib, setup_repeated, timed

# Batch, bootstrap and bootstrap-fit sizes of the repository's out-of-core
# ingest benchmark (E10b in benchmarks/test_ingest_throughput.py).
BATCH_ENTITIES = 10_000
BOOTSTRAP_ENTITIES = 1_000
BOOTSTRAP_ITERATIONS = 10
ACCURACY_FLOOR = 0.97


def _engine(seed: int):
    from repro.engine import EngineConfig, TruthEngine

    return TruthEngine(
        EngineConfig(
            method="ltm",
            params={"iterations": BOOTSTRAP_ITERATIONS, "seed": seed},
            retrain_every=0,
            retain_history=False,
        )
    )


def _store_files(path: Path) -> list[Path]:
    """The store file and its WAL and shared-memory companions."""
    return list(path.parent.glob(path.name + "*"))


def _store_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in _store_files(path))


def _append(path: Path, corpus: Corpus) -> int:
    from repro.store import ClaimStore

    with ClaimStore(path) as store:
        return store.append(corpus.triples)


def _stream(path: Path, corpus: Corpus, seed: int):
    """Bootstrap fit on the first entities, then stream every batch."""
    from repro.io import StoreSource

    engine = _engine(seed)
    with StoreSource(path) as source:
        engine.fit(source.entity_triples(corpus.entities[:BOOTSTRAP_ENTITIES]))
        for batch in source.iter_batches(BATCH_ENTITIES, by_entity=True):
            engine.partial_fit(batch)
    return engine


def _scan(path: Path) -> int:
    """Read every batch back out of the store, with no fit; returns the triples read."""
    from repro.io import StoreSource

    with StoreSource(path) as source:
        return sum(len(batch) for batch in source.iter_batches(BATCH_ENTITIES, by_entity=True))


def _check(run: Run, corpus: Corpus, appended: int, engine) -> float:
    accuracy = corpus.accuracy(engine.fact_scores)
    run.op("append", appended == len(corpus.triples))
    run.op(
        "stream",
        len(engine.fact_scores) == len(corpus.truth) and accuracy >= ACCURACY_FLOOR,
    )
    return accuracy


def _setup(run: Run) -> Corpus:
    from repro.store import ClaimStore

    def setup(i: int) -> Corpus:
        corpus = generate(STREAM, run.seed)
        ClaimStore(run.work_dir / f"setup-{i}.db").close()
        return corpus

    corpus = setup_repeated(run, setup)
    warm = Corpus("warm", corpus.triples[:20_000], {}, corpus.entities[:3_000])
    path = run.work_dir / "warm.db"
    _append(path, warm)
    _stream(path, warm, run.seed)
    _scan(path)
    run.begin()
    return corpus


def measure(run: Run) -> None:
    corpus = _setup(run)
    n = len(corpus.triples)
    times: dict[str, list[float]] = {"append": [], "stream": [], "scan": []}
    accuracy = 0.0
    rep_s = 0.0
    while run.another_round(len(times["append"]), rep_s):
        started = time.perf_counter()
        path = run.work_dir / f"claims-{len(times['append'])}.db"
        elapsed, appended = timed(lambda: _append(path, corpus))
        times["append"].append(elapsed)
        elapsed, engine = timed(lambda: _stream(path, corpus, run.seed))
        times["stream"].append(elapsed)
        accuracy = _check(run, corpus, appended, engine)
        del engine
        elapsed, scanned = timed(lambda: _scan(path))
        times["scan"].append(elapsed)
        run.op("scan", scanned == n)
        for stale in _store_files(path):
            stale.unlink()
        rep_s = time.perf_counter() - started

    run.repeated("time1_ms", [1e3 * t for t in times["append"]], "ms")
    run.repeated("time2_ms", [1e3 * t for t in times["stream"]], "ms")
    run.repeated("time3_ms", [1e3 * t for t in times["scan"]], "ms")
    run.metric("accuracy", accuracy, "ratio")
    run.metric("peak_rss_mib", peak_rss_mib(), "MiB")


def _traced_stream(run: Run, path: Path, corpus: Corpus) -> tuple[dict[str, float], object]:
    """The streaming fit as the whole; store reads, fits and the layer calls
    inside ``partial_fit`` (claim build, LTMinc scoring) as its children."""
    import repro.engine.facade as facade
    from repro.core.incremental import IncrementalLTM
    from repro.io import StoreSource

    spans = run.spans
    engine = _engine(run.seed)
    targets = [
        (facade, "build_claim_matrix", "data.claim_build"),
        (IncrementalLTM, "fit", "core.incremental"),
    ]
    gc.collect()
    with spans.around(targets), spans.span("stream") as whole:
        with StoreSource(path) as source:
            with spans.span("io.bootstrap_read"):
                bootstrap = source.entity_triples(corpus.entities[:BOOTSTRAP_ENTITIES])
            with spans.span("engine.bootstrap_fit"):
                engine.fit(bootstrap)
            batch_iter = iter(source.iter_batches(BATCH_ENTITIES, by_entity=True))
            batches = 0
            while True:
                with spans.span("io.batch_read"):
                    batch = next(batch_iter, None)
                if batch is None:
                    break
                with spans.span("engine.partial_fit"):
                    engine.partial_fit(batch)
                batches += 1
    children = ("io.bootstrap_read", "engine.bootstrap_fit", "io.batch_read", "engine.partial_fit")
    row = {name: spans.total(name, whole["id"]) for name in children}
    for name in ("data.claim_build", "core.incremental"):
        row[name] = spans.total_under(name, "engine.partial_fit", whole["id"])
    row["whole"] = spans.seconds(whole)
    row["batches"] = batches
    return row, engine


def trace(run: Run) -> None:
    corpus = _setup(run)
    rounds: list[dict[str, float]] = []
    rep_s = 0.0
    while run.another_round(len(rounds), rep_s):
        started = time.perf_counter()
        path = run.work_dir / f"claims-{len(rounds)}.db"
        gc.collect()
        with run.spans.span("store.append") as span:
            appended = _append(path, corpus)
        row, engine = _traced_stream(run, path, corpus)
        _check(run, corpus, appended, engine)
        row["store.append"] = run.spans.seconds(span)
        row["store.file_bytes"] = _store_bytes(path)
        # The same stream untraced, for the tracing overhead.
        row["untraced"], _ = timed(lambda: _stream(path, corpus, run.seed))
        rounds.append(row)
        for stale in _store_files(path):
            stale.unlink()
        rep_s = time.perf_counter() - started

    def med(key: str) -> float:
        return median([r[key] for r in rounds])

    # The stream's layer calls: store reads and engine calls.  Each
    # ``partial_fit`` splits further into claim build, LTMinc scoring and the
    # engine's own bookkeeping, reported below.
    parts = ("io.bootstrap_read", "engine.bootstrap_fit", "io.batch_read", "engine.partial_fit")
    for name in ("store.append", "io.bootstrap_read", "engine.bootstrap_fit", "io.batch_read"):
        run.metric(f"{name}_s", med(name), "s")
    # ``data.claim_build_s`` is the batch fit's; this is the stream's.
    run.metric("data.stream_claim_build_s", med("data.claim_build"), "s")
    run.metric("core.incremental_s", med("core.incremental"), "s")
    run.metric(
        "engine.partial_fit_overhead_s",
        med("engine.partial_fit") - med("data.claim_build") - med("core.incremental"),
        "s",
    )
    run.metric("store.entities_per_batch", len(corpus.entities) / med("batches"), "count")
    run.metric("store.file_bytes", med("store.file_bytes"), "B")
    run.metric("store.bytes_per_triple", med("store.file_bytes") / len(corpus.triples), "B")
    run.layer_sum("stream_store", sum(med(name) for name in parts), med("whole"), med("untraced"))
