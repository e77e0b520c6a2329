"""``batch_fit``: serial LTM fits on two corpus shapes plus one sharded fit.

The Gibbs kernel does almost all of the work here, and kernel strategies
have been seen to win on different shapes, so a kernel change must show on
both the movie shape (many small entities, 20 sources) and the book shape
(the paper's 1,263 books and 879 sellers).  The 2-shard ``processes`` fit
adds the shard planner, the process pool hand-off and the count merge.

End-to-end metrics, medians of in-run repetitions: ``time1_ms`` the serial
movie fit, ``time2_ms`` the serial book fit, ``time3_ms`` the sharded movie
fit; ``accuracy`` pools the two serial fits.
"""

from __future__ import annotations

import gc
import time

from corpus import BOOKS, MOVIES, Corpus, generate
from harness import Run, median, peak_rss_mib, setup_repeated, timed

ITERATIONS = 100  # the paper schedule: burn-in 20, thinning 5
NUM_SHARDS = 2

# Decision-accuracy floors at ``corpus.THRESHOLD``.  Seeded runs land well above
# them; a change that falls below is fast but wrong.
ACCURACY_FLOOR = {"movies": 0.75, "books": 0.95}
# Share of facts on which the sharded and the serial fit decide alike.
AGREEMENT_FLOOR = 0.90


def _config(seed: int, sharded: bool):
    from repro.engine import EngineConfig

    execution = {"num_shards": NUM_SHARDS, "backend": "processes"} if sharded else {}
    return EngineConfig(
        method="ltm",
        params={"iterations": ITERATIONS, "seed": seed},
        execution=execution,
    )


def _fit(corpus: Corpus, seed: int, sharded: bool = False):
    from repro.engine import TruthEngine

    engine = TruthEngine(_config(seed, sharded))
    engine.fit(corpus.triples)
    return engine


def _agreement(a: dict, b: dict) -> float:
    same = sum(1 for pair, score in a.items() if (score >= 0.5) == (b[pair] >= 0.5))
    return same / len(a)


def _check_fit(run: Run, kind: str, corpus: Corpus, engine, serial: dict | None) -> None:
    scores = engine.fact_scores
    ok = len(scores) == len(corpus.truth)
    if ok and kind == "sharded":
        ok = _agreement(serial, scores) >= AGREEMENT_FLOOR
    elif ok:
        ok = corpus.accuracy(scores) >= ACCURACY_FLOOR[kind]
    run.op(kind, ok)


def _setup(run: Run) -> tuple[Corpus, Corpus]:
    corpora = setup_repeated(
        run, lambda _: (generate(MOVIES, run.seed), generate(BOOKS, run.seed))
    )
    movies, books = corpora
    # Warm-up on a slice: lazy imports, the process pool path and the
    # allocator are exercised once before anything is timed.
    warm = Corpus("warm", movies.triples[: len(movies.triples) // 10], {}, [])
    _fit(warm, run.seed)
    _fit(warm, run.seed, sharded=True)
    run.begin()
    return movies, books


def measure(run: Run) -> None:
    movies, books = _setup(run)
    times: dict[str, list[float]] = {"movies": [], "books": [], "sharded": []}
    accuracy: dict[str, float] = {}
    round_s = 0.0
    while run.another_round(len(times["movies"]), round_s):
        started = time.perf_counter()
        serial_scores: dict = {}
        # The sharded fit is checked against the serial movie fit before it.
        # The books fit is the shortest and its time the most spread, so each
        # round takes two, apart.
        order = (("movies", movies), ("books", books), ("sharded", movies), ("books", books))
        for kind, corpus in order:
            sharded = kind == "sharded"
            elapsed, engine = timed(lambda: _fit(corpus, run.seed, sharded))
            times[kind].append(elapsed)
            if not sharded:
                accuracy[kind] = corpus.accuracy(engine.fact_scores)
            _check_fit(run, kind, corpus, engine, serial_scores.get("movies"))
            serial_scores[kind] = engine.fact_scores
        round_s = time.perf_counter() - started

    run.repeated("time1_ms", [1e3 * t for t in times["movies"]], "ms")
    run.repeated("time2_ms", [1e3 * t for t in times["books"]], "ms")
    run.repeated("time3_ms", [1e3 * t for t in times["sharded"]], "ms")
    # One figure for both shapes: the share of facts decided right.
    facts = len(movies.truth) + len(books.truth)
    run.metric(
        "accuracy",
        (accuracy["movies"] * len(movies.truth) + accuracy["books"] * len(books.truth)) / facts,
        "ratio",
    )
    run.metric("peak_rss_mib", peak_rss_mib(), "MiB")


def layer_targets() -> list[tuple[object, str, str]]:
    """The public calls a fit makes into each layer, with their span names."""
    import repro.core.model as model
    import repro.engine.facade as facade
    from repro.core.gibbs import CollapsedGibbsSampler
    from repro.core.priors import LTMPriors
    from repro.parallel import ParallelExecutor, ShardPlanner

    return [
        (facade, "build_claim_matrix", "data.claim_build"),
        (LTMPriors, "adaptive", "core.priors"),
        (CollapsedGibbsSampler, "run", "core.gibbs"),
        (model, "estimate_source_quality", "core.quality"),
        (model, "expected_confusion_counts", "core.quality"),
        (ShardPlanner, "plan", "parallel.plan"),
        (ParallelExecutor, "fit", "parallel.executor_fit"),
    ]


SERIAL_PARTS = ("data.claim_build", "core.priors", "core.gibbs", "core.quality")


def _traced_serial(run: Run, kind: str, corpus: Corpus) -> tuple[dict[str, float], dict]:
    """One engine fit, its layer calls recorded as child spans as they run.

    Returns the layer times and the fit's fact scores.
    """
    spans = run.spans
    gc.collect()
    with spans.around(layer_targets()), spans.span("engine.fit", corpus=corpus.name) as whole:
        engine = _fit(corpus, run.seed)
    # The same fit untraced, for the tracing overhead.
    untraced, _ = timed(lambda: _fit(corpus, run.seed))
    claims = engine.claims()
    row = {name: spans.total(name, whole["id"]) for name in SERIAL_PARTS}
    row.update(
        whole=spans.seconds(whole),
        untraced=untraced,
        flips=sum(engine.last_trace.flips_per_iteration),
        claims=claims.num_claims,
        facts=claims.num_facts,
        claim_sweeps=claims.num_claims * ITERATIONS,
    )
    _check_fit(run, kind, corpus, engine, None)
    return row, engine.fact_scores


def _traced_sharded(run: Run, corpus: Corpus, serial: dict) -> dict[str, float]:
    spans = run.spans
    gc.collect()
    with spans.around(layer_targets(), keep=("parallel.executor_fit",)) as results:
        with spans.span("engine.fit_sharded") as whole:
            engine = _fit(corpus, run.seed, sharded=True)
    _check_fit(run, "sharded", corpus, engine, serial)
    (merged,) = results["parallel.executor_fit"]
    shard_s = [shard.runtime_seconds for shard in merged.shards]
    return {
        "plan": spans.total("parallel.plan", whole["id"]),
        "shard_max": max(shard_s),
        "shard_sum": sum(shard_s),
        "imbalance": max(shard_s) / (sum(shard_s) / len(shard_s)),
        "dispatch": spans.total("parallel.executor_fit", whole["id"]) - max(shard_s),
    }


def trace(run: Run) -> None:
    movies, books = _setup(run)
    rounds: list[dict[str, float]] = []
    round_s = 0.0
    while run.another_round(len(rounds), round_s):
        started = time.perf_counter()
        (movie_row, movie_scores), (book_row, _) = (
            _traced_serial(run, "movies", movies),
            _traced_serial(run, "books", books),
        )
        sharded = _traced_sharded(run, movies, movie_scores)
        row = {key: movie_row[key] + book_row[key] for key in movie_row}
        row.update({f"sharded.{k}": v for k, v in sharded.items()})
        rounds.append(row)
        round_s = time.perf_counter() - started

    def med(key: str) -> float:
        return median([r[key] for r in rounds])

    for name in SERIAL_PARTS:
        run.metric(f"{name}_s", med(name), "s")
    run.metric("engine.fit_overhead_s", med("whole") - sum(med(p) for p in SERIAL_PARTS), "s")
    sweeps = rounds[0]["claim_sweeps"]
    run.metric("core.gibbs_ns_per_claim_sweep", med("core.gibbs") * 1e9 / sweeps, "ns")
    run.metric("core.gibbs_flips", rounds[0]["flips"], "count")
    run.metric("data.claims", rounds[0]["claims"], "count")
    run.metric("data.facts", rounds[0]["facts"], "count")
    run.metric("parallel.plan_s", med("sharded.plan"), "s")
    run.metric("parallel.shard_fit_max_s", med("sharded.shard_max"), "s")
    run.metric("parallel.shard_fit_sum_s", med("sharded.shard_sum"), "s")
    run.metric("parallel.shard_imbalance", med("sharded.imbalance"), "ratio")
    run.metric("parallel.dispatch_s", med("sharded.dispatch"), "s")
    run.layer_sum("batch_fit", sum(med(p) for p in SERIAL_PARTS), med("whole"), med("untraced"))
