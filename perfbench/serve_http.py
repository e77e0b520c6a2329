"""``serve_http``: the bundled ``APIServer`` in a child process, driven over
two keep-alive connections in a closed loop.

Callers wait for each reply before sending the next request (a closed loop;
an open loop was rejected because generator lateness alone moved p99).  The
run has two phases over the same server:

* read phase: both connections cycle through point, list, batch (32 pairs)
  and top-k reads in equal shares, the rotation of the repository's API
  latency benchmark (benchmarks/test_api_latency.py).  Read latency comes
  only from this phase.  It runs first, so every read sees the served state
  of the artifact: each ingest grows that state, and a global top-k costs
  time in proportion to it;
* write phase: one connection POSTs a fixed sequence of ``/ingest``
  batches while the other keeps reading.  Each ingest re-runs
  ``partial_fit`` and republishes every served fact, so it stresses
  ``engine`` and ``serving`` where reads stress ``api``.

End-to-end metrics: ``time1_ms`` the p50 of single-entity reads (point and
list), ``time2_ms`` the p50 of batch reads, each the median over the
read-phase slices; ``time3_ms`` the ``/ingest`` p50;
``accuracy`` is that of the served decisions before any ingest.
"""

from __future__ import annotations

import gc
import json
import resource
import selectors
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from batch_fit import ACCURACY_FLOOR
from corpus import MOVIES, Corpus, generate
from harness import BENCH_DIR, Run, median, peak_rss_mib, percentile, setup_repeated

ARTIFACT_ITERATIONS = 20
READ_SHARE = 0.75  # of the measured window; the write phase takes the rest
SLICES = 8  # of the read phase; each read metric is the median over the slices
KINDS = ("point", "list", "batch", "top_k")  # read i is of kind KINDS[i % 4]
# Read latency is reported as the p50 of two classes of read: single-entity
# reads, where ``api`` handling is nearly all the cost, and 32-pair batch
# reads, where ``serving`` does real work.  The p50 of the global top-k reads
# and the read p99 are printed with the samples but not reported.  Scores
# take few distinct values (about 6,000 facts tie at the top), and the
# direct ``TruthService.top_k`` call took 100-470 us depending on the seed,
# so a top-k p50 would measure the seed.  On the 2-vCPU VM the benchmark was
# sized on, host regimes that lasted seconds moved the read p99 by 40-90%
# (IQR over median) between runs, and the p90 by 46-90%, so no bound of 0.25
# could hold on them.
READ_CLASS = {"point": "entity", "list": "entity", "batch": "batch", "top_k": "top_k"}
BATCH_PAIRS = 32
TOP_K = 10
NUM_REQUESTS = 4096  # the seeded request sequence, cycled
SAMPLE_EVERY = 37  # every n-th response body is compared with a direct answer
INGESTS = 8
# Each ingest carries whole new movies, as many as fit in the API's default
# per-request row cap (``max_items`` of ``TruthAPI``).
INGEST_TRIPLES = 10_000
SEQUENTIAL_REQUESTS = 1500  # per pass of the traced run's one-connection passes
BLOCK = 25  # requests per path before the traced run switches path
SOCKET_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Request:
    kind: str
    raw: bytes  # the full HTTP/1.1 request
    method: str
    target: str
    body: bytes
    args: tuple


def _http(method: str, target: str, body: bytes = b"", extra: str = "") -> bytes:
    """An HTTP/1.1 request; ``extra`` holds more header lines, each ending in CRLF."""
    head = f"{method} {target} HTTP/1.1\r\nhost: 127.0.0.1\r\n{extra}"
    if method == "POST":
        head += f"content-type: application/json\r\ncontent-length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def _request(kind: str, method: str, target: str, body: bytes, args: tuple) -> Request:
    return Request(kind, _http(method, target, body), method, target, body, args)


def make_requests(corpus: Corpus, seed: int) -> list[Request]:
    """The seeded read sequence over facts the artifact serves."""
    rng = np.random.default_rng([seed, 7])
    by_entity: dict[str, list[str]] = {}
    for entity, attribute in corpus.truth:
        by_entity.setdefault(entity, []).append(attribute)
    entities = list(by_entity)
    requests = []
    for i in range(NUM_REQUESTS):
        kind = KINDS[i % len(KINDS)]
        entity = entities[int(rng.integers(len(entities)))]
        if kind == "point":
            attrs = by_entity[entity]
            attribute = attrs[int(rng.integers(len(attrs)))]
            target = f"/truth/{entity}?attribute={attribute}"
            requests.append(_request(kind, "GET", target, b"", (entity, attribute)))
        elif kind == "list":
            requests.append(_request(kind, "GET", f"/truth/{entity}", b"", (entity,)))
        elif kind == "batch":
            pairs = []
            for index in rng.integers(len(entities), size=BATCH_PAIRS).tolist():
                attrs = by_entity[entities[index]]
                pairs.append((entities[index], attrs[int(rng.integers(len(attrs)))]))
            body = json.dumps({"pairs": pairs}).encode()
            requests.append(_request(kind, "POST", "/batch", body, (tuple(pairs),)))
        else:
            requests.append(_request(kind, "GET", f"/top-k?k={TOP_K}", b"", (TOP_K,)))
    return requests


def make_ingests(seed: int) -> list[tuple[list[list[str]], bytes]]:
    """The seeded ``/ingest`` sequence: new movies from the same sources."""
    # Movies carry about 2.5 triples each, so this many fill every ingest.
    extra = generate(
        MOVIES, seed, num_entities=INGESTS * INGEST_TRIPLES // 2, entity_offset=MOVIES.num_entities
    )
    by_entity: dict[str, list[list[str]]] = {}
    for entity, attribute, source in extra.triples:
        by_entity.setdefault(entity, []).append([entity, attribute, source])
    batches: list[list[list[str]]] = [[]]
    for entity in sorted(by_entity):
        triples = by_entity[entity]
        if len(batches[-1]) + len(triples) > INGEST_TRIPLES:
            if len(batches) == INGESTS:
                break
            batches.append([])
        batches[-1] += triples
    ingests = []
    for triples in batches:
        body = json.dumps({"triples": triples}).encode()
        ingests.append((triples, _http("POST", "/ingest", body)))
    return ingests


class Connection:
    """One keep-alive HTTP/1.1 connection with a blocking socket."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def send(self, raw: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw)
        while (reply := self.reply()) is None:
            self.receive()
        return reply

    def reply(self) -> tuple[int, bytes] | None:
        """Take the next complete reply, ``(status, body)``, off the buffer."""
        buffer = self.buffer
        head_end = buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = buffer[:head_end].decode("latin-1")
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(buffer) < end:
            return None
        self.buffer = buffer[end:]
        return int(head[9:12]), buffer[head_end + 4 : end]

    def receive(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


class Server:
    """A ``serve_child.py`` process; reaped by :meth:`close`.

    A traced server also serves the replay app on ``replay_port`` and
    reports its app-call spans when it exits (see ``serve_child.py``).
    """

    def __init__(self, artifact: Path, traced: bool = False):
        command = [sys.executable, str(BENCH_DIR / "serve_child.py"), str(artifact)]
        self.proc = subprocess.Popen(
            command + (["--trace"] if traced else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"server child did not start: {line!r}")
        self.port, *replay = (int(word) for word in line.split()[1:])
        self.replay_port = replay[0] if traced else None
        self.spans: dict[str, list[int]] = {}

    def close(self) -> None:
        """Stop the child (closing its stdin asks it to exit), reap it and
        keep the spans it reports."""
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in out.decode().splitlines():
            if line.startswith("spans "):
                self.spans = json.loads(line[len("spans ") :])


@dataclass
class Setup:
    corpus: Corpus
    artifact: Path
    server: Server

    def close(self) -> None:
        self.server.close()


def _setup(run: Run) -> tuple[Setup, list[Request], list]:
    from repro.engine import EngineConfig, TruthEngine

    def setup(i: int) -> Setup:
        corpus = generate(MOVIES, run.seed)
        engine = TruthEngine(
            EngineConfig(method="ltm", params={"iterations": ARTIFACT_ITERATIONS, "seed": run.seed})
        )
        artifact = engine.fit(corpus.triples).save(run.work_dir / f"artifact-{i}")
        server = Server(artifact, traced=run.trace)
        conn = Connection(server.port)
        status, _ = conn.send(_http("GET", "/healthz"))
        conn.close()
        if status != 200:
            server.close()
            raise RuntimeError(f"server child answered /healthz with {status}")
        return Setup(corpus, artifact, server)

    state = setup_repeated(run, setup)
    requests = make_requests(state.corpus, run.seed)
    ingests = make_ingests(run.seed)
    # Warm-up: the first requests of the sequence reach every route.
    conn = Connection(state.server.port)
    for request in requests[:200]:
        conn.send(request.raw)
    conn.close()
    # This process is only the client here: keep collector passes over the
    # set-up objects out of the measured round trips.
    gc.collect()
    gc.freeze()
    return state, requests, ingests


class Expected:
    """Direct ``TruthService`` answers, encoded by the program's own codec."""

    def __init__(self, artifact: Path):
        from repro.serving import TruthService

        self.service = TruthService(artifact)
        self.threshold = self.service.artifact.config.threshold

    def answer(self, request: Request):
        """The serving-layer call behind ``request``."""
        service = self.service
        if request.kind == "point":
            return service.truth_of(*request.args)
        if request.kind == "list":
            return service.lookup(*request.args)
        if request.kind == "batch":
            return service.batch(*request.args)
        return service.top_k(*request.args)

    def encode(self, request: Request, answer) -> bytes:
        """The response body the API should send for ``answer``."""
        from repro.api.codec import encode_json, fact_row

        threshold = self.threshold
        if request.kind == "point":
            return encode_json(fact_row(*request.args, answer, threshold))
        if request.kind == "list":
            entity = request.args[0]
            facts = [fact_row(entity, a, s, threshold) for a, s in answer]
            return encode_json({"entity": entity, "facts": facts, "count": len(facts)})
        if request.kind == "batch":
            scores = [float(s) for s in answer]
            return encode_json({"scores": scores, "count": len(scores)})
        facts = [fact_row(e, a, s, threshold) for e, a, s in answer]
        return encode_json({"facts": facts, "count": len(facts)})

    def body(self, request: Request) -> bytes:
        return self.encode(request, self.answer(request))


class Reader(threading.Thread):
    """Closed-loop connections cycling through the request sequence.

    One thread drives every connection through a selector, so no two
    client threads contend for the interpreter lock between a reply and
    the next request.  Connection ``c`` of ``count`` starts at request
    ``c * len(requests) // count``.
    """

    def __init__(self, port: int, requests: list[Request], count: int, stop: threading.Event):
        super().__init__(daemon=True)
        self.port, self.requests, self.count, self.stop = port, requests, count, stop
        self.done: list[tuple[float, float, str]] = []  # (completed at, latency s, kind)
        self.samples: list[tuple[int, int, bytes]] = []  # (request index, status, body)
        self.attempted = self.failed = 0

    def run(self) -> None:
        requests, n = self.requests, len(self.requests)
        selector = selectors.DefaultSelector()
        conns: list[Connection] = []
        sent: dict[Connection, tuple[int, float]] = {}  # conn -> (position, sent at)

        def send_next(conn: Connection, i: int) -> None:
            self.attempted += 1
            sent[conn] = (i, time.perf_counter())
            conn.sock.sendall(requests[i % n].raw)

        try:
            for c in range(self.count):
                conns.append(Connection(self.port))
                selector.register(conns[-1].sock, selectors.EVENT_READ, conns[-1])
                send_next(conns[-1], c * n // self.count)
            busy = len(conns)
            while busy:
                events = selector.select(timeout=SOCKET_TIMEOUT_S)
                if not events:
                    raise TimeoutError("no reply within the socket timeout")
                for key, _ in events:
                    conn = key.data
                    conn.receive()
                    if (reply := conn.reply()) is None:
                        continue
                    end = time.perf_counter()
                    i, start = sent[conn]
                    status, body = reply
                    if status != 200:
                        self.failed += 1
                    self.done.append((end, end - start, requests[i % n].kind))
                    if i % SAMPLE_EVERY == 0:
                        self.samples.append((i % n, status, body))
                    if self.stop.is_set():
                        selector.unregister(conn.sock)
                        busy -= 1
                    else:
                        send_next(conn, i + 1)
        except (OSError, ValueError) as exc:
            self.failed += 1
            print(f"  reader error: {exc!r}", file=sys.stderr)
        finally:
            selector.close()
            for conn in conns:
                conn.close()


def _reader(port: int, requests: list[Request], count: int, stop: threading.Event) -> Reader:
    reader = Reader(port, requests, count, stop)
    reader.start()
    return reader


def _join(run: Run, phase: str, reader: Reader) -> None:
    reader.join(timeout=SOCKET_TIMEOUT_S + 5)
    hung = int(reader.is_alive())
    run.op(phase, True, reader.attempted - reader.failed)
    run.op(phase, False, reader.failed + hung)


def _check_samples(run: Run, phase: str, reader: Reader, requests, expected) -> None:
    samples = [s for s in reader.samples if s[1] == 200]
    mismatched = sum(1 for index, _, body in samples if body != expected.body(requests[index]))
    run.check(
        f"{phase}_bodies_equal_direct_answers",
        bool(samples) and mismatched == 0,
        f"{len(samples) - mismatched}/{len(samples)} sampled bodies equal",
    )


def read_phase(
    run: Run, port: int, requests, expected: Expected, seconds: float
) -> dict[str, list[float]]:
    """Both connections read for ``seconds``; each metric per time slice.

    Sampled bodies are compared with direct answers, so this runs before any
    ingest, while the served state is the artifact's.
    """
    stop = threading.Event()
    started = time.perf_counter()
    reader = _reader(port, requests, 2, stop)
    time.sleep(seconds)
    stop.set()
    _join(run, "read", reader)
    _check_samples(run, "read", reader, requests, expected)
    width = seconds / SLICES
    slices: list[dict[str, list[float]]] = [{} for _ in range(SLICES)]
    for at, latency, kind in reader.done:
        index = int((at - started) / width)
        if index < SLICES:
            slices[index].setdefault(READ_CLASS[kind], []).append(latency)
    result: dict[str, list[float]] = {"reads": [], "p99_ms": []}
    for by_class in slices:
        every = [latency for latencies in by_class.values() for latency in latencies]
        result["reads"].append(len(every))
        result["p99_ms"].append(1e3 * percentile(every, 99))
        for name, latencies in by_class.items():
            result.setdefault(f"{name}_p50_ms", []).append(1e3 * percentile(latencies, 50))
    return result


def write_phase(
    run: Run, port: int, requests, ingests, generations: list[int]
) -> tuple[list[float], list[float]]:
    """One connection posts ``ingests`` while the other reads.

    Appends each reply's generation to ``generations``; returns the ingest
    round trips and the concurrent reads' round trips, in seconds.
    """
    stop = threading.Event()
    reader = _reader(port, requests, 1, stop)
    latencies: list[float] = []
    conn = Connection(port)
    try:
        for triples, raw in ingests:
            start = time.perf_counter()
            status, body = conn.send(raw)
            latencies.append(time.perf_counter() - start)
            reply = json.loads(body) if status == 200 else {}
            ok = reply.get("ingested") == len(triples)
            run.op("ingest", ok)
            if ok:
                generations.append(reply["generation"])
        # The last ingested fact is served.
        entity, attribute, _ = ingests[-1][0][0]
        status, _ = conn.send(_http("GET", f"/truth/{entity}?attribute={attribute}"))
        run.op("ingest", status == 200)
    except (OSError, ValueError) as exc:
        run.op("ingest", False)
        print(f"  ingest error: {exc!r}", file=sys.stderr)
    finally:
        conn.close()
        stop.set()
        _join(run, "read_during_ingest", reader)
    return latencies, [latency for _, latency, _ in reader.done]


def run_phases(
    run: Run, port: int, requests, ingests, expected: Expected
) -> dict[str, list[float]]:
    """The read phase, then the write phase."""
    reads = read_phase(run, port, requests, expected, READ_SHARE * run.seconds)
    generations: list[int] = []
    ingest_s, _ = write_phase(run, port, requests, ingests, generations)
    _check_generations(run, generations, len(ingests))
    # A slice's p99 needs at least ten reads beyond it.
    fewest = min(reads["reads"])
    run.check("read_slices_resolve_p99", fewest >= 1000, f"fewest reads in a slice: {fewest}")
    return {**reads, "ingest_s": ingest_s}


def _check_generations(run: Run, generations: list[int], ingests: int) -> None:
    run.check(
        "ingest_generations_increase",
        len(generations) == ingests and all(a < b for a, b in zip(generations, generations[1:])),
        f"{len(generations)} generations, {generations[:1]}..{generations[-1:]}",
    )


def measure(run: Run) -> None:
    state, requests, ingests = _setup(run)
    expected = Expected(state.artifact)
    pairs = list(state.corpus.truth)
    accuracy = state.corpus.accuracy(dict(zip(pairs, expected.service.batch(pairs))))
    run.check(
        "served_accuracy_floor",
        accuracy >= ACCURACY_FLOOR["movies"],
        f"{accuracy:.4f} >= {ACCURACY_FLOOR['movies']}",
    )
    try:
        run.begin()
        phases = run_phases(run, state.server.port, requests, ingests, expected)
    finally:
        state.close()
    run.repeated("time1_ms", phases["entity_p50_ms"], "ms")
    run.repeated("time2_ms", phases["batch_p50_ms"], "ms")
    # Printed with the samples, not reported: see READ_CLASS.
    run.samples["top_k_p50_ms"] = phases["top_k_p50_ms"]
    run.samples["read_p99_ms"] = phases["p99_ms"]
    run.repeated("time3_ms", [1e3 * t for t in phases["ingest_s"]], "ms")
    run.metric("accuracy", accuracy, "ratio")
    # The system runs in the server child: its peak, read after it is reaped.
    run.metric("peak_rss_mib", peak_rss_mib(resource.RUSAGE_CHILDREN), "MiB")


def _with_headers(request: Request, extra: str) -> bytes:
    return _http(request.method, request.target, request.body, extra)


def _interleaved_pass(
    run: Run, server: Server, expected: Expected, requests: list[Request]
) -> dict[str, list]:
    """The requests through every path, in short alternating blocks.

    Paths: the socket round trip untraced, the same traced (the server
    times its app call inside it) and each followed at once by the same
    request through the replay app (the transport alone, for the same reply
    bytes), and the serving call plus codec encode behind each answer.
    Blocks are short and their order rotates, so drifts in host speed fall
    on every path alike.  Returns the times of each path and, under
    ``whole_calls`` and ``replay_calls``, the ``x-span`` of every traced
    round trip.
    """
    spans = run.spans
    real, replay = Connection(server.port), Connection(server.replay_port)
    times: dict[str, list] = {"whole_calls": [], "replay_calls": []}
    statuses: list[int] = []

    def note(name: str, seconds: float) -> None:
        times.setdefault(name, []).append(seconds)

    def untraced(block: list[tuple[int, Request]]) -> None:
        for _, request in block:
            start = time.perf_counter()
            statuses.append(real.send(request.raw)[0])
            note("untraced", time.perf_counter() - start)

    paths = ((real, "http.request", "whole"), (replay, "transport.replay", "replay"))

    def traced(block: list[tuple[int, Request]]) -> None:
        # The replay follows each real round trip at once, so the reply it
        # sends back is the one just kept, and it finds the caches as the
        # app left them, as the real reply's transport does.  Measured in a
        # block of its own, it ran up to 30 us faster.
        for index, request in block:
            for conn, name, key in paths:
                # x-span is the id of the span opened next.
                call = str(len(spans.records))
                raw = _with_headers(request, f"x-request: {index}\r\nx-span: {call}\r\n")
                with spans.span(name, kind=request.kind) as span:
                    statuses.append(conn.send(raw)[0])
                note(key, spans.seconds(span))
                times[f"{key}_calls"].append(call)

    def direct(block: list[tuple[int, Request]]) -> None:
        for _, request in block:
            with spans.span(f"serving.{request.kind}") as span:
                answer = expected.answer(request)
            note(f"serving.{request.kind}", spans.seconds(span))
            with spans.span("api.codec") as span:
                expected.encode(request, answer)
            note("api.codec", spans.seconds(span))

    indexed = list(enumerate(requests[:SEQUENTIAL_REQUESTS]))
    try:
        for number, i in enumerate(range(0, len(indexed), BLOCK)):
            block = indexed[i : i + BLOCK]
            # The two real round trips run back to back, first one then the
            # other, so neither always finds the server's caches warm.
            pair = [untraced, traced] if number % 2 else [traced, untraced]
            groups = [pair, [direct]]
            shift = number % len(groups)
            for group in groups[shift:] + groups[:shift]:
                for path in group:
                    path(block)
    finally:
        real.close()
        replay.close()
    ok = statuses.count(200)
    run.op("sequential", True, ok)
    run.op("sequential", False, len(statuses) - ok)
    return times


def _ingest_replay(run: Run, artifact_path: Path, ingests) -> dict[str, float]:
    """The ingest sequence on direct calls, as ``POST /ingest`` makes them."""
    import dataclasses

    import repro.engine.facade as facade
    from repro.engine import TruthEngine
    from repro.serving import TruthArtifact, TruthService

    spans = run.spans
    artifact = TruthArtifact.load(artifact_path)
    config = dataclasses.replace(artifact.config, retrain_every=0, export_dir=None)
    writer = TruthEngine.from_artifact(dataclasses.replace(artifact, config=config))
    service = TruthService(artifact)
    targets = [(facade, "build_claim_matrix", "data.claim_build")]
    with spans.around(targets), spans.span("ingest_replay") as replay:
        for triples, _ in ingests:
            with spans.span("engine.partial_fit"):
                writer.partial_fit(triples)
            with spans.span("engine.to_artifact"):
                published = writer.to_artifact(name=service.artifact.name)
            with spans.span("serving.refresh"):
                service.refresh(published)
    result = {
        name: 1e3 * median(spans.durations(name, replay["id"]))
        for name in ("engine.partial_fit", "engine.to_artifact", "serving.refresh")
    }
    result["data.claim_build"] = 1e3 * median(
        spans.durations_under("data.claim_build", "engine.partial_fit", replay["id"])
    )
    result["snapshot_facts"] = len(service)
    return result


def trace(run: Run) -> None:
    state, requests, ingests = _setup(run)
    expected = Expected(state.artifact)
    passes: list[dict[str, list]] = []
    try:
        run.begin()
        round_s = 0.0
        while run.another_round(len(passes), round_s):
            started = time.perf_counter()
            passes.append(_interleaved_pass(run, state.server, expected, requests))
            round_s = time.perf_counter() - started
        generations: list[int] = []
        _, during = write_phase(run, state.server.port, requests, ingests, generations)
        _check_generations(run, generations, len(ingests))
        ingest = _ingest_replay(run, state.artifact, ingests)
    finally:
        state.close()

    # Graft the server's call spans under the round trips they ran in.
    server_spans = state.server.spans
    calls = [call for times in passes for call in times["whole_calls"] + times["replay_calls"]]
    run.check(
        "server_reported_call_spans",
        all(call in server_spans for call in calls),
        f"{len(server_spans)} server spans for {len(calls)} traced round trips",
    )
    # Per-request values, pooled over the passes.
    pooled: dict[str, list[float]] = {}
    for times in passes:
        for key, name in (("whole_calls", "api.app"), ("replay_calls", "replay.app")):
            for call in times.pop(key):
                start_ns, end_ns = server_spans.get(call, (0, 0))
                run.spans.adopt(name, int(call), start_ns, end_ns)
                times.setdefault(name, []).append((end_ns - start_ns) / 1e9)
        for name, values in times.items():
            pooled.setdefault(name, []).extend(values)
    # Each traced request's parts: its app call, and the transport of the
    # replay that followed it, less the replay call.
    parts = [
        app + replay - replay_app
        for app, replay, replay_app in zip(pooled["api.app"], pooled["replay"], pooled["replay.app"])
    ]
    transport = [whole - app for whole, app in zip(pooled["whole"], pooled["api.app"])]

    # Medians per call: a host stall of tens of ms in one round trip would
    # otherwise move a mean over a few thousand calls by several percent.
    def med(values: list[float]) -> float:
        return 1e6 * median(values)

    run.metric("serving.truth_of_us", med(pooled["serving.point"]), "us")
    run.metric("serving.lookup_us", med(pooled["serving.list"]), "us")
    run.metric("serving.batch_us", med(pooled["serving.batch"]), "us")
    run.metric("serving.top_k_us", med(pooled["serving.top_k"]), "us")
    run.metric("api.codec_us", med(pooled["api.codec"]), "us")
    run.metric("api.app_us", med(pooled["api.app"]), "us")
    run.metric("api.transport_us", med(transport), "us")
    run.metric("data.claim_build_ms", ingest["data.claim_build"], "ms")
    run.metric("engine.partial_fit_ms", ingest["engine.partial_fit"], "ms")
    run.metric("engine.to_artifact_ms", ingest["engine.to_artifact"], "ms")
    run.metric("serving.refresh_ms", ingest["serving.refresh"], "ms")
    run.metric("serving.snapshot_facts", ingest["snapshot_facts"], "count")
    if during:
        run.metric("api.read_during_ingest_p99_ms", 1e3 * percentile(during, 99), "ms")
    run.layer_sum("serve_http", med(parts), med(pooled["whole"]), med(pooled["untraced"]))
