"""HTTP server process for the ``serve_http`` workload.

Usage::

    python3 perfbench/serve_child.py ARTIFACT_DIR

    python3 perfbench/serve_child.py ARTIFACT_DIR --trace

Serves the artifact through the bundled ``APIServer`` on an ephemeral port
of 127.0.0.1 and prints ``port <n>`` once it accepts connections.  The
process exits cleanly on SIGTERM, and also when its standard input closes,
so it cannot outlive the benchmark process that started it.

With ``--trace`` it prints ``port <n> <replay>``: the app is wrapped in a
:class:`Recorder`, and a second ``APIServer`` in the same process serves a
replay app on port ``<replay>``.  A request that carries ``x-request: <i>``
has its reply kept under ``i``; the replay app answers ``x-request: <i>``
with that same reply and does no other work, so a round trip through it,
less the replay call itself, is the transport alone, for the very bytes of
the real reply.  A request to either port that carries ``x-span: <n>`` has
its app call timed.  On exit the child prints
``spans <json>``, each ``n`` with the call's start and end in
``time.perf_counter_ns`` (the system's monotonic clock, shared with the
parent process).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# The limiter stays on, with a budget far above what two closed-loop
# connections can offer.
RATE_PER_S = 1_000_000.0
BURST = 1_000_000.0


def _header(scope, name: bytes) -> str | None:
    value = dict(scope["headers"]).get(name)
    return None if value is None else value.decode("latin-1")


class Recorder:
    """ASGI middleware of a traced server: times the app calls that carry
    ``x-span`` and keeps the replies of those that carry ``x-request``."""

    def __init__(self, app):
        self.app = app
        self.spans: dict[str, tuple[int, int]] = {}  # x-span -> (start ns, end ns)
        self.replies: dict[str, list[dict]] = {}  # x-request -> response messages

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] != "http":
            return await self.app(scope, receive, send)
        span, key = _header(scope, b"x-span"), _header(scope, b"x-request")
        if key is not None:
            messages = self.replies[key] = []

            async def keep(message, send=send) -> None:
                messages.append(message)
                await send(message)

            send = keep
        start = time.perf_counter_ns()
        await self.app(scope, receive, send)
        if span is not None:
            self.spans[span] = (start, time.perf_counter_ns())

    async def replay(self, scope, receive, send) -> None:
        """Answer with the kept reply to the same ``x-request``; 500 if none.

        Its calls are timed like the app's, so a replayed round trip carries
        the same tracing work as a traced one, and its own call can be taken
        out of it.
        """
        if scope["type"] != "http":
            return
        span, key = _header(scope, b"x-span"), _header(scope, b"x-request")
        start = time.perf_counter_ns()
        await receive()
        messages = self.replies.get(key or "")
        if messages is None:
            messages = [{"type": "http.response.start", "status": 500, "headers": []}]
            messages.append({"type": "http.response.body", "body": b""})
        for message in messages:
            await send(message)
        if span is not None:
            self.spans[span] = (start, time.perf_counter_ns())


def _stop_when_stdin_closes(loop: asyncio.AbstractEventLoop, stop: asyncio.Event) -> None:
    # os.read, not sys.stdin: a daemon thread blocked inside a buffered
    # reader would abort interpreter shutdown.
    while os.read(0, 4096):
        pass
    loop.call_soon_threadsafe(stop.set)


async def serve(app, recorder: Recorder | None) -> None:
    from repro.api.server import APIServer

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    threading.Thread(target=_stop_when_stdin_closes, args=(loop, stop), daemon=True).start()
    servers = [APIServer(app, host="127.0.0.1", port=0)]
    if recorder is not None:
        servers.append(APIServer(recorder.replay, host="127.0.0.1", port=0))
    for server in servers:
        await server.start()
    print("port", *(server.port for server in servers), flush=True)
    try:
        await stop.wait()
    finally:
        for server in servers:
            await server.close()
        # Let handlers of connections the client already closed finish,
        # rather than cancelling them mid-close.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=2.0)
    if recorder is not None:
        print("spans", json.dumps(recorder.spans), flush=True)


def main() -> int:
    from repro.api import create_app

    artifact, *flags = sys.argv[1:]
    app = create_app(artifact, rate=RATE_PER_S, burst=BURST)
    recorder = Recorder(app) if "--trace" in flags else None
    asyncio.run(serve(recorder or app, recorder))
    return 0


if __name__ == "__main__":
    sys.exit(main())
