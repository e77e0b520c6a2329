"""Shared run machinery: result collection, span recording and timing helpers."""

from __future__ import annotations

import functools
import gc
import inspect
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """Wall time of ``fn()`` after a full collection, and its result."""
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


class Spans:
    """In-memory span recorder, written out as JSON lines when the run ends.

    Spans are opened by the benchmark around its calls into the program, and
    (through :meth:`around`) around the program's public layer functions for
    the duration of a traced call.  The program's source is never changed.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record: dict[str, Any] = {
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "attrs": attrs,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def adopt(self, name: str, parent: int, start_ns: int, end_ns: int) -> None:
        """Add a span recorded elsewhere, on the same monotonic clock, as a
        child of span ``parent``."""
        self.records.append(
            {
                "id": len(self.records),
                "parent": parent,
                "name": name,
                "attrs": {},
                "start_ns": start_ns,
                "end_ns": end_ns,
            }
        )

    def seconds(self, record: dict[str, Any]) -> float:
        return (record["end_ns"] - record["start_ns"]) / 1e9

    def durations(self, name: str, parent: int) -> list[float]:
        """Durations (s) of every span called ``name`` under span ``parent``."""
        return [
            self.seconds(r) for r in self.records if r["name"] == name and r["parent"] == parent
        ]

    def total(self, name: str, parent: int) -> float:
        return sum(self.durations(name, parent))

    def durations_under(self, name: str, parent_name: str, within: int) -> list[float]:
        """Durations (s) of ``name`` spans whose parent is a ``parent_name``
        span, itself a child of span ``within``."""
        parents = {
            r["id"] for r in self.records if r["name"] == parent_name and r["parent"] == within
        }
        return [
            self.seconds(r) for r in self.records if r["name"] == name and r["parent"] in parents
        ]

    def total_under(self, name: str, parent_name: str, within: int) -> float:
        return sum(self.durations_under(name, parent_name, within))

    @contextmanager
    def around(
        self, targets: list[tuple[Any, str, str]], keep: tuple[str, ...] = ()
    ) -> Iterator[dict[str, list[Any]]]:
        """Record a span around every call of ``owner.attribute`` while active.

        ``targets`` lists ``(owner, attribute, span name)``; an owner is a
        module or a class of the program.  The wrappers are removed on exit,
        so the program is only observed, never changed.  A missing attribute
        raises, so a renamed layer function cannot drop out of the trace
        unnoticed.  Yields the return values of the calls whose span name is
        in ``keep``.
        """
        results: dict[str, list[Any]] = {name: [] for name in keep}
        installed: list[tuple[Any, str, Any, bool]] = []
        try:
            for owner, attribute, name in targets:
                original = inspect.getattr_static(owner, attribute)
                own = attribute in vars(owner)
                setattr(owner, attribute, self._wrap(original, name, results))
                installed.append((owner, attribute, original, own))
            yield results
        finally:
            for owner, attribute, original, own in reversed(installed):
                if own:
                    setattr(owner, attribute, original)
                else:
                    delattr(owner, attribute)

    def _wrap(self, original: Any, name: str, results: dict[str, list[Any]]) -> Any:
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if kind else original

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                value = func(*args, **kwargs)
            if name in results:
                results[name].append(value)
            return value

        return kind(traced) if kind else traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass
class Run:
    """Everything one benchmark run collects and finally prints."""

    workload: str
    seed: int
    seconds: float  # length of each measured window
    trace: bool
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)  # in-run repetitions
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    phases: dict[str, list[int]] = field(default_factory=dict)  # phase -> [attempted, failed]
    spans: Spans = field(default_factory=Spans)
    work_dir: Path = field(default=Path("."))
    started: float = field(default_factory=time.perf_counter)

    def begin(self) -> None:
        """Start the measured window of ``seconds`` (after set-up and warm-up)."""
        self.started = time.perf_counter()

    def remaining(self) -> float:
        """Seconds left in the measured window."""
        return self.started + self.seconds - time.perf_counter()

    def another_round(self, rounds_done: int, last_round_s: float) -> bool:
        """Whether to start another round: always the first, then while at
        least half a round's time is left in the measured window."""
        return rounds_done == 0 or self.remaining() > 0.5 * last_round_s

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def repeated(self, name: str, values: list[float], unit: str) -> float:
        """Report the median of in-run repetitions; keep them for the summary."""
        self.samples[name] = list(values)
        self.metric(name, median(values), unit)
        return self.metrics[name][0]

    def layer_sum(self, path: str, parts_s: float, whole_s: float, untraced_s: float) -> None:
        """Report how much of ``path``'s traced whole its parts cover, and the
        tracing overhead; the run fails unless parts are within 10% of it."""
        ratio = parts_s / whole_s
        self.metric(f"trace.{path}.parts_over_whole", ratio, "ratio")
        overhead = 100.0 * (whole_s - untraced_s) / untraced_s
        self.metric(f"trace.{path}.overhead_pct", overhead, "%")
        within = abs(1.0 - ratio) <= 0.10
        self.check(f"{path}_layer_sum_within_10pct", within, f"parts/whole = {ratio:.3f}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def op(self, phase: str, ok: bool, count: int = 1) -> None:
        """Count ``count`` attempted operations of ``phase``; failed unless ``ok``."""
        tally = self.phases.setdefault(phase, [0, 0])
        tally[0] += count
        if not ok:
            tally[1] += count

    @property
    def correct(self) -> bool:
        failed = sum(t[1] for t in self.phases.values())
        return failed == 0 and all(ok for _, ok, _ in self.checks)

    def finish(self) -> int:
        """Print the human summary (stderr) and the result line (stdout)."""
        broken = sorted(n for n, (v, _) in self.metrics.items() if not math.isfinite(v))
        if broken:
            self.check("metrics_finite", False, ", ".join(broken))
            for name in broken:
                del self.metrics[name]
        log = sys.stderr
        for phase, (attempted, failed) in self.phases.items():
            print(f"  ops {phase:<18} attempted {attempted:>8}  failed {failed}", file=log)
        for name, ok, detail in self.checks:
            print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}", file=log)
        for name, (value, unit) in sorted(self.metrics.items()):
            print(f"  {name:<34} {value:>14.6g} {unit}", file=log)
        for name, values in sorted(self.samples.items()):
            print(f"  samples {name} {json.dumps(values)}", file=log)
        if self.trace:
            path = BENCH_DIR / "traces" / f"{self.workload}-seed{self.seed}.jsonl"
            self.spans.write(path)
            print(f"  spans written to {path.relative_to(BENCH_DIR.parent)}", file=log)
        result = {
            "correct": self.correct,
            "attempted": sum(t[0] for t in self.phases.values()),
            "failed": sum(t[1] for t in self.phases.values()),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
        print(json.dumps(result, sort_keys=True), flush=True)
        return 0 if self.correct else 1


@contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh scratch directory inside the benchmark tree, removed afterwards."""
    root = BENCH_DIR / ".tmp"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run still uses it


def setup_repeated(run: Run, setup: Callable[[int], Any]) -> Any:
    """Run ``setup`` ``SETUP_REPEATS`` times; report the median as ``setup_s``.

    ``setup_s`` is an end-to-end metric, so a traced run does not report it
    and sets up once.  Returns the value of the last repetition.
    """
    times: list[float] = []
    value = None
    for i in range(1 if run.trace else SETUP_REPEATS):
        if value is not None and hasattr(value, "close"):
            value.close()
        elapsed, value = timed(lambda: setup(i))
        times.append(elapsed)
    if not run.trace:
        run.metric("setup_s", median(times), "s")
    return value
