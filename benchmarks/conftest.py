"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation section (see DESIGN.md's experiment index).  The simulated
datasets here are scaled-down versions of the paper's datasets so that the
whole harness runs in a few minutes on a laptop; set the environment variable
``REPRO_BENCH_SCALE=paper`` to use the paper's full dataset sizes instead
(slower by roughly an order of magnitude).

Expensive artefacts (the fitted method-comparison tables) are computed once
per session and shared by the Table 7 / Figure 2 / Figure 3 / Table 8
benchmarks.  Every benchmark also renders its reproduced table/figure as
text; set ``REPRO_BENCH_RECORD=1`` to write those renders to
``benchmarks/results/``.  Without it every assertion and floor still runs,
but the committed results are left untouched.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.engine.registry import method_suite
from repro.evaluation.comparison import compare_methods
from repro.synth.books import BookAuthorConfig, BookAuthorSimulator
from repro.synth.movies import MovieDirectorConfig, MovieDirectorSimulator

RESULTS_DIR = Path(__file__).parent / "results"

PAPER_SCALE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "paper"
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"
LTM_ITERATIONS = 100
SEED = 7


def _book_config() -> BookAuthorConfig:
    if PAPER_SCALE:
        return BookAuthorConfig.paper_scale(seed=17)
    return BookAuthorConfig(num_books=300, num_sellers=120, labelled_books=100, seed=17)


def _movie_config() -> MovieDirectorConfig:
    if PAPER_SCALE:
        return MovieDirectorConfig.paper_scale(seed=29)
    return MovieDirectorConfig(num_movies=1200, labelled_movies=100, seed=29)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def book_dataset():
    """The simulated book-author dataset (paper Section 6.1.1, first dataset)."""
    return BookAuthorSimulator(_book_config()).generate()


@pytest.fixture(scope="session")
def movie_dataset():
    """The simulated movie-director dataset (paper Section 6.1.1, second dataset)."""
    return MovieDirectorSimulator(_movie_config()).generate()


@pytest.fixture(scope="session")
def book_comparison(book_dataset):
    """All ten methods fitted and graded on the book dataset (shared by E2-E4)."""
    suite = method_suite(iterations=LTM_ITERATIONS, seed=SEED)
    return compare_methods(
        book_dataset,
        suite,
        include_incremental=True,
        incremental_kwargs={"iterations": LTM_ITERATIONS, "seed": SEED},
    )


@pytest.fixture(scope="session")
def movie_comparison(movie_dataset):
    """All ten methods fitted and graded on the movie dataset (shared by E2-E4, E8)."""
    suite = method_suite(iterations=LTM_ITERATIONS, seed=SEED)
    return compare_methods(
        movie_dataset,
        suite,
        include_incremental=True,
        incremental_kwargs={"iterations": LTM_ITERATIONS, "seed": SEED},
    )


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Write one experiment's rendered output under benchmarks/results/.

    A no-op unless ``REPRO_BENCH_RECORD=1``.
    """
    if not RECORD:
        return
    path = results_dir / name
    path.write_text(text, encoding="utf-8")
