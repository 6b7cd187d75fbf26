"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables or figures and
prints the rows/series the paper reports (captured with ``-s`` or in the
benchmark logs).  Experiments are deterministic, so every benchmark runs
a single round — the interesting number is the artifact, not the
harness's wall time.  Pass ``--full`` for paper-scale sweeps.
"""

from __future__ import annotations

import os

import pytest

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--full", action="store_true",
        help="benchmarks: paper-scale sweeps instead of CI-scale")


@pytest.fixture
def full(request) -> bool:
    """Whether the run asked for paper-scale sweeps (``--full``)."""
    return request.config.getoption("--full")


def pytest_collection_modifyitems(items):
    """Tag everything under benchmarks/ with the ``bench`` marker.

    Tier-1 runs (`pytest` with the default ``-m "not bench"`` addopts)
    then skip the benchmark suite; ``pytest -m bench`` selects it.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.bench)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return runner
