"""Shared plumbing for the experiment harnesses.

Every experiment module exposes ``run(...) -> dict`` returning the rows
it printed, so benchmarks and tests can assert on shapes.  Problem sizes
default to values that keep the full benchmark suite in minutes of host
time; each sweep's ``paper_overrides`` (``repro run --full``) names the
paper-scale values.
"""

from __future__ import annotations

import os


def default_jobs() -> int:
    """Default worker-process count for the sweep runner.

    ``REPRO_JOBS`` mirrors the CLI's ``--jobs``: experiment sweeps are
    embarrassingly parallel (every point builds fresh deterministic
    systems), so CI and batch hosts can shard them without changing any
    command lines.
    """
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def scaled_cache_overrides() -> dict:
    """Cache sizes scaled down with the problem sizes (see EXPERIMENTS.md).

    PolyBench at paper-scale ("large") datasets spills a 512 KiB L2; our
    reduced datasets would fit, hiding all memory behaviour.  Scaling the
    caches with the data restores the paper's memory intensity spread.
    """
    from repro.core.config import CacheConfig

    return {
        "l1": CacheConfig(size_bytes=4 * 1024, assoc=2, hit_latency=2),
        "l2": CacheConfig(size_bytes=32 * 1024, assoc=8, hit_latency=12),
    }
