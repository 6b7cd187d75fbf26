"""PolyBench block builders vs the per-access reference generators.

Every registered kernel at every size class must produce the identical
``(addr, flags, gap)`` stream, cut at the same block boundaries that
:func:`~repro.cpu.blocks.blockify` gives the reference generator.  The
``mini`` cells are tier-1; ``small`` and ``large`` run under ``slow``.
"""

from __future__ import annotations

from dataclasses import astuple
from itertools import zip_longest

import pytest
import reference_polybench as reference

from repro.cpu.blocks import blockify
from repro.workloads import polybench

SIZE_CLASSES = ("mini", "small", "large")

CELLS = [pytest.param(name, size, id=f"{name}-{size}",
                      marks=() if size == "mini" else pytest.mark.slow)
         for size in SIZE_CLASSES for name in reference.names()]


def _first_difference(got: list[int], want: list[int]) -> int:
    return next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                min(len(got), len(want)))


def assert_same_blocks(built, oracle) -> int:
    """Compare two block streams pairwise; returns the access count."""
    seen = 0
    for index, (got, want) in enumerate(zip_longest(built, oracle)):
        assert got is not None and want is not None, \
            f"block {index}: one stream ended early"
        for column in ("addr", "flags", "gap"):
            a = getattr(got, column).tolist()
            b = getattr(want, column).tolist()
            if a != b:
                at = _first_difference(a, b)
                pytest.fail(f"block {index} ({len(a)} vs {len(b)} accesses):"
                            f" {column}[{at}] differs, access {seen + at}")
        seen += len(got)
    return seen


def test_registries_agree():
    def shapes(kernels, name):
        return {size: astuple(dims) for size, dims in kernels[name].sizes.items()}

    assert polybench.names() == reference.names()
    for name in reference.names():
        assert (shapes(polybench.KERNELS, name)
                == shapes(reference.KERNELS, name)), name


@pytest.mark.parametrize("name,size", CELLS)
def test_blocks_match_reference(name, size):
    accesses = assert_same_blocks(polybench.trace_blocks(name, size),
                                  blockify(reference.trace(name, size)))
    assert accesses > 0


@pytest.mark.parametrize("block", [1, 37, 4096, 1 << 20])
def test_block_sizes_match_reference(block):
    """Odd, tiny and whole-trace block sizes cut where blockify does."""
    for name in ("durbin", "nussinov", "adi"):
        assert_same_blocks(polybench.trace_blocks(name, "mini", block=block),
                           blockify(reference.trace(name, "mini"), block))


def test_per_access_view_matches_reference():
    assert (list(polybench.trace_blocks("lu", "mini").accesses())
            == list(reference.trace("lu", "mini")))
