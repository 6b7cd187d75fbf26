"""lmbench-style memory read latency microbenchmark.

``lat_mem_rd`` measures load-to-use latency by chasing a pointer chain
through a working set of a given size: every load depends on the
previous one, so no memory-level parallelism hides the latency.  The
paper uses this benchmark to produce Figure 8's latency profile (average
cycles per load vs. working-set size).

The chain is a seeded pseudo-random permutation of the working set's
cache lines (one hop per line), exactly like the real benchmark's
default "random" pattern, so hardware prefetchers (which we do not
model anyway) could not help.  The permutation is
``random.Random(seed).shuffle`` of the line indices; the compiled
kernel computes it bit-exactly (:func:`chain_order`), and
``random.shuffle`` itself serves when the kernel is off or unavailable.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

from repro.cpu.blocks import BLOCK_ACCESSES, AccessBlock, BlockTrace
from repro.cpu.memtrace import FLAG_DEPENDENT

#: Working-set sizes of Figure 8 (1 KiB .. 16 MiB).
FIG8_SIZES_KIB = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1024, 2048, 4096, 8192, 16384,
)


def chain_order(lines: int, seed: int | str = 7) -> np.ndarray:
    """The chase order: ``random.Random(seed).shuffle(list(range(lines)))``
    as an ``int64`` array.

    Computed by the compiled kernel's ``repro_shuffle`` when a backend
    resolves (:func:`repro.dram.kernel.resolve_backend`), otherwise by
    ``random.shuffle`` itself; the two are bit-identical.
    """
    from repro.dram.kernel import resolve_backend

    backend, _ = resolve_backend()
    if backend is not None:
        order = np.arange(lines, dtype=np.int64)
        backend.shuffle(order, seed)
        return order
    shuffled = list(range(lines))
    random.Random(seed).shuffle(shuffled)
    return np.array(shuffled, dtype=np.int64)


def pointer_chase_blocks(size_bytes: int, accesses: int, line_bytes: int = 64,
                         base_addr: int = 1 << 22, seed: int = 7,
                         gap: int = 1, block: int | None = None) -> BlockTrace:
    """Dependent-load chase over ``size_bytes`` of memory (block-native).

    ``accesses`` loads are issued, wrapping around the chain as needed.
    Every load is flagged dependent so the core serializes on it.  The
    chain (:func:`chain_order`) is computed up front as one pass of
    addresses; each block is a slice of it (a wrapped gather where a
    block crosses the end of the chain).
    """
    if size_bytes < line_bytes:
        raise ValueError("working set must hold at least one line")
    lines = size_bytes // line_bytes
    pass_addrs = chain_order(lines, seed)
    pass_addrs *= line_bytes
    pass_addrs += base_addr
    per_block = max(1, block or BLOCK_ACCESSES)
    flags = np.full(max(0, min(per_block, accesses)), FLAG_DEPENDENT,
                    np.int64)
    gaps = np.full(flags.shape[0], gap, np.int64)

    def chunks() -> Iterator[AccessBlock]:
        for start in range(0, accesses, per_block):
            count = min(per_block, accesses - start)
            first = start % lines
            if first + count <= lines:
                addr = pass_addrs[first:first + count]
            else:
                addr = pass_addrs.take(np.arange(first, first + count),
                                       mode="wrap")
            yield AccessBlock(addr, flags[:count], gaps[:count])

    return BlockTrace(chunks())


def accesses_for(size_bytes: int, min_accesses: int = 4096,
                 max_accesses: int = 40_000, line_bytes: int = 64) -> int:
    """How many loads to issue for a working set: >= 2 full passes."""
    lines = max(1, size_bytes // line_bytes)
    return max(min_accesses, min(max_accesses, 2 * lines))
