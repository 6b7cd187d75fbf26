"""lmbench-style memory read latency microbenchmark.

``lat_mem_rd`` measures load-to-use latency by chasing a pointer chain
through a working set of a given size: every load depends on the
previous one, so no memory-level parallelism hides the latency.  The
paper uses this benchmark to produce Figure 8's latency profile (average
cycles per load vs. working-set size).

The chain is a seeded pseudo-random permutation of the working set's
cache lines (one hop per line), exactly like the real benchmark's
default "random" pattern, so hardware prefetchers (which we do not
model anyway) could not help.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.cpu.blocks import BLOCK_ACCESSES, AccessBlock, BlockTrace
from repro.cpu.memtrace import FLAG_DEPENDENT, Access

#: Working-set sizes of Figure 8 (1 KiB .. 16 MiB).
FIG8_SIZES_KIB = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1024, 2048, 4096, 8192, 16384,
)


def pointer_chase_blocks(size_bytes: int, accesses: int, line_bytes: int = 64,
                         base_addr: int = 1 << 22, seed: int = 7,
                         gap: int = 1, block: int | None = None) -> BlockTrace:
    """Dependent-load chase over ``size_bytes`` of memory (block-native).

    ``accesses`` loads are issued, wrapping around the chain as needed.
    Every load is flagged dependent so the core serializes on it.  The
    chain order is the same seeded permutation the per-access generator
    always used; blocks are C-speed slices of the precomputed one-pass
    address list.
    """
    if size_bytes < line_bytes:
        raise ValueError("working set must hold at least one line")
    lines = size_bytes // line_bytes
    order = list(range(lines))
    rng = random.Random(seed)
    rng.shuffle(order)
    pass_addrs = [base_addr + index * line_bytes for index in order]
    per_block = max(1, block or BLOCK_ACCESSES)

    def chunks() -> Iterator[AccessBlock]:
        issued = 0
        pos = 0
        while issued < accesses:
            count = min(per_block, accesses - issued)
            addr: list[int] = []
            while len(addr) < count:
                take = min(count - len(addr), lines - pos)
                addr.extend(pass_addrs[pos:pos + take])
                pos = (pos + take) % lines
            yield AccessBlock(addr, [FLAG_DEPENDENT] * count, [gap] * count)
            issued += count

    return BlockTrace(chunks())


def pointer_chase(size_bytes: int, accesses: int, line_bytes: int = 64,
                  base_addr: int = 1 << 22, seed: int = 7,
                  gap: int = 1) -> Iterator[Access]:
    """Dependent-load chase (per-access shim over the block builder)."""
    yield from pointer_chase_blocks(
        size_bytes, accesses, line_bytes, base_addr, seed, gap).accesses()


def accesses_for(size_bytes: int, min_accesses: int = 4096,
                 max_accesses: int = 40_000, line_bytes: int = 64) -> int:
    """How many loads to issue for a working set: >= 2 full passes."""
    lines = max(1, size_bytes // line_bytes)
    return max(min_accesses, min(max_accesses, 2 * lines))
