"""Copy and Init microbenchmarks (Section 7.2's workloads).

``Copy`` replicates an N-byte source array into a destination array;
``Init`` fills an N-byte array with a pattern.  Each has a CPU variant
(load/store traces, generated here) and a RowClone variant (driven by
:mod:`repro.core.techniques.rowclone`).

Accesses are modeled at cache-line granularity: one load/store per 64 B
line with a ``gap`` accounting for the other seven register-width
load/store pairs the core executes per line.

The generators emit :class:`~repro.cpu.blocks.AccessBlock` chunks
(address arithmetic is bulk NumPy/array math, not one namedtuple per
access).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.cpu.blocks import BLOCK_ACCESSES, AccessBlock, BlockTrace

#: Array sizes of Figures 10/11 (8 KiB .. 16 MiB).
FIG10_SIZES = tuple(8 * 1024 * (1 << i) for i in range(12))

#: Instruction work per 64-byte line besides the modeled access:
#: 7 more load/store pairs at ~1 IPC.
_LINE_GAP = 7

#: A copy's per-line flags: load the source, store the destination.
_COPY_FLAGS = np.array([0, 1], dtype=np.int64)


def cpu_copy_blocks(src_base: int, dst_base: int, size_bytes: int,
                    line_bytes: int = 64, block: int | None = None) -> BlockTrace:
    """CPU-copy: streaming loads from src, stores to dst (block-native)."""
    lines = size_bytes // line_bytes
    pairs_per_block = max(1, (block or BLOCK_ACCESSES) // 2)

    def chunks() -> Iterator[AccessBlock]:
        for start in range(0, lines, pairs_per_block):
            count = min(pairs_per_block, lines - start)
            offsets = np.arange(start, start + count, dtype=np.int64)
            offsets *= line_bytes
            addr = np.empty(2 * count, dtype=np.int64)
            addr[0::2] = src_base + offsets
            addr[1::2] = dst_base + offsets
            yield AccessBlock(addr, np.tile(_COPY_FLAGS, count),
                              np.full(2 * count, _LINE_GAP, np.int64))

    return BlockTrace(chunks())


def cpu_init_blocks(dst_base: int, size_bytes: int, line_bytes: int = 64,
                    block: int | None = None) -> BlockTrace:
    """CPU-init: streaming stores of a fill pattern (block-native)."""
    lines = size_bytes // line_bytes
    per_block = max(1, block or BLOCK_ACCESSES)

    def chunks() -> Iterator[AccessBlock]:
        for start in range(0, lines, per_block):
            count = min(per_block, lines - start)
            addr = np.arange(start, start + count, dtype=np.int64)
            addr *= line_bytes
            addr += dst_base
            yield AccessBlock(addr, np.ones(count, np.int64),
                              np.full(count, 2 * _LINE_GAP, np.int64))

    return BlockTrace(chunks())


def touch_blocks(base: int, size_bytes: int, line_bytes: int = 64,
                 write: bool = False, block: int | None = None) -> BlockTrace:
    """Touch every line once (block-native warm-up / residency pass)."""
    lines = size_bytes // line_bytes
    per_block = max(1, block or BLOCK_ACCESSES)
    flag = 1 if write else 0

    def chunks() -> Iterator[AccessBlock]:
        for start in range(0, lines, per_block):
            count = min(per_block, lines - start)
            addr = np.arange(start, start + count, dtype=np.int64)
            addr *= line_bytes
            addr += base
            yield AccessBlock(addr, np.full(count, flag, np.int64),
                              np.ones(count, np.int64))

    return BlockTrace(chunks())


def channel_stream_blocks(mapper, lines_per_channel: int,
                          write: bool = False, gap: int = _LINE_GAP,
                          block: int | None = None) -> BlockTrace:
    """Streaming accesses that provably rotate across every channel.

    Built from DRAM coordinates through ``mapper.to_physical`` —
    access ``k`` targets channel ``k % channels`` at the ``k //
    channels``-th line of that channel's row-major walk — so the
    footprint spans the whole topology *regardless* of the mapping
    scheme.  On the paper's single-channel system this degenerates to a
    plain row-major stream.  This is the multi-channel bandwidth kernel
    the channel-scaling experiment drives.
    """
    from repro.dram.address import DramAddress

    g = mapper.geometry
    channels = g.channels
    columns = g.columns_per_row
    banks = g.total_banks
    rows = g.rows_per_bank
    banks_per_rank = g.num_banks
    flag = 1 if write else 0
    per_block = max(1, block or BLOCK_ACCESSES)
    total = lines_per_channel * channels
    to_physical = mapper.to_physical

    def addr_of(k: int) -> int:
        ch = k % channels
        inner = k // channels
        col = inner % columns
        blk = inner // columns
        bank = blk % banks
        row = (blk // banks) % rows
        return to_physical(DramAddress(bank=bank, row=row, col=col,
                                       channel=ch,
                                       rank=bank // banks_per_rank))

    def chunks() -> Iterator[AccessBlock]:
        for start in range(0, total, per_block):
            count = min(per_block, total - start)
            addr = np.fromiter(map(addr_of, range(start, start + count)),
                               np.int64, count)
            yield AccessBlock(addr, np.full(count, flag, np.int64),
                              np.full(count, gap, np.int64))

    return BlockTrace(chunks())
