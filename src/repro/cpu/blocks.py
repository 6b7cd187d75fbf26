"""Array-native access blocks: the workload side of the fast path.

Workloads emit :class:`AccessBlock` chunks — parallel ``addr``/``flags``
/``gap`` integer arrays covering a few thousand accesses — instead of
one :class:`~repro.cpu.memtrace.Access` namedtuple at a time.  A block
crosses the frontend in three bulk steps (generate, cache-filter,
replay) where the object pipeline paid per-access generator resumption
and allocation.

A :class:`BlockTrace` is a single-use stream of blocks, exactly like an
``Iterator[Access]`` is a single-use stream of accesses.  It carries a
compatibility view (:meth:`BlockTrace.accesses`) that re-yields the
identical per-access stream, which is what every workload's per-access
trace function returns — block builders are the source of truth, the
iterators are thin views.

Blocks hold C-contiguous ``int64`` NumPy arrays, one representation
from builder to consumer.  The production consumer is the resident
replay (:mod:`repro.dram.kernel.blockrun`), which hands the arrays to
the compiled kernel as they are; builders compute them with bulk NumPy
and never round-trip through Python lists.  The Python consumers —
the burst loop, the Python cache filter, the per-access view —
convert a block to lists once, when they take it (``ndarray.tolist()``
is a bulk operation, and CPython list indexing beats NumPy scalar
access by an order of magnitude).  Blocks are never mutated after
construction, so :class:`MaterializedBlocks` can share them between
runs.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.cpu.memtrace import Access

#: Accesses per workload block.  Any positive size produces the same
#: emulation; this one amortizes per-block overhead without hurting
#: locality.  Builders take an explicit ``block=`` override.
BLOCK_ACCESSES = 4096


class AccessBlock:
    """A chunk of accesses as parallel ``int64`` arrays.

    ``addr[i]``/``flags[i]``/``gap[i]`` describe the same access as
    ``Access(addr, flags, gap)``; flag bits are those of
    :mod:`repro.cpu.memtrace` (bit 0 write, bit 1 dependent).  Any
    sequence of ints is accepted and coerced; a C-contiguous ``int64``
    array is kept as is (no copy).
    """

    __slots__ = ("addr", "flags", "gap")

    def __init__(self, addr, flags, gap) -> None:
        addr = np.ascontiguousarray(addr, dtype=np.int64)
        flags = np.ascontiguousarray(flags, dtype=np.int64)
        gap = np.ascontiguousarray(gap, dtype=np.int64)
        if not (addr.ndim == flags.ndim == gap.ndim == 1
                and addr.shape == flags.shape == gap.shape):
            raise ValueError("addr/flags/gap arrays must have equal length")
        self.addr = addr
        self.flags = flags
        self.gap = gap

    def __len__(self) -> int:
        return self.addr.shape[0]

    def accesses(self) -> Iterator[Access]:
        """The identical per-access view of this block (Python ints)."""
        for item in zip(self.addr.tolist(), self.flags.tolist(),
                        self.gap.tolist()):
            yield Access(*item)


class BlockTrace:
    """A single-use stream of :class:`AccessBlock` chunks.

    Iterating yields blocks; :meth:`accesses` yields the equivalent
    per-access stream.  Like generator traces, a ``BlockTrace`` can be
    consumed once.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[AccessBlock]) -> None:
        self._blocks = iter(blocks)

    def __iter__(self) -> Iterator[AccessBlock]:
        return self._blocks

    def accesses(self) -> Iterator[Access]:
        """Per-access compatibility view (consumes the trace)."""
        for block in self._blocks:
            yield from block.accesses()


class MaterializedBlocks:
    """A multi-shot block sequence: generate once, replay many times.

    A :class:`BlockTrace` is single-use, which is exactly right for the
    paper's one-pass artifacts — but multi-core workload mixes run every
    workload at least twice (once solo for the slowdown baseline, once
    under contention), and fairness sweeps re-run the same mix per
    scheduler.  Materializing the block arrays once and handing out
    fresh :class:`BlockTrace` views amortizes trace generation across
    all of those runs; the blocks themselves are immutable on the replay
    path (the processor and cache layers only read them), so sharing is
    safe.
    """

    __slots__ = ("blocks",)

    def __init__(self, trace: BlockTrace | Iterable[AccessBlock]) -> None:
        self.blocks = list(trace)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def accesses(self) -> int:
        """Total accesses across every block."""
        return sum(len(block) for block in self.blocks)

    def trace(self) -> BlockTrace:
        """A fresh single-use :class:`BlockTrace` view over the blocks."""
        return BlockTrace(iter(self.blocks))


def blockify(trace: Iterable[Access], block: int | None = None) -> BlockTrace:
    """Chunk any per-access trace into an equivalent :class:`BlockTrace`.

    Every block holds exactly ``block`` accesses except the last.  The
    built-in workloads build their blocks directly (and cut them at
    these same boundaries); this adapter serves hand-written traces,
    e.g. a test's list of accesses, and is how the tests cut the
    reference PolyBench generators.
    """
    size = block or BLOCK_ACCESSES

    def chunks() -> Iterator[AccessBlock]:
        accesses = iter(trace)
        while True:
            # One flat (addr, flags, gap, addr, ...) run per block.
            flat = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.islice(accesses, size)),
                np.int64)
            if not flat.shape[0]:
                return
            cols = flat.reshape(-1, 3).T
            yield AccessBlock(cols[0], cols[1], cols[2])

    return BlockTrace(chunks())


def from_builder(builder: Callable[[int], Iterator[AccessBlock]],
                 block: int | None = None) -> BlockTrace:
    """Wrap a block-size-parameterized builder into a :class:`BlockTrace`."""
    return BlockTrace(builder(block or BLOCK_ACCESSES))
