"""Memory-access records: the vocabulary of every trace.

Workloads store accesses as the parallel arrays of
:class:`~repro.cpu.blocks.AccessBlock` chunks.  This module defines the
flag bits those arrays use and the one-access :class:`Access` tuple,
built with :func:`load`/:func:`store` for hand-written traces (which
:func:`~repro.cpu.blocks.blockify` turns into blocks).  Each access
carries:

``addr``
    physical byte address;
``flags``
    bit 0 — write, bit 1 — *dependent* (the access cannot issue until all
    earlier outstanding misses resolve; pointer chases set this);
``gap``
    compute cycles the core spends before this access (emulated processor
    cycles at the *modeled* frequency — time scaling maps them).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

FLAG_WRITE = 1
FLAG_DEPENDENT = 2


class Access(NamedTuple):
    """One memory access in a workload trace."""

    addr: int
    flags: int
    gap: int

    @property
    def is_write(self) -> bool:
        return bool(self.flags & FLAG_WRITE)

    @property
    def is_dependent(self) -> bool:
        return bool(self.flags & FLAG_DEPENDENT)


def load(addr: int, gap: int = 0, dependent: bool = False) -> Access:
    """Build a read access."""
    return Access(addr, FLAG_DEPENDENT if dependent else 0, gap)


def store(addr: int, gap: int = 0) -> Access:
    """Build a write access."""
    return Access(addr, FLAG_WRITE, gap)


Trace = Iterable[Access]
