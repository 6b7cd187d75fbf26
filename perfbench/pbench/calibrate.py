"""A fixed reference loop that reads the host's speed of the moment.

On a shared VM the host's CPU speed drifts under a quiet process, in
stretches from a fraction of a second to minutes (perfbench/README.md,
"Why reference units").  A wall time taken alone then moves with the
host as much as with the program.  The benchmark times this loop right
before each op (each serve window) and reports the op's wall time in
multiples of it: a host slowdown stretches both, and the ratio stays.

The loop is the benchmark's own code and never calls the program, so a
change to the program cannot move it.  Its three parts stand for what
the program's ops spend their time on: interpreter work on a dict and
ints, a pass over a buffer, and attribute access on a few MiB of
small objects visited in a scattered order.  Their data is built once,
when this module is imported, and the loop allocates nothing of size, so
how much the program has allocated cannot lengthen it.  It takes about
30–35 ms on the 2-vCPU VM the benchmark was written on.
"""

from __future__ import annotations

import gc
import time

#: Iterations of the interpreter part, over a dict of this many keys.
LOOP_ITERATIONS = 10_000
TABLE_KEYS = 1 << 13
#: Bytes of the memory part's buffer, and the stride of its reads.
BUFFER_BYTES = 4 << 20
READ_BYTES = 4096
STRIDE = 4 * READ_BYTES
#: Objects in the object part, and the fixed scattered order it visits
#: them in (a multiplicative step coprime to the count).
OBJECTS = 25_000
VISIT_ORDER = tuple((i * 7_919) % OBJECTS for i in range(OBJECTS))


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        self.c = 0


_TABLE = dict.fromkeys(range(TABLE_KEYS), 0)
_BUFFER = bytes(range(256)) * (BUFFER_BYTES // 256)
_CELLS = [_Cell(i, OBJECTS - i) for i in range(OBJECTS)]


def _interpreter(n: int = LOOP_ITERATIONS) -> int:
    table = _TABLE
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & (TABLE_KEYS - 1)
        table[key] = (table[key] + i) & 0xFFFF
        acc ^= (acc << 1) & 0xFFFFFFFF ^ key
    return acc


def _memory() -> int:
    buffer = _BUFFER
    return sum(sum(buffer[off:off + READ_BYTES])
               for off in range(0, BUFFER_BYTES, STRIDE))


def _objects() -> int:
    cells = _CELLS
    total = 0
    for i in VISIT_ORDER:
        cell = cells[i]
        cell.c = cell.a + cell.b
        total += cell.c
    return total


def reference_s() -> float:
    """Wall seconds of one reference loop, with the cyclic collector off
    so the program's live objects cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _interpreter()
        _memory()
        _objects()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
