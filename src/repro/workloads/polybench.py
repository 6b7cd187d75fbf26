"""PolyBench kernels as array-native access-block builders.

The paper evaluates 28 PolyBench workloads (Sections 6 and 8).  Running
the real C kernels is impossible here, but the evaluation only consumes
their *memory access streams*, so each kernel is re-implemented as a
builder that walks the same loop nest and emits the loads/stores the
compiled kernel would issue (with register-allocated accumulators, i.e.
the innermost reduction variable stays in a register).

Builders compute addresses with NumPy rather than one access at a time.
A loop nest is described as *rows* (the outer loop indices, as index
arrays) and the *parts* of each row's body: single accesses and inner
loops, each access an address expression over the index arrays
(:func:`_nest`).  Rectangular nests become one broadcast; triangular
inner loops are padded to the longest row and masked; the few kernels
whose nests do not fit that shape keep a short Python loop over the
outermost index.  Arrays are built in slabs of at most :data:`_SLAB`
accesses and re-cut into :class:`~repro.cpu.blocks.AccessBlock` chunks
of exactly ``block`` accesses — the boundaries
:func:`~repro.cpu.blocks.blockify` gives a per-access stream — so memory
stays bounded at every size class.

Problem sizes are scaled down so full workloads finish in seconds of
host time; EXPERIMENTS.md records the scaling.  Three size classes are
provided (``mini`` < ``small`` < ``large``); experiments default to
``small`` and unit tests to ``mini``.

Every kernel is registered in :data:`KERNELS`; use :func:`trace_blocks`
to instantiate one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro.cpu.blocks import BLOCK_ACCESSES, AccessBlock, BlockTrace
from repro.cpu.memtrace import FLAG_WRITE

ELEM = 8  # sizeof(double)

#: Padding between arrays so they never share a cache line.
_PAD = 4096


@dataclass(frozen=True)
class Dims:
    """Scaled loop bounds for one size class."""

    n: int          # primary dimension
    m: int          # secondary dimension (defaults to n where unused)
    steps: int = 4  # time steps for stencils


SIZES = {
    "mini": Dims(n=20, m=24, steps=2),
    "small": Dims(n=44, m=52, steps=4),
    "large": Dims(n=72, m=84, steps=6),
}

#: Square dimension used by O(N^2) kernels (vectors/matrix-vector), which
#: can afford much larger footprints than O(N^3) kernels.
SIZES_2D = {
    "mini": Dims(n=96, m=96, steps=2),
    "small": Dims(n=320, m=320, steps=4),
    "large": Dims(n=512, m=512, steps=8),
}


class _Alloc:
    """Bump allocator laying arrays out in the physical address space."""

    def __init__(self, base: int = 1 << 20) -> None:
        self._next = base

    def matrix(self, rows: int, cols: int) -> "Mat":
        mat = Mat(self._next, cols)
        self._next += rows * cols * ELEM + _PAD
        return mat

    def vector(self, n: int) -> "Vec":
        vec = Vec(self._next)
        self._next += n * ELEM + _PAD
        return vec

    def cube(self, d1: int, d2: int, d3: int) -> "Cube":
        cube = Cube(self._next, d2, d3)
        self._next += d1 * d2 * d3 * ELEM + _PAD
        return cube


@dataclass(frozen=True)
class Mat:
    base: int
    cols: int

    def a(self, i, j):
        """Address of element ``[i][j]`` (elementwise on index arrays)."""
        return self.base + (i * self.cols + j) * ELEM


@dataclass(frozen=True)
class Vec:
    base: int

    def a(self, i):
        """Address of element ``[i]`` (elementwise on index arrays)."""
        return self.base + i * ELEM


@dataclass(frozen=True)
class Cube:
    base: int
    d2: int
    d3: int

    def a(self, i, j, k):
        """Address of element ``[i][j][k]`` (elementwise on index arrays)."""
        return self.base + ((i * self.d2 + j) * self.d3 + k) * ELEM


#: One built chunk of a trace: parallel ``addr``/``flags``/``gap`` arrays.
Chunk = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Upper bound on the accesses one :func:`_nest` slab materializes
#: (padding included); bigger nests are built a slab of rows at a time.
_SLAB = 1 << 16


class _Acc(NamedTuple):
    """One access of a loop body: ``fn`` maps index arrays to addresses."""

    fn: Callable[..., object]
    flags: int
    gap: int


class _Loop(NamedTuple):
    """An inner loop ``for k in range(lo, hi, step)`` over ``body``."""

    lo: object
    hi: object
    step: int
    body: tuple[_Acc, ...]


def _ld(fn: Callable[..., object], gap: int = 1) -> _Acc:
    return _Acc(fn, 0, gap)


def _st(fn: Callable[..., object], gap: int = 1) -> _Acc:
    return _Acc(fn, FLAG_WRITE, gap)


def _loop(lo, hi, *body: _Acc, step: int = 1) -> _Loop:
    """An inner loop; ``lo``/``hi`` are scalars or one bound per row."""
    return _Loop(lo, hi, step, body)


def _grid(*extents) -> tuple[np.ndarray, ...]:
    """Flattened indices of ``for i in range(a): for j in range(b): ...``.

    Each extent is a length or a ``range``.
    """
    axes = [np.arange(e.start, e.stop, e.step) if isinstance(e, range)
            else np.arange(e) for e in extents]
    return tuple(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))


def _nest(rows: tuple, *parts: _Acc | _Loop) -> Iterator[Chunk]:
    """Build a loop nest whose rows run ``parts`` in order.

    ``rows`` holds one index array per outer loop variable (all of one
    length, in loop order); an empty tuple is a single row.  A single
    access's ``fn`` takes the row indices; a loop body access's ``fn``
    takes the row indices and the inner index ``k``.  Each row is laid
    out in a fixed-width 2-D array with every loop padded to its longest
    row; rows with shorter (triangular) loops drop the padding through a
    mask, which keeps row-major order — exactly the loop nest's order.
    """
    rows = tuple(np.asarray(r, dtype=np.int64) for r in rows)
    nrows = len(rows[0]) if rows else 1
    if nrows == 0:
        return
    layout = []         # (part, first column, (lo, count) or None, longest)
    flags: list[int] = []
    gaps: list[int] = []
    ragged = False
    for part in parts:
        if isinstance(part, _Acc):
            layout.append((part, len(flags), None, 1))
            flags.append(part.flags)
            gaps.append(part.gap)
            continue
        # ``lo`` is a scalar or a column (one start per row); ``count``
        # is None when every row runs the loop ``longest`` times.
        lo, count = part.lo, None
        if np.ndim(part.lo) == 0 and np.ndim(part.hi) == 0:
            longest = max(0, (part.hi - part.lo) * part.step)
        else:
            lo = np.broadcast_to(part.lo, (nrows,))[:, None]
            hi = np.broadcast_to(part.hi, (nrows,))[:, None]
            count = np.maximum(0, (hi - lo) * part.step)
            longest = int(count.max())
            if (count == longest).all():
                count = None
            else:
                ragged = True
        if longest == 0:
            continue
        layout.append((part, len(flags), (lo, count), longest))
        flags.extend([acc.flags for acc in part.body] * longest)
        gaps.extend([acc.gap for acc in part.body] * longest)
    width = len(flags)
    if width == 0:
        return
    flag_row = np.array(flags, dtype=np.int64)
    gap_row = np.array(gaps, dtype=np.int64)
    per_slab = max(1, _SLAB // width)
    for r0 in range(0, nrows, per_slab):
        r1 = min(nrows, r0 + per_slab)
        sub = tuple(r[r0:r1] for r in rows)
        col_sub = tuple(r[:, None] for r in sub)
        addr = np.empty((r1 - r0, width), dtype=np.int64)
        mask = np.ones(addr.shape, dtype=bool) if ragged else None
        for part, col, inner, longest in layout:
            if inner is None:
                addr[:, col] = part.fn(*sub)
                continue
            lo, count = inner
            steps = np.arange(longest, dtype=np.int64)
            k = (lo if np.ndim(lo) == 0 else lo[r0:r1]) + part.step * steps
            span = len(part.body)
            stop = col + span * longest
            for offset, acc in enumerate(part.body):
                addr[:, col + offset:stop:span] = acc.fn(*col_sub, k)
            if count is not None:
                valid = steps < count[r0:r1]
                mask[:, col:stop] = np.repeat(valid, span, axis=1)
        if mask is None:
            nr = r1 - r0
            yield addr.ravel(), np.tile(flag_row, nr), np.tile(gap_row, nr)
        else:
            shape = addr.shape
            yield (addr[mask], np.broadcast_to(flag_row, shape)[mask],
                   np.broadcast_to(gap_row, shape)[mask])


def _cut(chunks: Iterator[Chunk], size: int) -> Iterator[AccessBlock]:
    """Re-cut built chunks into blocks of exactly ``size`` accesses.

    Every block but the last is full, as
    :func:`~repro.cpu.blocks.blockify` cuts a per-access stream.
    """
    pending: list[Chunk] = []
    have = 0
    for chunk in chunks:
        if not len(chunk[0]):
            continue
        pending.append(chunk)
        have += len(chunk[0])
        if have < size:
            continue
        addr, flags, gap = (np.concatenate(col) if len(pending) > 1
                            else col[0] for col in zip(*pending))
        full = have - have % size
        for s in range(0, full, size):
            yield AccessBlock(addr[s:s + size], flags[s:s + size],
                              gap[s:s + size])
        have -= full
        pending = ([(addr[full:].copy(), flags[full:].copy(),
                     gap[full:].copy())] if have else [])
    if have:
        addr, flags, gap = (np.concatenate(col) for col in zip(*pending))
        yield AccessBlock(addr, flags, gap)


KERNELS: dict[str, Callable[[Dims], Iterator[Chunk]]] = {}


def _kernel(name: str, sizes: dict[str, Dims] = SIZES):
    """Register a kernel's chunk builder under ``name``."""

    def wrap(fn: Callable[[Dims], Iterator[Chunk]]):
        fn.sizes = sizes  # type: ignore[attr-defined]
        KERNELS[name] = fn
        return fn

    return wrap


def names() -> list[str]:
    """All registered kernel names, sorted."""
    return sorted(KERNELS)


def trace_blocks(name: str, size: str = "small",
                 block: int | None = None) -> BlockTrace:
    """A kernel's memory trace as access blocks of ``block`` accesses
    (default :data:`~repro.cpu.blocks.BLOCK_ACCESSES`).

    Unknown names and size classes raise :class:`KeyError` here, before
    any block is built.
    """
    try:
        fn = KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown PolyBench kernel {name!r}; known: {', '.join(names())}"
        ) from None
    sizes = getattr(fn, "sizes", SIZES)
    try:
        dims = sizes[size]
    except KeyError:
        raise KeyError(f"unknown size class {size!r}; known: {sorted(sizes)}") from None
    return BlockTrace(_cut(fn(dims), block or BLOCK_ACCESSES))


# ---------------------------------------------------------------------------
# Linear algebra BLAS-like kernels (O(N^3))
# ---------------------------------------------------------------------------

@_kernel("gemm")
def _gemm(d: Dims) -> Iterator[Chunk]:
    """C = alpha*A*B + beta*C."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c = al.matrix(n, m), al.matrix(m, n), al.matrix(n, n)
    yield from _nest(_grid(n, n),
                     _ld(lambda i, j: c.a(i, j)),
                     _loop(0, m, _ld(lambda i, j, k: a.a(i, k)),
                           _ld(lambda i, j, k: b.a(k, j))),
                     _st(lambda i, j: c.a(i, j)))


@_kernel("2mm")
def _2mm(d: Dims) -> Iterator[Chunk]:
    """tmp = alpha*A*B; D = tmp*C + beta*D."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c, dd, tmp = (al.matrix(n, m), al.matrix(m, n), al.matrix(n, n),
                        al.matrix(n, n), al.matrix(n, n))
    yield from _nest(_grid(n, n),
                     _loop(0, m, _ld(lambda i, j, k: a.a(i, k)),
                           _ld(lambda i, j, k: b.a(k, j))),
                     _st(lambda i, j: tmp.a(i, j)))
    yield from _nest(_grid(n, n),
                     _ld(lambda i, j: dd.a(i, j)),
                     _loop(0, n, _ld(lambda i, j, k: tmp.a(i, k)),
                           _ld(lambda i, j, k: c.a(k, j))),
                     _st(lambda i, j: dd.a(i, j)))


@_kernel("3mm")
def _3mm(d: Dims) -> Iterator[Chunk]:
    """E = A*B; F = C*D; G = E*F."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c, dd = (al.matrix(n, m), al.matrix(m, n),
                   al.matrix(n, m), al.matrix(m, n))
    e, f, g = al.matrix(n, n), al.matrix(n, n), al.matrix(n, n)
    for dst, lhs, rhs, inner in ((e, a, b, m), (f, c, dd, m), (g, e, f, n)):
        yield from _nest(_grid(n, n),
                         _loop(0, inner, _ld(lambda i, j, k: lhs.a(i, k)),
                               _ld(lambda i, j, k: rhs.a(k, j))),
                         _st(lambda i, j: dst.a(i, j)))


@_kernel("syrk")
def _syrk(d: Dims) -> Iterator[Chunk]:
    """C = alpha*A*A^T + beta*C (lower triangle)."""
    n, m = d.n, d.m
    al = _Alloc()
    a, c = al.matrix(n, m), al.matrix(n, n)
    yield from _nest(np.tril_indices(n),
                     _ld(lambda i, j: c.a(i, j)),
                     _loop(0, m, _ld(lambda i, j, k: a.a(i, k)),
                           _ld(lambda i, j, k: a.a(j, k))),
                     _st(lambda i, j: c.a(i, j)))


@_kernel("syr2k")
def _syr2k(d: Dims) -> Iterator[Chunk]:
    """C = alpha*(A*B^T + B*A^T) + beta*C (lower triangle)."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c = al.matrix(n, m), al.matrix(n, m), al.matrix(n, n)
    yield from _nest(np.tril_indices(n),
                     _ld(lambda i, j: c.a(i, j)),
                     _loop(0, m, _ld(lambda i, j, k: a.a(i, k)),
                           _ld(lambda i, j, k: b.a(j, k)),
                           _ld(lambda i, j, k: b.a(i, k)),
                           _ld(lambda i, j, k: a.a(j, k))),
                     _st(lambda i, j: c.a(i, j)))


@_kernel("symm")
def _symm(d: Dims) -> Iterator[Chunk]:
    """C = alpha*A*B + beta*C with symmetric A."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c = al.matrix(n, n), al.matrix(n, m), al.matrix(n, m)
    i, j = _grid(n, m)
    yield from _nest((i, j),
                     _loop(0, i, _ld(lambda i, j, k: a.a(i, k)),
                           _ld(lambda i, j, k: b.a(k, j)),
                           _ld(lambda i, j, k: c.a(k, j)),
                           _st(lambda i, j, k: c.a(k, j))),
                     _ld(lambda i, j: b.a(i, j)),
                     _ld(lambda i, j: a.a(i, i)),
                     _ld(lambda i, j: c.a(i, j)),
                     _st(lambda i, j: c.a(i, j)))


@_kernel("trmm")
def _trmm(d: Dims) -> Iterator[Chunk]:
    """B = alpha*A^T*B with lower-triangular A."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b = al.matrix(n, n), al.matrix(n, m)
    i, j = _grid(n, m)
    yield from _nest((i, j),
                     _ld(lambda i, j: b.a(i, j)),
                     _loop(i + 1, n, _ld(lambda i, j, k: a.a(k, i)),
                           _ld(lambda i, j, k: b.a(k, j))),
                     _st(lambda i, j: b.a(i, j)))


@_kernel("doitgen")
def _doitgen(d: Dims) -> Iterator[Chunk]:
    """sum[p] = A[r][q][:]*C4[:][p] for all r, q."""
    r = q = max(8, d.n // 3)
    p = d.n
    al = _Alloc()
    a, c4, s = al.cube(r, q, p), al.matrix(p, p), al.vector(p)
    for rr in range(r):
        for qq in range(q):
            yield from _nest((np.arange(p),),
                             _loop(0, p, _ld(lambda pp, ss: a.a(rr, qq, ss)),
                                   _ld(lambda pp, ss: c4.a(ss, pp))),
                             _st(lambda pp: s.a(pp)))
            yield from _nest((np.arange(p),),
                             _ld(lambda pp: s.a(pp)),
                             _st(lambda pp: a.a(rr, qq, pp)))


# ---------------------------------------------------------------------------
# Matrix-vector kernels (O(N^2))
# ---------------------------------------------------------------------------

@_kernel("atax", SIZES_2D)
def _atax(d: Dims) -> Iterator[Chunk]:
    """y = A^T * (A * x)."""
    n, m = d.n, d.m
    al = _Alloc()
    a, x, y, tmp = al.matrix(n, m), al.vector(m), al.vector(m), al.vector(n)
    rows = (np.arange(n),)
    yield from _nest(rows,
                     _loop(0, m, _ld(lambda i, j: a.a(i, j)),
                           _ld(lambda i, j: x.a(j))),
                     _st(lambda i: tmp.a(i)))
    yield from _nest(rows,
                     _loop(0, m, _ld(lambda i, j: a.a(i, j)),
                           _ld(lambda i, j: y.a(j)),
                           _st(lambda i, j: y.a(j))),
                     _ld(lambda i: tmp.a(i)))


@_kernel("bicg", SIZES_2D)
def _bicg(d: Dims) -> Iterator[Chunk]:
    """s = A^T*r; q = A*p."""
    n, m = d.n, d.m
    al = _Alloc()
    a = al.matrix(n, m)
    s, q, p, r = al.vector(m), al.vector(n), al.vector(m), al.vector(n)
    yield from _nest((np.arange(n),),
                     _ld(lambda i: r.a(i)),
                     _loop(0, m, _ld(lambda i, j: s.a(j)),
                           _ld(lambda i, j: a.a(i, j)),
                           _st(lambda i, j: s.a(j)),
                           _ld(lambda i, j: a.a(i, j), gap=0),
                           _ld(lambda i, j: p.a(j))),
                     _st(lambda i: q.a(i)))


@_kernel("mvt", SIZES_2D)
def _mvt(d: Dims) -> Iterator[Chunk]:
    """x1 += A*y1; x2 += A^T*y2."""
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    x1, x2, y1, y2 = (al.vector(n) for _ in range(4))
    rows = (np.arange(n),)
    yield from _nest(rows,
                     _ld(lambda i: x1.a(i)),
                     _loop(0, n, _ld(lambda i, j: a.a(i, j)),
                           _ld(lambda i, j: y1.a(j))),
                     _st(lambda i: x1.a(i)))
    yield from _nest(rows,
                     _ld(lambda i: x2.a(i)),
                     _loop(0, n, _ld(lambda i, j: a.a(j, i)),
                           _ld(lambda i, j: y2.a(j))),
                     _st(lambda i: x2.a(i)))


@_kernel("gemver", SIZES_2D)
def _gemver(d: Dims) -> Iterator[Chunk]:
    """A += u1*v1^T + u2*v2^T; x = beta*A^T*y + z; w = alpha*A*x."""
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    u1, v1, u2, v2, x, y, z, w = (al.vector(n) for _ in range(8))
    rows = (np.arange(n),)
    yield from _nest(rows,
                     _ld(lambda i: u1.a(i)),
                     _ld(lambda i: u2.a(i)),
                     _loop(0, n, _ld(lambda i, j: a.a(i, j)),
                           _ld(lambda i, j: v1.a(j)),
                           _ld(lambda i, j: v2.a(j)),
                           _st(lambda i, j: a.a(i, j))))
    yield from _nest(rows,
                     _ld(lambda i: x.a(i)),
                     _loop(0, n, _ld(lambda i, j: a.a(j, i)),
                           _ld(lambda i, j: y.a(j))),
                     _st(lambda i: x.a(i)))
    yield from _nest(rows,
                     _ld(lambda i: x.a(i)),
                     _ld(lambda i: z.a(i)),
                     _st(lambda i: x.a(i)))
    yield from _nest(rows,
                     _loop(0, n, _ld(lambda i, j: a.a(i, j)),
                           _ld(lambda i, j: x.a(j))),
                     _st(lambda i: w.a(i)))


@_kernel("gesummv", SIZES_2D)
def _gesummv(d: Dims) -> Iterator[Chunk]:
    """y = alpha*A*x + beta*B*x."""
    n = d.n
    al = _Alloc()
    a, b = al.matrix(n, n), al.matrix(n, n)
    x, y = al.vector(n), al.vector(n)
    yield from _nest((np.arange(n),),
                     _loop(0, n, _ld(lambda i, j: a.a(i, j)),
                           _ld(lambda i, j: b.a(i, j)),
                           _ld(lambda i, j: x.a(j))),
                     _st(lambda i: y.a(i)))


# ---------------------------------------------------------------------------
# Solvers and decompositions
# ---------------------------------------------------------------------------

@_kernel("cholesky")
def _cholesky(d: Dims) -> Iterator[Chunk]:
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    for i in range(n):
        j = np.arange(i)
        yield from _nest((j,),
                         _ld(lambda j: a.a(i, j)),
                         _loop(0, j, _ld(lambda j, k: a.a(i, k)),
                               _ld(lambda j, k: a.a(j, k))),
                         _ld(lambda j: a.a(j, j)),
                         _st(lambda j: a.a(i, j)))
        yield from _nest((),
                         _ld(lambda: a.a(i, i)),
                         _loop(0, i, _ld(lambda k: a.a(i, k))),
                         _st(lambda: a.a(i, i)))


@_kernel("lu")
def _lu(d: Dims) -> Iterator[Chunk]:
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    yield from _lu_body(a, n)


def _lu_body(a: Mat, n: int) -> Iterator[Chunk]:
    for i in range(n):
        j = np.arange(i)
        yield from _nest((j,),
                         _ld(lambda j: a.a(i, j)),
                         _loop(0, j, _ld(lambda j, k: a.a(i, k)),
                               _ld(lambda j, k: a.a(k, j))),
                         _ld(lambda j: a.a(j, j)),
                         _st(lambda j: a.a(i, j)))
        yield from _nest((np.arange(i, n),),
                         _ld(lambda j: a.a(i, j)),
                         _loop(0, i, _ld(lambda j, k: a.a(i, k)),
                               _ld(lambda j, k: a.a(k, j))),
                         _st(lambda j: a.a(i, j)))


@_kernel("ludcmp")
def _ludcmp(d: Dims) -> Iterator[Chunk]:
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    b, x, y = al.vector(n), al.vector(n), al.vector(n)
    yield from _lu_body(a, n)
    i = np.arange(n)
    yield from _nest((i,),
                     _ld(lambda i: b.a(i)),
                     _loop(0, i, _ld(lambda i, j: a.a(i, j)),
                           _ld(lambda i, j: y.a(j))),
                     _st(lambda i: y.a(i)))
    i = np.arange(n - 1, -1, -1)
    yield from _nest((i,),
                     _ld(lambda i: y.a(i)),
                     _loop(i + 1, n, _ld(lambda i, j: a.a(i, j)),
                           _ld(lambda i, j: x.a(j))),
                     _ld(lambda i: a.a(i, i)),
                     _st(lambda i: x.a(i)))


@_kernel("trisolv", SIZES_2D)
def _trisolv(d: Dims) -> Iterator[Chunk]:
    """Lower-triangular solve L*x = b."""
    n = d.n
    al = _Alloc()
    lower = al.matrix(n, n)
    x, b = al.vector(n), al.vector(n)
    i = np.arange(n)
    yield from _nest((i,),
                     _ld(lambda i: b.a(i)),
                     _loop(0, i, _ld(lambda i, j: lower.a(i, j)),
                           _ld(lambda i, j: x.a(j))),
                     _ld(lambda i: lower.a(i, i)),
                     _st(lambda i: x.a(i)))


@_kernel("durbin", SIZES_2D)
def _durbin(d: Dims) -> Iterator[Chunk]:
    """Toeplitz solver; tiny footprint (the paper's least memory-intensive)."""
    n = d.n
    al = _Alloc()
    r, y, z = al.vector(n), al.vector(n), al.vector(n)
    yield from _nest((), _ld(lambda: r.a(0), gap=2), _st(lambda: y.a(0), gap=2))
    k = np.arange(1, n)
    yield from _nest((k,),
                     _ld(lambda k: r.a(k), gap=2),
                     _loop(0, k, _ld(lambda k, i: r.a(k - i - 1)),
                           _ld(lambda k, i: y.a(i))),
                     _loop(0, k, _ld(lambda k, i: y.a(i)),
                           _ld(lambda k, i: y.a(k - i - 1)),
                           _st(lambda k, i: z.a(i))),
                     _loop(0, k, _ld(lambda k, i: z.a(i)),
                           _st(lambda k, i: y.a(i))),
                     _st(lambda k: y.a(k), gap=2))


@_kernel("gramschmidt")
def _gramschmidt(d: Dims) -> Iterator[Chunk]:
    n, m = d.n, d.m
    al = _Alloc()
    a, r, q = al.matrix(m, n), al.matrix(n, n), al.matrix(m, n)
    for k in range(n):
        yield from _nest((),
                         _loop(0, m, _ld(lambda i: a.a(i, k))),
                         _st(lambda: r.a(k, k)),
                         _loop(0, m, _ld(lambda i: a.a(i, k)),
                               _st(lambda i: q.a(i, k))))
        yield from _nest((np.arange(k + 1, n),),
                         _loop(0, m, _ld(lambda j, i: q.a(i, k)),
                               _ld(lambda j, i: a.a(i, j))),
                         _st(lambda j: r.a(k, j)),
                         _loop(0, m, _ld(lambda j, i: a.a(i, j)),
                               _ld(lambda j, i: q.a(i, k)),
                               _ld(lambda j, i: r.a(k, j)),
                               _st(lambda j, i: a.a(i, j))))


# ---------------------------------------------------------------------------
# Data mining
# ---------------------------------------------------------------------------

@_kernel("correlation")
def _correlation(d: Dims) -> Iterator[Chunk]:
    n, m = d.m, d.n  # n data points, m attributes
    al = _Alloc()
    data = al.matrix(n, m)
    mean, stddev = al.vector(m), al.vector(m)
    corr = al.matrix(m, m)
    cols = (np.arange(m),)
    yield from _nest(cols,
                     _loop(0, n, _ld(lambda j, i: data.a(i, j))),
                     _st(lambda j: mean.a(j)))
    yield from _nest(cols,
                     _ld(lambda j: mean.a(j)),
                     _loop(0, n, _ld(lambda j, i: data.a(i, j))),
                     _st(lambda j: stddev.a(j)))
    yield from _nest((np.arange(n),),
                     _loop(0, m, _ld(lambda i, j: data.a(i, j)),
                           _ld(lambda i, j: mean.a(j)),
                           _ld(lambda i, j: stddev.a(j)),
                           _st(lambda i, j: data.a(i, j))))
    yield from _nest(np.triu_indices(m, 1),
                     _loop(0, n, _ld(lambda i, j, k: data.a(k, i)),
                           _ld(lambda i, j, k: data.a(k, j))),
                     _st(lambda i, j: corr.a(i, j)),
                     _st(lambda i, j: corr.a(j, i)))


@_kernel("covariance")
def _covariance(d: Dims) -> Iterator[Chunk]:
    n, m = d.m, d.n
    al = _Alloc()
    data = al.matrix(n, m)
    mean = al.vector(m)
    cov = al.matrix(m, m)
    yield from _nest((np.arange(m),),
                     _loop(0, n, _ld(lambda j, i: data.a(i, j))),
                     _st(lambda j: mean.a(j)))
    yield from _nest((np.arange(n),),
                     _loop(0, m, _ld(lambda i, j: data.a(i, j)),
                           _ld(lambda i, j: mean.a(j)),
                           _st(lambda i, j: data.a(i, j))))
    yield from _nest(np.triu_indices(m),
                     _loop(0, n, _ld(lambda i, j, k: data.a(k, i)),
                           _ld(lambda i, j, k: data.a(k, j))),
                     _st(lambda i, j: cov.a(i, j)),
                     _st(lambda i, j: cov.a(j, i)))


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------

_STENCIL_SIZES = {
    "mini": Dims(n=32, m=32, steps=2),
    "small": Dims(n=96, m=96, steps=4),
    "large": Dims(n=160, m=160, steps=8),
}


@_kernel("jacobi-1d", {
    "mini": Dims(n=2048, m=0, steps=4),
    "small": Dims(n=16384, m=0, steps=10),
    "large": Dims(n=65536, m=0, steps=16),
})
def _jacobi_1d(d: Dims) -> Iterator[Chunk]:
    n, t = d.n, d.steps
    al = _Alloc()
    a, b = al.vector(n), al.vector(n)
    rows = (np.arange(1, n - 1),)
    for _ in range(t):
        for src, dst in ((a, b), (b, a)):
            yield from _nest(rows,
                             _ld(lambda i: src.a(i - 1)),
                             _ld(lambda i: src.a(i), gap=0),
                             _ld(lambda i: src.a(i + 1), gap=0),
                             _st(lambda i: dst.a(i)))


@_kernel("jacobi-2d", _STENCIL_SIZES)
def _jacobi_2d(d: Dims) -> Iterator[Chunk]:
    n, t = d.n, d.steps
    al = _Alloc()
    a, b = al.matrix(n, n), al.matrix(n, n)
    rows = (np.arange(1, n - 1),)
    for _ in range(t):
        for src, dst in ((a, b), (b, a)):
            yield from _nest(rows,
                             _loop(1, n - 1,
                                   _ld(lambda i, j: src.a(i, j)),
                                   _ld(lambda i, j: src.a(i, j - 1), gap=0),
                                   _ld(lambda i, j: src.a(i, j + 1), gap=0),
                                   _ld(lambda i, j: src.a(i - 1, j), gap=0),
                                   _ld(lambda i, j: src.a(i + 1, j), gap=0),
                                   _st(lambda i, j: dst.a(i, j))))


@_kernel("seidel-2d", _STENCIL_SIZES)
def _seidel_2d(d: Dims) -> Iterator[Chunk]:
    n, t = d.n, d.steps
    al = _Alloc()
    a = al.matrix(n, n)
    # Bind each neighbour offset at definition time.
    window = [_ld(lambda i, j, di=di, dj=dj: a.a(i + di, j + dj), gap=0)
              for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    for _ in range(t):
        yield from _nest((np.arange(1, n - 1),),
                         _loop(1, n - 1, *window,
                               _st(lambda i, j: a.a(i, j), gap=2)))


@_kernel("fdtd-2d", _STENCIL_SIZES)
def _fdtd_2d(d: Dims) -> Iterator[Chunk]:
    n, t = d.n, d.steps
    al = _Alloc()
    ex, ey, hz = al.matrix(n, n), al.matrix(n, n), al.matrix(n, n)
    fict = al.vector(t)
    for step in range(t):
        yield from _nest((),
                         _ld(lambda: fict.a(step)),
                         _loop(0, n, _st(lambda j: ey.a(0, j))))
        yield from _nest((np.arange(1, n),),
                         _loop(0, n, _ld(lambda i, j: ey.a(i, j)),
                               _ld(lambda i, j: hz.a(i, j), gap=0),
                               _ld(lambda i, j: hz.a(i - 1, j), gap=0),
                               _st(lambda i, j: ey.a(i, j))))
        yield from _nest((np.arange(n),),
                         _loop(1, n, _ld(lambda i, j: ex.a(i, j)),
                               _ld(lambda i, j: hz.a(i, j), gap=0),
                               _ld(lambda i, j: hz.a(i, j - 1), gap=0),
                               _st(lambda i, j: ex.a(i, j))))
        yield from _nest((np.arange(n - 1),),
                         _loop(0, n - 1, _ld(lambda i, j: hz.a(i, j)),
                               _ld(lambda i, j: ex.a(i, j + 1), gap=0),
                               _ld(lambda i, j: ex.a(i, j), gap=0),
                               _ld(lambda i, j: ey.a(i + 1, j), gap=0),
                               _ld(lambda i, j: ey.a(i, j), gap=0),
                               _st(lambda i, j: hz.a(i, j))))


@_kernel("heat-3d", {
    "mini": Dims(n=12, m=12, steps=2),
    "small": Dims(n=20, m=20, steps=4),
    "large": Dims(n=32, m=32, steps=6),
})
def _heat_3d(d: Dims) -> Iterator[Chunk]:
    n, t = d.n, d.steps
    al = _Alloc()
    a, b = al.cube(n, n, n), al.cube(n, n, n)
    rows = _grid(range(1, n - 1), range(1, n - 1))
    for _ in range(t):
        for src, dst in ((a, b), (b, a)):
            yield from _nest(rows,
                             _loop(1, n - 1,
                                   _ld(lambda i, j, k: src.a(i - 1, j, k)),
                                   _ld(lambda i, j, k: src.a(i + 1, j, k), gap=0),
                                   _ld(lambda i, j, k: src.a(i, j - 1, k), gap=0),
                                   _ld(lambda i, j, k: src.a(i, j + 1, k), gap=0),
                                   _ld(lambda i, j, k: src.a(i, j, k - 1), gap=0),
                                   _ld(lambda i, j, k: src.a(i, j, k + 1), gap=0),
                                   _ld(lambda i, j, k: src.a(i, j, k), gap=0),
                                   _st(lambda i, j, k: dst.a(i, j, k))))


@_kernel("adi", _STENCIL_SIZES)
def _adi(d: Dims) -> Iterator[Chunk]:
    n, t = d.n, d.steps
    al = _Alloc()
    u, v, p, q = (al.matrix(n, n) for _ in range(4))
    rows = (np.arange(1, n - 1),)
    for _ in range(t):
        # Column sweep.
        yield from _nest(rows,
                         _st(lambda i: v.a(0, i)),
                         _st(lambda i: p.a(i, 0)),
                         _st(lambda i: q.a(i, 0)),
                         _loop(1, n - 1,
                               _ld(lambda i, j: p.a(i, j - 1)),
                               _ld(lambda i, j: u.a(j, i - 1), gap=0),
                               _ld(lambda i, j: u.a(j, i), gap=0),
                               _ld(lambda i, j: u.a(j, i + 1), gap=0),
                               _ld(lambda i, j: q.a(i, j - 1), gap=0),
                               _st(lambda i, j: p.a(i, j)),
                               _st(lambda i, j: q.a(i, j))),
                         _loop(n - 2, 0,
                               _ld(lambda i, j: p.a(i, j)),
                               _ld(lambda i, j: v.a(j + 1, i), gap=0),
                               _ld(lambda i, j: q.a(i, j), gap=0),
                               _st(lambda i, j: v.a(j, i)), step=-1))
        # Row sweep.
        yield from _nest(rows,
                         _st(lambda i: u.a(i, 0)),
                         _st(lambda i: p.a(i, 0)),
                         _st(lambda i: q.a(i, 0)),
                         _loop(1, n - 1,
                               _ld(lambda i, j: p.a(i, j - 1)),
                               _ld(lambda i, j: v.a(i - 1, j), gap=0),
                               _ld(lambda i, j: v.a(i, j), gap=0),
                               _ld(lambda i, j: v.a(i + 1, j), gap=0),
                               _ld(lambda i, j: q.a(i, j - 1), gap=0),
                               _st(lambda i, j: p.a(i, j)),
                               _st(lambda i, j: q.a(i, j))),
                         _loop(n - 2, 0,
                               _ld(lambda i, j: p.a(i, j)),
                               _ld(lambda i, j: u.a(i, j + 1), gap=0),
                               _ld(lambda i, j: q.a(i, j), gap=0),
                               _st(lambda i, j: u.a(i, j)), step=-1))


# ---------------------------------------------------------------------------
# Dynamic programming
# ---------------------------------------------------------------------------

@_kernel("nussinov")
def _nussinov(d: Dims) -> Iterator[Chunk]:
    n = d.n * 2
    al = _Alloc()
    seq = al.vector(n)
    table = al.matrix(n, n)
    # for i in range(n - 1, -1, -1): for j in range(i + 1, n).  Every
    # row has j >= 1 and i + 1 < n, so all three guarded updates run.
    i, j = np.triu_indices(n, 1)
    order = np.lexsort((j, -i))
    yield from _nest((i[order], j[order]),
                     _ld(lambda i, j: table.a(i, j)),
                     _ld(lambda i, j: table.a(i, j - 1), gap=0),
                     _st(lambda i, j: table.a(i, j)),
                     _ld(lambda i, j: table.a(i, j)),
                     _ld(lambda i, j: table.a(i + 1, j), gap=0),
                     _st(lambda i, j: table.a(i, j)),
                     _ld(lambda i, j: seq.a(i)),
                     _ld(lambda i, j: seq.a(j), gap=0),
                     _ld(lambda i, j: table.a(i, j), gap=0),
                     _ld(lambda i, j: table.a(i + 1, j - 1), gap=0),
                     _st(lambda i, j: table.a(i, j)),
                     _loop(i[order] + 1, j[order],
                           _ld(lambda i, j, k: table.a(i, j)),
                           _ld(lambda i, j, k: table.a(i, k), gap=0),
                           _ld(lambda i, j, k: table.a(k + 1, j), gap=0),
                           _st(lambda i, j, k: table.a(i, j))))


@_kernel("floyd-warshall", {
    "mini": Dims(n=24, m=24),
    "small": Dims(n=48, m=48),
    "large": Dims(n=80, m=80),
})
def _floyd_warshall(d: Dims) -> Iterator[Chunk]:
    n = d.n
    al = _Alloc()
    path = al.matrix(n, n)
    yield from _nest(_grid(n, n),
                     _loop(0, n, _ld(lambda k, i, j: path.a(i, j)),
                           _ld(lambda k, i, j: path.a(i, k), gap=0),
                           _ld(lambda k, i, j: path.a(k, j), gap=0),
                           _st(lambda k, i, j: path.a(i, j))))


@_kernel("deriche", _STENCIL_SIZES)
def _deriche(d: Dims) -> Iterator[Chunk]:
    """Deriche recursive edge filter (horizontal + vertical passes)."""
    w = h = d.n
    al = _Alloc()
    img_in, img_out, y1, y2 = (al.matrix(w, h) for _ in range(4))
    yield from _nest((np.arange(w),),
                     _loop(0, h, _ld(lambda i, j: img_in.a(i, j)),
                           _st(lambda i, j: y1.a(i, j))),
                     _loop(h - 1, -1, _ld(lambda i, j: img_in.a(i, j)),
                           _st(lambda i, j: y2.a(i, j)), step=-1),
                     _loop(0, h, _ld(lambda i, j: y1.a(i, j)),
                           _ld(lambda i, j: y2.a(i, j), gap=0),
                           _st(lambda i, j: img_out.a(i, j))))
    yield from _nest((np.arange(h),),
                     _loop(0, w, _ld(lambda j, i: img_out.a(i, j)),
                           _st(lambda j, i: y1.a(i, j))),
                     _loop(w - 1, -1, _ld(lambda j, i: img_out.a(i, j)),
                           _st(lambda j, i: y2.a(i, j)), step=-1),
                     _loop(0, w, _ld(lambda j, i: y1.a(i, j)),
                           _ld(lambda j, i: y2.a(i, j), gap=0),
                           _st(lambda j, i: img_out.a(i, j))))


#: The 11 kernels Figures 13/14 report individually.
FIG13_KERNELS = (
    "gemver", "mvt", "gesummv", "syrk", "symm", "correlation",
    "covariance", "trisolv", "gramschmidt", "gemm", "durbin",
)
