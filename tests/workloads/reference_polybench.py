"""Reference PolyBench loop-nest generators — the differential-test oracle.

The original per-access kernel generators, kept verbatim: each walks its
loop nest and yields one :class:`~repro.cpu.memtrace.Access` per load or
store.  :mod:`repro.workloads.polybench` builds the same streams as
NumPy access blocks; ``test_polybench_reference.py`` requires every
kernel at every size class to produce the identical ``(addr, flags,
gap)`` stream with the same block boundaries as :func:`blockify` over
these generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.cpu.memtrace import Access, load, store

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

    def a(self, i: int, j: int) -> int:
        return self.base + (i * self.cols + j) * ELEM


@dataclass(frozen=True)
class Vec:
    base: int

    def a(self, i: int) -> int:
        return self.base + i * ELEM


@dataclass(frozen=True)
class Cube:
    base: int
    d2: int
    d3: int

    def a(self, i: int, j: int, k: int) -> int:
        return self.base + ((i * self.d2 + j) * self.d3 + k) * ELEM


KERNELS: dict[str, Callable[[Dims], Iterator[Access]]] = {}


def _kernel(name: str, sizes: dict[str, Dims] = SIZES):
    """Register a kernel generator under ``name``."""

    def wrap(fn: Callable[[Dims], Iterator[Access]]):
        fn.sizes = sizes  # type: ignore[attr-defined]
        KERNELS[name] = fn
        return fn

    return wrap


def names() -> list[str]:
    """All registered kernel names, sorted."""
    return sorted(KERNELS)


def trace(name: str, size: str = "small") -> Iterator[Access]:
    """Instantiate a kernel's memory trace."""
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
    return fn(dims)


# ---------------------------------------------------------------------------
# Linear algebra BLAS-like kernels (O(N^3))
# ---------------------------------------------------------------------------

@_kernel("gemm")
def _gemm(d: Dims) -> Iterator[Access]:
    """C = alpha*A*B + beta*C."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c = al.matrix(n, m), al.matrix(m, n), al.matrix(n, n)
    for i in range(n):
        for j in range(n):
            yield load(c.a(i, j), gap=1)
            for k in range(m):
                yield load(a.a(i, k), gap=1)
                yield load(b.a(k, j), gap=1)
            yield store(c.a(i, j), gap=1)


@_kernel("2mm")
def _2mm(d: Dims) -> Iterator[Access]:
    """tmp = alpha*A*B; D = tmp*C + beta*D."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c, dd, tmp = (al.matrix(n, m), al.matrix(m, n), al.matrix(n, n),
                        al.matrix(n, n), al.matrix(n, n))
    for i in range(n):
        for j in range(n):
            for k in range(m):
                yield load(a.a(i, k), gap=1)
                yield load(b.a(k, j), gap=1)
            yield store(tmp.a(i, j), gap=1)
    for i in range(n):
        for j in range(n):
            yield load(dd.a(i, j), gap=1)
            for k in range(n):
                yield load(tmp.a(i, k), gap=1)
                yield load(c.a(k, j), gap=1)
            yield store(dd.a(i, j), gap=1)


@_kernel("3mm")
def _3mm(d: Dims) -> Iterator[Access]:
    """E = A*B; F = C*D; G = E*F."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c, dd = (al.matrix(n, m), al.matrix(m, n),
                   al.matrix(n, m), al.matrix(m, n))
    e, f, g = al.matrix(n, n), al.matrix(n, n), al.matrix(n, n)
    for dst, lhs, rhs, inner in ((e, a, b, m), (f, c, dd, m), (g, e, f, n)):
        for i in range(n):
            for j in range(n):
                for k in range(inner):
                    yield load(lhs.a(i, k), gap=1)
                    yield load(rhs.a(k, j), gap=1)
                yield store(dst.a(i, j), gap=1)


@_kernel("syrk")
def _syrk(d: Dims) -> Iterator[Access]:
    """C = alpha*A*A^T + beta*C (lower triangle)."""
    n, m = d.n, d.m
    al = _Alloc()
    a, c = al.matrix(n, m), al.matrix(n, n)
    for i in range(n):
        for j in range(i + 1):
            yield load(c.a(i, j), gap=1)
            for k in range(m):
                yield load(a.a(i, k), gap=1)
                yield load(a.a(j, k), gap=1)
            yield store(c.a(i, j), gap=1)


@_kernel("syr2k")
def _syr2k(d: Dims) -> Iterator[Access]:
    """C = alpha*(A*B^T + B*A^T) + beta*C (lower triangle)."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c = al.matrix(n, m), al.matrix(n, m), al.matrix(n, n)
    for i in range(n):
        for j in range(i + 1):
            yield load(c.a(i, j), gap=1)
            for k in range(m):
                yield load(a.a(i, k), gap=1)
                yield load(b.a(j, k), gap=1)
                yield load(b.a(i, k), gap=1)
                yield load(a.a(j, k), gap=1)
            yield store(c.a(i, j), gap=1)


@_kernel("symm")
def _symm(d: Dims) -> Iterator[Access]:
    """C = alpha*A*B + beta*C with symmetric A."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b, c = al.matrix(n, n), al.matrix(n, m), al.matrix(n, m)
    for i in range(n):
        for j in range(m):
            for k in range(i):
                yield load(a.a(i, k), gap=1)
                yield load(b.a(k, j), gap=1)
                yield load(c.a(k, j), gap=1)
                yield store(c.a(k, j), gap=1)
            yield load(b.a(i, j), gap=1)
            yield load(a.a(i, i), gap=1)
            yield load(c.a(i, j), gap=1)
            yield store(c.a(i, j), gap=1)


@_kernel("trmm")
def _trmm(d: Dims) -> Iterator[Access]:
    """B = alpha*A^T*B with lower-triangular A."""
    n, m = d.n, d.m
    al = _Alloc()
    a, b = al.matrix(n, n), al.matrix(n, m)
    for i in range(n):
        for j in range(m):
            yield load(b.a(i, j), gap=1)
            for k in range(i + 1, n):
                yield load(a.a(k, i), gap=1)
                yield load(b.a(k, j), gap=1)
            yield store(b.a(i, j), gap=1)


@_kernel("doitgen")
def _doitgen(d: Dims) -> Iterator[Access]:
    """sum[p] = A[r][q][:]*C4[:][p] for all r, q."""
    r = q = max(8, d.n // 3)
    p = d.n
    al = _Alloc()
    a, c4, s = al.cube(r, q, p), al.matrix(p, p), al.vector(p)
    for rr in range(r):
        for qq in range(q):
            for pp in range(p):
                for ss in range(p):
                    yield load(a.a(rr, qq, ss), gap=1)
                    yield load(c4.a(ss, pp), gap=1)
                yield store(s.a(pp), gap=1)
            for pp in range(p):
                yield load(s.a(pp), gap=1)
                yield store(a.a(rr, qq, pp), gap=1)


# ---------------------------------------------------------------------------
# Matrix-vector kernels (O(N^2))
# ---------------------------------------------------------------------------

@_kernel("atax", SIZES_2D)
def _atax(d: Dims) -> Iterator[Access]:
    """y = A^T * (A * x)."""
    n, m = d.n, d.m
    al = _Alloc()
    a, x, y, tmp = al.matrix(n, m), al.vector(m), al.vector(m), al.vector(n)
    for i in range(n):
        for j in range(m):
            yield load(a.a(i, j), gap=1)
            yield load(x.a(j), gap=1)
        yield store(tmp.a(i), gap=1)
    for i in range(n):
        for j in range(m):
            yield load(a.a(i, j), gap=1)
            yield load(y.a(j), gap=1)
            yield store(y.a(j), gap=1)
        yield load(tmp.a(i), gap=1)


@_kernel("bicg", SIZES_2D)
def _bicg(d: Dims) -> Iterator[Access]:
    """s = A^T*r; q = A*p."""
    n, m = d.n, d.m
    al = _Alloc()
    a = al.matrix(n, m)
    s, q, p, r = al.vector(m), al.vector(n), al.vector(m), al.vector(n)
    for i in range(n):
        yield load(r.a(i), gap=1)
        for j in range(m):
            yield load(s.a(j), gap=1)
            yield load(a.a(i, j), gap=1)
            yield store(s.a(j), gap=1)
            yield load(a.a(i, j), gap=0)
            yield load(p.a(j), gap=1)
        yield store(q.a(i), gap=1)


@_kernel("mvt", SIZES_2D)
def _mvt(d: Dims) -> Iterator[Access]:
    """x1 += A*y1; x2 += A^T*y2."""
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    x1, x2, y1, y2 = (al.vector(n) for _ in range(4))
    for i in range(n):
        yield load(x1.a(i), gap=1)
        for j in range(n):
            yield load(a.a(i, j), gap=1)
            yield load(y1.a(j), gap=1)
        yield store(x1.a(i), gap=1)
    for i in range(n):
        yield load(x2.a(i), gap=1)
        for j in range(n):
            yield load(a.a(j, i), gap=1)
            yield load(y2.a(j), gap=1)
        yield store(x2.a(i), gap=1)


@_kernel("gemver", SIZES_2D)
def _gemver(d: Dims) -> Iterator[Access]:
    """A += u1*v1^T + u2*v2^T; x = beta*A^T*y + z; w = alpha*A*x."""
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    u1, v1, u2, v2, x, y, z, w = (al.vector(n) for _ in range(8))
    for i in range(n):
        yield load(u1.a(i), gap=1)
        yield load(u2.a(i), gap=1)
        for j in range(n):
            yield load(a.a(i, j), gap=1)
            yield load(v1.a(j), gap=1)
            yield load(v2.a(j), gap=1)
            yield store(a.a(i, j), gap=1)
    for i in range(n):
        yield load(x.a(i), gap=1)
        for j in range(n):
            yield load(a.a(j, i), gap=1)
            yield load(y.a(j), gap=1)
        yield store(x.a(i), gap=1)
    for i in range(n):
        yield load(x.a(i), gap=1)
        yield load(z.a(i), gap=1)
        yield store(x.a(i), gap=1)
    for i in range(n):
        for j in range(n):
            yield load(a.a(i, j), gap=1)
            yield load(x.a(j), gap=1)
        yield store(w.a(i), gap=1)


@_kernel("gesummv", SIZES_2D)
def _gesummv(d: Dims) -> Iterator[Access]:
    """y = alpha*A*x + beta*B*x."""
    n = d.n
    al = _Alloc()
    a, b = al.matrix(n, n), al.matrix(n, n)
    x, y = al.vector(n), al.vector(n)
    for i in range(n):
        for j in range(n):
            yield load(a.a(i, j), gap=1)
            yield load(b.a(i, j), gap=1)
            yield load(x.a(j), gap=1)
        yield store(y.a(i), gap=1)


# ---------------------------------------------------------------------------
# Solvers and decompositions
# ---------------------------------------------------------------------------

@_kernel("cholesky")
def _cholesky(d: Dims) -> Iterator[Access]:
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    for i in range(n):
        for j in range(i):
            yield load(a.a(i, j), gap=1)
            for k in range(j):
                yield load(a.a(i, k), gap=1)
                yield load(a.a(j, k), gap=1)
            yield load(a.a(j, j), gap=1)
            yield store(a.a(i, j), gap=1)
        yield load(a.a(i, i), gap=1)
        for k in range(i):
            yield load(a.a(i, k), gap=1)
        yield store(a.a(i, i), gap=1)


@_kernel("lu")
def _lu(d: Dims) -> Iterator[Access]:
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    for i in range(n):
        for j in range(i):
            yield load(a.a(i, j), gap=1)
            for k in range(j):
                yield load(a.a(i, k), gap=1)
                yield load(a.a(k, j), gap=1)
            yield load(a.a(j, j), gap=1)
            yield store(a.a(i, j), gap=1)
        for j in range(i, n):
            yield load(a.a(i, j), gap=1)
            for k in range(i):
                yield load(a.a(i, k), gap=1)
                yield load(a.a(k, j), gap=1)
            yield store(a.a(i, j), gap=1)


@_kernel("ludcmp")
def _ludcmp(d: Dims) -> Iterator[Access]:
    n = d.n
    al = _Alloc()
    a = al.matrix(n, n)
    b, x, y = al.vector(n), al.vector(n), al.vector(n)
    yield from _lu_body(a, n)
    for i in range(n):
        yield load(b.a(i), gap=1)
        for j in range(i):
            yield load(a.a(i, j), gap=1)
            yield load(y.a(j), gap=1)
        yield store(y.a(i), gap=1)
    for i in range(n - 1, -1, -1):
        yield load(y.a(i), gap=1)
        for j in range(i + 1, n):
            yield load(a.a(i, j), gap=1)
            yield load(x.a(j), gap=1)
        yield load(a.a(i, i), gap=1)
        yield store(x.a(i), gap=1)


def _lu_body(a: Mat, n: int) -> Iterator[Access]:
    for i in range(n):
        for j in range(i):
            yield load(a.a(i, j), gap=1)
            for k in range(j):
                yield load(a.a(i, k), gap=1)
                yield load(a.a(k, j), gap=1)
            yield load(a.a(j, j), gap=1)
            yield store(a.a(i, j), gap=1)
        for j in range(i, n):
            yield load(a.a(i, j), gap=1)
            for k in range(i):
                yield load(a.a(i, k), gap=1)
                yield load(a.a(k, j), gap=1)
            yield store(a.a(i, j), gap=1)


@_kernel("trisolv", SIZES_2D)
def _trisolv(d: Dims) -> Iterator[Access]:
    """Lower-triangular solve L*x = b."""
    n = d.n
    al = _Alloc()
    lower = al.matrix(n, n)
    x, b = al.vector(n), al.vector(n)
    for i in range(n):
        yield load(b.a(i), gap=1)
        for j in range(i):
            yield load(lower.a(i, j), gap=1)
            yield load(x.a(j), gap=1)
        yield load(lower.a(i, i), gap=1)
        yield store(x.a(i), gap=1)


@_kernel("durbin", SIZES_2D)
def _durbin(d: Dims) -> Iterator[Access]:
    """Toeplitz solver; tiny footprint (the paper's least memory-intensive)."""
    n = d.n
    al = _Alloc()
    r, y, z = al.vector(n), al.vector(n), al.vector(n)
    yield load(r.a(0), gap=2)
    yield store(y.a(0), gap=2)
    for k in range(1, n):
        yield load(r.a(k), gap=2)
        for i in range(k):
            yield load(r.a(k - i - 1), gap=1)
            yield load(y.a(i), gap=1)
        for i in range(k):
            yield load(y.a(i), gap=1)
            yield load(y.a(k - i - 1), gap=1)
            yield store(z.a(i), gap=1)
        for i in range(k):
            yield load(z.a(i), gap=1)
            yield store(y.a(i), gap=1)
        yield store(y.a(k), gap=2)


@_kernel("gramschmidt")
def _gramschmidt(d: Dims) -> Iterator[Access]:
    n, m = d.n, d.m
    al = _Alloc()
    a, r, q = al.matrix(m, n), al.matrix(n, n), al.matrix(m, n)
    for k in range(n):
        for i in range(m):
            yield load(a.a(i, k), gap=1)
        yield store(r.a(k, k), gap=1)
        for i in range(m):
            yield load(a.a(i, k), gap=1)
            yield store(q.a(i, k), gap=1)
        for j in range(k + 1, n):
            for i in range(m):
                yield load(q.a(i, k), gap=1)
                yield load(a.a(i, j), gap=1)
            yield store(r.a(k, j), gap=1)
            for i in range(m):
                yield load(a.a(i, j), gap=1)
                yield load(q.a(i, k), gap=1)
                yield load(r.a(k, j), gap=1)
                yield store(a.a(i, j), gap=1)


# ---------------------------------------------------------------------------
# Data mining
# ---------------------------------------------------------------------------

@_kernel("correlation")
def _correlation(d: Dims) -> Iterator[Access]:
    n, m = d.m, d.n  # n data points, m attributes
    al = _Alloc()
    data = al.matrix(n, m)
    mean, stddev = al.vector(m), al.vector(m)
    corr = al.matrix(m, m)
    for j in range(m):
        for i in range(n):
            yield load(data.a(i, j), gap=1)
        yield store(mean.a(j), gap=1)
    for j in range(m):
        yield load(mean.a(j), gap=1)
        for i in range(n):
            yield load(data.a(i, j), gap=1)
        yield store(stddev.a(j), gap=1)
    for i in range(n):
        for j in range(m):
            yield load(data.a(i, j), gap=1)
            yield load(mean.a(j), gap=1)
            yield load(stddev.a(j), gap=1)
            yield store(data.a(i, j), gap=1)
    for i in range(m - 1):
        for j in range(i + 1, m):
            for k in range(n):
                yield load(data.a(k, i), gap=1)
                yield load(data.a(k, j), gap=1)
            yield store(corr.a(i, j), gap=1)
            yield store(corr.a(j, i), gap=1)


@_kernel("covariance")
def _covariance(d: Dims) -> Iterator[Access]:
    n, m = d.m, d.n
    al = _Alloc()
    data = al.matrix(n, m)
    mean = al.vector(m)
    cov = al.matrix(m, m)
    for j in range(m):
        for i in range(n):
            yield load(data.a(i, j), gap=1)
        yield store(mean.a(j), gap=1)
    for i in range(n):
        for j in range(m):
            yield load(data.a(i, j), gap=1)
            yield load(mean.a(j), gap=1)
            yield store(data.a(i, j), gap=1)
    for i in range(m):
        for j in range(i, m):
            for k in range(n):
                yield load(data.a(k, i), gap=1)
                yield load(data.a(k, j), gap=1)
            yield store(cov.a(i, j), gap=1)
            yield store(cov.a(j, i), gap=1)


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
def _jacobi_1d(d: Dims) -> Iterator[Access]:
    n, t = d.n, d.steps
    al = _Alloc()
    a, b = al.vector(n), al.vector(n)
    for _ in range(t):
        for i in range(1, n - 1):
            yield load(a.a(i - 1), gap=1)
            yield load(a.a(i), gap=0)
            yield load(a.a(i + 1), gap=0)
            yield store(b.a(i), gap=1)
        for i in range(1, n - 1):
            yield load(b.a(i - 1), gap=1)
            yield load(b.a(i), gap=0)
            yield load(b.a(i + 1), gap=0)
            yield store(a.a(i), gap=1)


@_kernel("jacobi-2d", _STENCIL_SIZES)
def _jacobi_2d(d: Dims) -> Iterator[Access]:
    n, t = d.n, d.steps
    al = _Alloc()
    a, b = al.matrix(n, n), al.matrix(n, n)
    for _ in range(t):
        for src, dst in ((a, b), (b, a)):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    yield load(src.a(i, j), gap=1)
                    yield load(src.a(i, j - 1), gap=0)
                    yield load(src.a(i, j + 1), gap=0)
                    yield load(src.a(i - 1, j), gap=0)
                    yield load(src.a(i + 1, j), gap=0)
                    yield store(dst.a(i, j), gap=1)


@_kernel("seidel-2d", _STENCIL_SIZES)
def _seidel_2d(d: Dims) -> Iterator[Access]:
    n, t = d.n, d.steps
    al = _Alloc()
    a = al.matrix(n, n)
    for _ in range(t):
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        yield load(a.a(i + di, j + dj), gap=0)
                yield store(a.a(i, j), gap=2)


@_kernel("fdtd-2d", _STENCIL_SIZES)
def _fdtd_2d(d: Dims) -> Iterator[Access]:
    n, t = d.n, d.steps
    al = _Alloc()
    ex, ey, hz = al.matrix(n, n), al.matrix(n, n), al.matrix(n, n)
    fict = al.vector(t)
    for step in range(t):
        yield load(fict.a(step), gap=1)
        for j in range(n):
            yield store(ey.a(0, j), gap=1)
        for i in range(1, n):
            for j in range(n):
                yield load(ey.a(i, j), gap=1)
                yield load(hz.a(i, j), gap=0)
                yield load(hz.a(i - 1, j), gap=0)
                yield store(ey.a(i, j), gap=1)
        for i in range(n):
            for j in range(1, n):
                yield load(ex.a(i, j), gap=1)
                yield load(hz.a(i, j), gap=0)
                yield load(hz.a(i, j - 1), gap=0)
                yield store(ex.a(i, j), gap=1)
        for i in range(n - 1):
            for j in range(n - 1):
                yield load(hz.a(i, j), gap=1)
                yield load(ex.a(i, j + 1), gap=0)
                yield load(ex.a(i, j), gap=0)
                yield load(ey.a(i + 1, j), gap=0)
                yield load(ey.a(i, j), gap=0)
                yield store(hz.a(i, j), gap=1)


@_kernel("heat-3d", {
    "mini": Dims(n=12, m=12, steps=2),
    "small": Dims(n=20, m=20, steps=4),
    "large": Dims(n=32, m=32, steps=6),
})
def _heat_3d(d: Dims) -> Iterator[Access]:
    n, t = d.n, d.steps
    al = _Alloc()
    a, b = al.cube(n, n, n), al.cube(n, n, n)
    for _ in range(t):
        for src, dst in ((a, b), (b, a)):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    for k in range(1, n - 1):
                        yield load(src.a(i - 1, j, k), gap=1)
                        yield load(src.a(i + 1, j, k), gap=0)
                        yield load(src.a(i, j - 1, k), gap=0)
                        yield load(src.a(i, j + 1, k), gap=0)
                        yield load(src.a(i, j, k - 1), gap=0)
                        yield load(src.a(i, j, k + 1), gap=0)
                        yield load(src.a(i, j, k), gap=0)
                        yield store(dst.a(i, j, k), gap=1)


@_kernel("adi", _STENCIL_SIZES)
def _adi(d: Dims) -> Iterator[Access]:
    n, t = d.n, d.steps
    al = _Alloc()
    u, v, p, q = (al.matrix(n, n) for _ in range(4))
    for _ in range(t):
        # Column sweep.
        for i in range(1, n - 1):
            yield store(v.a(0, i), gap=1)
            yield store(p.a(i, 0), gap=1)
            yield store(q.a(i, 0), gap=1)
            for j in range(1, n - 1):
                yield load(p.a(i, j - 1), gap=1)
                yield load(u.a(j, i - 1), gap=0)
                yield load(u.a(j, i), gap=0)
                yield load(u.a(j, i + 1), gap=0)
                yield load(q.a(i, j - 1), gap=0)
                yield store(p.a(i, j), gap=1)
                yield store(q.a(i, j), gap=1)
            for j in range(n - 2, 0, -1):
                yield load(p.a(i, j), gap=1)
                yield load(v.a(j + 1, i), gap=0)
                yield load(q.a(i, j), gap=0)
                yield store(v.a(j, i), gap=1)
        # Row sweep.
        for i in range(1, n - 1):
            yield store(u.a(i, 0), gap=1)
            yield store(p.a(i, 0), gap=1)
            yield store(q.a(i, 0), gap=1)
            for j in range(1, n - 1):
                yield load(p.a(i, j - 1), gap=1)
                yield load(v.a(i - 1, j), gap=0)
                yield load(v.a(i, j), gap=0)
                yield load(v.a(i + 1, j), gap=0)
                yield load(q.a(i, j - 1), gap=0)
                yield store(p.a(i, j), gap=1)
                yield store(q.a(i, j), gap=1)
            for j in range(n - 2, 0, -1):
                yield load(p.a(i, j), gap=1)
                yield load(u.a(i, j + 1), gap=0)
                yield load(q.a(i, j), gap=0)
                yield store(u.a(i, j), gap=1)


# ---------------------------------------------------------------------------
# Dynamic programming
# ---------------------------------------------------------------------------

@_kernel("nussinov")
def _nussinov(d: Dims) -> Iterator[Access]:
    n = d.n * 2
    al = _Alloc()
    seq = al.vector(n)
    table = al.matrix(n, n)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if j - 1 >= 0:
                yield load(table.a(i, j), gap=1)
                yield load(table.a(i, j - 1), gap=0)
                yield store(table.a(i, j), gap=1)
            if i + 1 < n:
                yield load(table.a(i, j), gap=1)
                yield load(table.a(i + 1, j), gap=0)
                yield store(table.a(i, j), gap=1)
            if j - 1 >= 0 and i + 1 < n:
                yield load(seq.a(i), gap=1)
                yield load(seq.a(j), gap=0)
                yield load(table.a(i, j), gap=0)
                yield load(table.a(i + 1, j - 1), gap=0)
                yield store(table.a(i, j), gap=1)
            for k in range(i + 1, j):
                yield load(table.a(i, j), gap=1)
                yield load(table.a(i, k), gap=0)
                yield load(table.a(k + 1, j), gap=0)
                yield store(table.a(i, j), gap=1)


@_kernel("floyd-warshall", {
    "mini": Dims(n=24, m=24),
    "small": Dims(n=48, m=48),
    "large": Dims(n=80, m=80),
})
def _floyd_warshall(d: Dims) -> Iterator[Access]:
    n = d.n
    al = _Alloc()
    path = al.matrix(n, n)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                yield load(path.a(i, j), gap=1)
                yield load(path.a(i, k), gap=0)
                yield load(path.a(k, j), gap=0)
                yield store(path.a(i, j), gap=1)


@_kernel("deriche", _STENCIL_SIZES)
def _deriche(d: Dims) -> Iterator[Access]:
    """Deriche recursive edge filter (horizontal + vertical passes)."""
    w = h = d.n
    al = _Alloc()
    img_in, img_out, y1, y2 = (al.matrix(w, h) for _ in range(4))
    for i in range(w):
        for j in range(h):
            yield load(img_in.a(i, j), gap=1)
            yield store(y1.a(i, j), gap=1)
        for j in range(h - 1, -1, -1):
            yield load(img_in.a(i, j), gap=1)
            yield store(y2.a(i, j), gap=1)
        for j in range(h):
            yield load(y1.a(i, j), gap=1)
            yield load(y2.a(i, j), gap=0)
            yield store(img_out.a(i, j), gap=1)
    for j in range(h):
        for i in range(w):
            yield load(img_out.a(i, j), gap=1)
            yield store(y1.a(i, j), gap=1)
        for i in range(w - 1, -1, -1):
            yield load(img_out.a(i, j), gap=1)
            yield store(y2.a(i, j), gap=1)
        for i in range(w):
            yield load(y1.a(i, j), gap=1)
            yield load(y2.a(i, j), gap=0)
            yield store(img_out.a(i, j), gap=1)


#: The 11 kernels Figures 13/14 report individually.
FIG13_KERNELS = (
    "gemver", "mvt", "gesummv", "syrk", "symm", "correlation",
    "covariance", "trisolv", "gramschmidt", "gemm", "durbin",
)
