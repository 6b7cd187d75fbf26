"""Compile and load the C batch kernel (gcc + ctypes).

The container bakes in a C toolchain but no numba/Cython, so the
compiled backend is plain C: :func:`load` renders the layout
``#define`` header from :mod:`repro.dram.kernel.state`, prepends it to
``kernel.c``, and builds a shared object with ``cc -O2 -shared -fPIC``
into a source-hash-keyed cache under ``_cache/`` (gitignored).  A warm
cache makes load a single ``dlopen``.

Everything degrades gracefully: no compiler, a failed compile, or a
stale ABI all surface as ``(None, reason)`` so the caller disengages
the kernel and the flat closures serve every batch.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.dram.kernel import state

#: Bumped when the entry-point contract changes; checked against the
#: compiled object's ``repro_abi_version`` so a stale cached build from
#: an older checkout can never be called with the wrong layout.
ABI_VERSION = 9

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "kernel.c"
_CACHE_DIR = _HERE / "_cache"

#: Load outcome, memoized for the process: (lib or None, reason string,
#: info dict for the bench/profile layers).
_loaded: tuple | None = None


class CKernel:
    """The loaded shared object with typed entry points."""

    def __init__(self, lib: ctypes.CDLL, info: dict) -> None:
        self.lib = lib
        self.info = info
        # Pointers are passed as plain addresses (``ndarray.ctypes.data``);
        # the slot tables are int64 arrays of buffer addresses.
        lib.repro_serve_batch.argtypes = [ctypes.c_void_p]
        lib.repro_run_cores.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        for fn in (lib.repro_serve_batch, lib.repro_run_cores):
            fn.restype = ctypes.c_int64
        self.serve_batch = lib.repro_serve_batch
        self.run_cores = lib.repro_run_cores
        lib.repro_flush_lines.argtypes = (
            [ctypes.c_void_p] * 6 + [ctypes.c_int64] * 4 + [ctypes.c_void_p])
        lib.repro_flush_lines.restype = ctypes.c_int64
        self.flush_lines = lib.repro_flush_lines
        lib.repro_shuffle.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                                      ctypes.c_void_p, ctypes.c_int64]
        lib.repro_shuffle.restype = ctypes.c_int64
        self._shuffle = lib.repro_shuffle

    def shuffle(self, x, seed) -> None:
        """``random.Random(seed).shuffle(x)`` on a C-contiguous int64
        ndarray, in place and bit-exact, for ``len(x) < 2**32``."""
        if (x.dtype != np.int64 or not x.flags.c_contiguous
                or not x.flags.writeable or len(x) >= 1 << 32):
            raise ValueError("shuffle needs a writable C-contiguous int64"
                             " array of fewer than 2**32 items")
        state = random.Random(seed).getstate()[1]
        mt = np.array(state[:624], dtype=np.int64)
        self._shuffle(mt.ctypes.data, state[624], x.ctypes.data, len(x))


def compiler() -> list[str] | None:
    """The C compiler command, or ``None`` when unavailable."""
    override = os.environ.get("REPRO_CC", "")
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for cand in candidates:
        try:
            subprocess.run([cand, "--version"], capture_output=True,
                           check=True, timeout=30)
            return [cand]
        except (OSError, subprocess.SubprocessError):
            continue
    return None


def compiler_version(cmd: list[str] | None = None) -> str:
    """First line of ``cc --version`` (bench provenance)."""
    cmd = cmd if cmd is not None else compiler()
    if cmd is None:
        return "unavailable"
    try:
        out = subprocess.run(cmd + ["--version"], capture_output=True,
                             check=True, timeout=30, text=True).stdout
        return out.splitlines()[0].strip() if out else cmd[0]
    except (OSError, subprocess.SubprocessError):
        return cmd[0]


def _render_source() -> str:
    return state.render_defines() + "\n" + _SOURCE.read_text()


def load() -> tuple[CKernel | None, str]:
    """Build (or reuse) and load the kernel; ``(None, reason)`` on failure.

    The result is memoized per process — the serve path asks on every
    eligibility check.
    """
    global _loaded
    if _loaded is not None:
        return _loaded[0], _loaded[1]
    kernel, reason = _load_uncached()
    _loaded = (kernel, reason)
    return kernel, reason


def _load_uncached() -> tuple[CKernel | None, str]:
    try:
        source = _render_source()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    cmd = compiler()
    version = compiler_version(cmd)
    key = hashlib.sha256(
        f"{version}\n{ABI_VERSION}\n{source}".encode()).hexdigest()[:16]
    so_path = _CACHE_DIR / f"kernel-{key}.so"
    build_seconds = 0.0
    built = False
    if not so_path.exists():
        if cmd is None:
            return None, "no C compiler available (cc/gcc/clang)"
        begin = time.perf_counter()
        error = _build(cmd, source, so_path)
        if error is not None:
            return None, error
        build_seconds = time.perf_counter() - begin
        built = True
    try:
        lib = ctypes.CDLL(str(so_path))
        fn = lib.repro_abi_version
        fn.restype = ctypes.c_int64
        fn.argtypes = []
        got = int(fn())
    except (OSError, AttributeError) as exc:
        return None, f"kernel load failed: {exc}"
    if got != ABI_VERSION:
        return None, f"kernel ABI mismatch (built {got}, want {ABI_VERSION})"
    info = {
        "backend": "c",
        "compiler": version,
        "build_seconds": round(build_seconds, 6),
        "compiled_this_process": built,
        "cache_path": str(so_path),
    }
    return CKernel(lib, info), "ok"


def _build(cmd: list[str], source: str, so_path: Path) -> str | None:
    """Compile ``source`` into ``so_path``; an error reason or ``None``.

    Concurrent builders (sweep workers, serve threads) share the cache
    directory, so the source and the object are written under names of
    their own and renamed into place: a reader sees either no object or
    a complete one, never a half-written file.
    """
    try:
        _CACHE_DIR.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{so_path.stem}-", suffix=".c",
                                   dir=_CACHE_DIR)
    except OSError as exc:
        return f"kernel compile failed: {exc}"
    tmp_c = Path(tmp)
    tmp_so = tmp_c.with_suffix(".so")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        proc = subprocess.run(
            cmd + ["-O2", "-shared", "-fPIC", "-o", str(tmp_so),
                   str(tmp_c)],
            capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            tail = (proc.stderr or "").strip().splitlines()[-3:]
            return "kernel compile failed: " + " | ".join(tail)
        os.replace(tmp_so, so_path)
        os.replace(tmp_c, so_path.with_suffix(".c"))
    except (OSError, subprocess.SubprocessError) as exc:
        return f"kernel compile failed: {exc}"
    finally:
        for leftover in (tmp_c, tmp_so):
            leftover.unlink(missing_ok=True)
    return None


def reset_for_tests() -> None:
    """Drop the memoized load result (tests poke REPRO_CC)."""
    global _loaded
    _loaded = None
