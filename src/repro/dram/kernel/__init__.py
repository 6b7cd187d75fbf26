"""Batch serve kernel: the SMC inner loop out of Python-per-command.

The kernel compiles :class:`~repro.dram.flat_timing.FlatTimingState`,
the memoized command plans and the scheduler's ranking state into
struct-of-arrays int64 tables (:mod:`~repro.dram.kernel.state`) and
executes an entire drained request batch — plan offsets, earliest-time
resolution (rank-aware on multi-rank channels), scheduler selection for
every registry policy (FCFS, FR-FCFS, ATLAS, BLISS, PAR-BS batch),
issue, row-state transitions, refresh interleave, per-core stat
attribution and the registry reduced-tRCD technique — in one
compiled call
(:mod:`~repro.dram.kernel.cbackend`), replays whole block traces
resident (:mod:`~repro.dram.kernel.blockrun`) when the event engine runs
an eligible single-core trace or multi-core mix, and runs the RowClone
technique's runs of reliable rows (CLFLUSHes and FPM episodes) in one
call each.  A RowClone the kernel declines stages its FPM program
through EasyAPI like every other technique episode, and CLFLUSH
writebacks it declines take the batch ladder (flat closure, then object
path).

``REPRO_KERNEL``
    ``0``/``false``/``off`` disables the kernel entirely (the flat
    closures serve every batch and every CLFLUSH's writebacks, the
    Python burst loop replays every trace and RowClone rows run one
    staged FPM episode at a time).  A single system can
    be kept off it with ``EasyDRAMSystem(..., kernel=False)``.  ``c`` requires the compiled backend
    and disengages with a recorded reason when it cannot load.  Default
    (``auto``): use the compiled backend when a C compiler is available,
    otherwise disengage — results are bit-identical either way, which
    the equivalence suites enforce.

Resolution happens per *call site* via :func:`resolve_backend`; the
serve path records why the kernel disengaged (custom scheduler,
technique episode, backend unavailable, ...) so ``repro profile`` can
report it.
"""

from __future__ import annotations

import os

_FALSE = ("0", "false", "no", "off")


def kernel_mode() -> str:
    """The requested kernel mode: ``off``, ``c``, or ``auto``."""
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if raw in _FALSE:
        return "off"
    if raw == "c":
        return "c"
    return "auto"


def resolve_backend() -> tuple[object | None, str]:
    """The active kernel backend and a reason string.

    Returns ``(backend, "ok")`` when engaged; ``(None, reason)`` when
    the kernel should disengage and let the flat closures serve.
    """
    if kernel_mode() == "off":
        return None, "disabled (REPRO_KERNEL=0)"
    from repro.dram.kernel import cbackend
    kernel, reason = cbackend.load()
    if kernel is None:
        return None, reason
    return kernel, "ok"


def backend_info() -> dict:
    """Provenance for benchmark reports (compiler, warm-up seconds)."""
    backend, reason = resolve_backend()
    if backend is None:
        return {"backend": "none", "reason": reason}
    info = dict(backend.info)
    info["reason"] = reason
    return info
