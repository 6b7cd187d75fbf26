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
an eligible single-core trace or multi-core mix, and runs each RowClone
plan (CLFLUSHes, FPM episodes and the CPU-fallback rows' trace replays)
in one call.  A plan the kernel declines runs row by row: each RowClone
stages its FPM program through EasyAPI like every other technique
episode, each fallback row replays through ``run_trace``, and CLFLUSH
writebacks the kernel declines take the batch ladder (flat closure,
then object path).

The compiled backend is used whenever a C compiler can build it;
otherwise the kernel disengages with a recorded reason.  A system is
kept off it with ``EasyDRAMSystem(..., kernel=False)``: the flat
closures then serve every batch and every CLFLUSH's writebacks, the
Python burst loop replays every trace and RowClone rows run one staged
FPM episode at a time.  Results are bit-identical either way, which the
equivalence suites enforce.

Resolution happens per *call site* via :func:`resolve_backend`; the
serve path records why the kernel disengaged (custom scheduler,
technique episode, backend unavailable, ...) so ``repro profile`` can
report it.
"""

from __future__ import annotations


def resolve_backend() -> tuple[object | None, str]:
    """The compiled kernel backend and a reason string.

    Returns ``(backend, "ok")`` when it loads; ``(None, reason)`` when
    the kernel should disengage and let the flat closures serve.
    """
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
