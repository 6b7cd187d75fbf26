"""DRAM access-latency characterization (Section 8.1, Figure 12).

The characterization extends the software memory controller with
*profiling requests*: for a target cache line and a candidate tRCD, the
controller (1) initializes the line with a known pattern, (2) reads it
back using the candidate tRCD, and (3) reports whether the data came
back intact.  The processor sweeps rows/cache lines/banks and candidate
tRCD values, recording the minimum reliable tRCD per row.

Profiling runs through the same EasyAPI/Bender path as normal requests,
so the measured values come from the (synthetic) cell model exactly the
way a real chip would produce them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.system import Session
from repro.dram.address import DramAddress
from repro.dram.timing import ns

#: Candidate tRCD values swept by Figure 12 (ns, ascending).
DEFAULT_TRCD_CANDIDATES_PS = tuple(ns(v) for v in
                                   (8.0, 8.5, 9.0, 9.5, 10.0, 10.5, 11.0))

_PATTERN = bytes(range(64))


@dataclass
class RowProfile:
    """Per-row characterization outcome."""

    bank: int
    row: int
    min_trcd_ps: int

    def is_strong(self, threshold_ps: int = ns(9.0)) -> bool:
        return self.min_trcd_ps <= threshold_ps


@dataclass
class CharacterizationResult:
    """Minimum reliable tRCD for every profiled row.

    Write profiles through :meth:`record`: it drops the memoized
    :meth:`weak_row_keys`, which every tRCD technique built from this
    result reads.
    """

    profiles: dict[tuple[int, int], RowProfile] = field(default_factory=dict)
    nominal_trcd_ps: int = ns(13.5)
    _weak_keys: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def record(self, profile: RowProfile) -> None:
        """Store (or replace) one row's profile."""
        self.profiles[(profile.bank, profile.row)] = profile
        self._weak_keys.clear()

    def min_trcd(self, bank: int, row: int) -> int:
        profile = self.profiles.get((bank, row))
        return profile.min_trcd_ps if profile else self.nominal_trcd_ps

    def weak_rows(self, threshold_ps: int = ns(9.0)) -> list[tuple[int, int]]:
        return [key for key, p in self.profiles.items()
                if p.min_trcd_ps > threshold_ps]

    def weak_row_keys(self, threshold_ps: int = ns(9.0)) -> np.ndarray:
        """Weak rows as read-only ``uint64`` keys ``(bank << 32) | row``.

        Built in one pass over the profiles and memoized per threshold
        until the next :meth:`record`.
        """
        keys = self._weak_keys.get(threshold_ps)
        if keys is None:
            keys = np.fromiter(
                ((bank << 32) | row for (bank, row), p in self.profiles.items()
                 if p.min_trcd_ps > threshold_ps), dtype=np.uint64)
            keys.flags.writeable = False
            self._weak_keys[threshold_ps] = keys
        return keys

    def strong_fraction(self, threshold_ps: int = ns(9.0)) -> float:
        if not self.profiles:
            return 0.0
        strong = sum(1 for p in self.profiles.values()
                     if p.min_trcd_ps <= threshold_ps)
        return strong / len(self.profiles)

    def heatmap(self, bank: int, rows: int, group: int = 64) -> list[list[float]]:
        """Figure 12's layout: rows grouped into ``group``-row tiles.

        Returns a 2D list (group id x row id within group) of minimum
        tRCD in nanoseconds.
        """
        out: list[list[float]] = []
        for g in range(-(-rows // group)):
            line = []
            for r in range(group):
                row = g * group + r
                if row >= rows:
                    break
                line.append(self.min_trcd(bank, row) / 1000.0)
            out.append(line)
        return out


def profile_line(session: Session, dram: DramAddress, trcd_ps: int,
                 samples: int = 1) -> bool:
    """One profiling request: can this line be read at ``trcd_ps``?

    Mirrors the three-step flow of Section 8.1; ``samples`` repeats the
    check (real campaigns repeat to catch marginal cells).
    """
    ok = True
    for _ in range(samples):
        def stage(api, dram=dram, trcd_ps=trcd_ps):
            t = api.tile.config.timing
            api.charge(api.costs.profile_op)
            # Step 1: initialize the target cache line with a known pattern.
            api.write_sequence(dram, data=_PATTERN)
            api.ddr_wait_ps(t.tCWL + t.tBL + t.tWR)   # write recovery
            api.ddr_precharge(dram.bank)
            api.wait_after_command_ps(t.tRP)
            # Step 2: access it with the candidate tRCD.
            api.ddr_activate(dram.bank, dram.row)
            api.wait_after_command_ps(trcd_ps)
            api.ddr_read(dram.bank, dram.col)

        session.technique_op(stage, respect_timing=True)
        data, reliable = session.system.tile.readback.pop()
        # Step 3: report correctness to the processor.
        if not reliable or data != _PATTERN:
            ok = False
    return ok


def profile_row(session: Session, bank: int, row: int,
                candidates_ps=DEFAULT_TRCD_CANDIDATES_PS,
                cols_per_row_sampled: int = 4) -> RowProfile:
    """Minimum reliable tRCD of a row = its weakest sampled cache line.

    Section 8.2's first strategy: the weakest cache line's tRCD becomes
    the row's tRCD.  ``cols_per_row_sampled`` spreads samples across the
    row (profiling every column is possible but slow).
    """
    geometry = session.system.config.geometry
    nominal = session.system.config.timing.tRCD
    step = max(1, geometry.columns_per_row // cols_per_row_sampled)
    cols = range(0, geometry.columns_per_row, step)
    for trcd_ps in sorted(candidates_ps):
        if trcd_ps >= nominal:
            break
        if all(profile_line(session, DramAddress(bank, row, col), trcd_ps)
               for col in cols):
            return RowProfile(bank=bank, row=row, min_trcd_ps=trcd_ps)
    return RowProfile(bank=bank, row=row, min_trcd_ps=nominal)


def characterize(session: Session, banks: range, rows: range,
                 candidates_ps=DEFAULT_TRCD_CANDIDATES_PS,
                 cols_per_row_sampled: int = 2) -> CharacterizationResult:
    """Sweep banks x rows and build the characterization table."""
    result = CharacterizationResult(
        nominal_trcd_ps=session.system.config.timing.tRCD)
    for bank in banks:
        for row in rows:
            profile = profile_row(
                session, bank, row, candidates_ps, cols_per_row_sampled)
            result.record(profile)
    return result


# ---------------------------------------------------------------------------
# Host-time layer profiling (where does the emulation's wall time go?)
# ---------------------------------------------------------------------------


class LayerTimes:
    """Accumulated host seconds per emulation layer."""

    __slots__ = ("trace_gen", "cache", "smc", "device", "kernel", "total",
                 "kernel_fallbacks", "_smc_depth", "_device_depth",
                 "_kernel_smc")

    def __init__(self) -> None:
        self.trace_gen = 0.0
        self.cache = 0.0
        self.smc = 0.0       # inclusive (device time is subtracted on report)
        self.device = 0.0
        self.kernel = 0.0    # compiled serve kernel (every entry point)
        self.total = 0.0
        #: Why kernel serves fell back to the Python paths: reason -> count.
        self.kernel_fallbacks: dict = {}
        self._smc_depth = 0
        self._device_depth = 0
        self._kernel_smc = 0.0   # kernel time nested inside an SMC episode

    def as_dict(self) -> dict:
        """JSON-ready breakdown; ``smc_s`` excludes nested device/kernel time.

        ``kernel_s`` is the compiled serve kernel's inclusive time across
        its entries (per-gate batches, CLFLUSH writeback batches and
        whole-trace block replay);
        ``kernel_fallbacks`` counts the serves it declined, by reason, so
        a disengaged kernel is visible rather than just absent.
        """
        smc_exclusive = max(0.0, self.smc - self.device - self._kernel_smc)
        kernel_outside_smc = self.kernel - self._kernel_smc
        other = max(0.0, self.total
                    - (self.trace_gen + self.cache + self.smc
                       + kernel_outside_smc))
        return {
            "trace_gen_s": round(self.trace_gen, 4),
            "cache_s": round(self.cache, 4),
            "smc_s": round(smc_exclusive, 4),
            "device_s": round(self.device, 4),
            "kernel_s": round(self.kernel, 4),
            "kernel_fallbacks": dict(self.kernel_fallbacks),
            "other_s": round(other, 4),
            "total_s": round(self.total, 4),
        }


def _timed(fn, acc: LayerTimes, layer: str, depth_attr: str | None):
    """Wrap ``fn`` to accumulate its inclusive wall time into ``acc``."""
    import time as _time

    perf = _time.perf_counter

    def wrapper(*args, **kwargs):
        if depth_attr is not None:
            depth = getattr(acc, depth_attr)
            setattr(acc, depth_attr, depth + 1)
            if depth:
                try:
                    return fn(*args, **kwargs)
                finally:
                    setattr(acc, depth_attr, depth)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            setattr(acc, layer, getattr(acc, layer) + (perf() - start))
            if depth_attr is not None:
                setattr(acc, depth_attr, depth)

    return wrapper


@contextmanager
def measure_layers():
    """Instrument the emulation layers for the dynamic extent of a run.

    Patches the layer entry points at class level — trace generation
    (the block stream consumed by ``Session.run_trace``), the
    cache filter, the software memory controller's critical-mode
    episodes, and the DRAM device's issue paths — and yields the
    :class:`LayerTimes` accumulator.  Systems must be *constructed
    inside* the context so their hoisted bound methods pick up the
    instrumented functions.
    """
    import time as _time

    from repro.core.smc import SoftwareMemoryController
    from repro.core.system import Session
    from repro.cpu.blocks import BlockTrace, blockify
    from repro.cpu.cache import CacheHierarchy
    from repro.dram.device import DramDevice
    from repro.dram.kernel import blockrun

    acc = LayerTimes()
    perf = _time.perf_counter
    patches: list[tuple[type, str, object]] = []

    def patch(cls, name, layer, depth_attr=None):
        original = getattr(cls, name)
        patches.append((cls, name, original))
        setattr(cls, name, _timed(original, acc, layer, depth_attr))

    patch(CacheHierarchy, "access", "cache")
    patch(CacheHierarchy, "access_block", "cache")
    patch(SoftwareMemoryController, "service_pending", "smc", "_smc_depth")
    patch(SoftwareMemoryController, "service_pending_batched", "smc",
          "_smc_depth")
    patch(SoftwareMemoryController, "technique_episode", "smc", "_smc_depth")
    for name in ("issue", "issue_fast", "issue_col",
                 "issue_plan"):
        patch(DramDevice, name, "device", "_device_depth")

    def timed_kernel(fn, smc_index):
        """Kernel entry wrapper: time plus declined-serve reason counts
        (an entry declines by returning ``False`` or ``None``)."""
        def wrapper(*args, **kwargs):
            start = perf()
            engaged = fn(*args, **kwargs)
            span = perf() - start
            acc.kernel += span
            if acc._smc_depth:
                acc._kernel_smc += span
            if engaged is False or engaged is None:
                reason = (getattr(args[smc_index],
                                  "kernel_fallback_reason", None)
                          or "kernel state not resolved")
                acc.kernel_fallbacks[reason] = \
                    acc.kernel_fallbacks.get(reason, 0) + 1
            return engaged
        return wrapper

    for name in ("service_pending_kernel", "service_writebacks_kernel",
                 "rowclone_rows_kernel"):
        original = getattr(SoftwareMemoryController, name)
        patches.append((SoftwareMemoryController, name, original))
        setattr(SoftwareMemoryController, name, timed_kernel(original, 0))
    for name in ("run_gated_kernel", "run_cores_kernel"):
        original = getattr(blockrun, name)
        patches.append((blockrun, name, original))
        setattr(blockrun, name, timed_kernel(original, 3))

    original_run_trace = Session.run_trace
    patches.append((Session, "run_trace", original_run_trace))

    def timed_run_trace(self, trace):
        inner = iter(trace if isinstance(trace, BlockTrace)
                     else blockify(trace))

        def blocks():
            while True:
                start = perf()
                block = next(inner, None)
                acc.trace_gen += perf() - start
                if block is None:
                    return
                yield block

        return original_run_trace(self, BlockTrace(blocks()))

    Session.run_trace = timed_run_trace

    start = perf()
    try:
        yield acc
    finally:
        acc.total = perf() - start
        for cls, name, original in patches:
            setattr(cls, name, original)


def layer_breakdown(run_fn, *args, **kwargs) -> dict:
    """Run ``run_fn`` under :func:`measure_layers`; return the breakdown."""
    with measure_layers() as acc:
        run_fn(*args, **kwargs)
    return acc.as_dict()


def layer_breakdown_for_artifact(artifact: str, full: bool = False) -> dict:
    """Per-layer host-time breakdown of one experiment artifact's point.

    Profiles the artifact's *last* registered sweep point (for the
    figure sweeps that is the largest configuration — the one that
    dominates the sweep's wall time) serially in-process, from the
    paper-scale point set with ``full``.  Used by ``repro profile`` to
    attribute emulation wall time to the block pipeline's stages.
    """
    from repro.runner import registry

    spec = registry.get(artifact)
    points = spec.build_points(**spec.run_overrides(full=full))
    if not points:
        raise KeyError(f"artifact {artifact!r} has no sweep points")
    point = points[-1]
    fn = point.resolve()
    breakdown = layer_breakdown(fn, **point.params)
    breakdown["artifact"] = artifact
    breakdown["point_id"] = point.point_id
    return breakdown


def oracle_characterize(system_cells, geometry, banks: range,
                        rows: range, tck_ps: int = 1500) -> CharacterizationResult:
    """Fast characterization directly from the cell model.

    Produces the same table as :func:`characterize` (the profiling flow
    is deterministic) without paying per-line emulation cost; tests
    assert the two agree.  Because the sequencer can only place the read
    on interface-clock edges, a candidate tRCD is *realized* as
    ``ceil(candidate / tCK) * tCK`` — the oracle applies the same
    quantization the emulated path experiences.
    """
    result = CharacterizationResult()
    candidates = sorted(DEFAULT_TRCD_CANDIDATES_PS)
    for bank in banks:
        for row in rows:
            true_min = system_cells.row_min_trcd_ps(bank, row)
            chosen = next(
                (c for c in candidates
                 if -(-c // tck_ps) * tck_ps >= true_min),
                result.nominal_trcd_ps)
            result.record(RowProfile(bank, row, chosen))
    return result
