"""The RowClone-rows kernel entry against the per-row paths.

``RowCloneTechnique.execute_copy`` / ``execute_init`` hand the whole
plan -- reliable rows and CPU-fallback rows, CLFLUSHes included -- to one
``repro_rowclone_rows`` call (``Session.rowclone_rows``).  Each cell here
runs the same plan three ways and compares every observable:

* ``kernel`` -- the new entry (asserted engaged, once per plan, with no
  ``technique_episode`` call);
* ``staged`` -- the entry declined and every RowClone staged through
  EasyAPI and the Bender engine (``technique_op`` with a staging lambda),
  CLFLUSH writebacks on the kernel's array entry and fallback rows
  replayed by ``run_trace`` (the resident replay);
* ``off`` -- the kernel backend unavailable: everything in Python,
  every RowClone staged (``RowCloneOp``), CLFLUSH writebacks on the
  flat closure and fallback rows on the Python burst loop.

The observables are ``test_rowclone_plan``'s (controller, tile, device
and Bender counters, cursors, bank and rank state, violation records
with their constraint names, row contents) plus the ``RunResult``, the
processor (its latency log and request ids included), the engine's
counts, the technique's ``RowCloneStats``, both cache levels' way lists
and ``api.last_exec``.  Every path materializes the same rows with the
same bytes; ``staged`` must match their insertion order too.
"""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest

from kernel_paths import no_kernel
from repro.core.config import jetson_nano_time_scaling
from repro.core.easyapi import CostModel, RowCloneOp
from repro.core.smc import SoftwareMemoryController
from repro.core.system import EasyDRAMSystem, Session
from repro.core.techniques import rowclone as rowclone_module
from repro.core.techniques.rowclone import RowCloneTechnique
from repro.cpu.blocks import BlockTrace
from repro.cpu.memtrace import load, store
from repro.dram.kernel import blockrun, cbackend
from repro.dram.kernel.state import (
    KERN_NEED_ROOM, VIOL_STRIDE, WRHIT_STRIDE, Cfg, Core, KernelState, St,
    _arr,
)
from repro.workloads import microbench
from test_rowclone_plan import _observe as _controller_state

needs_kernel = pytest.mark.skipif(cbackend.load()[0] is None,
                                  reason="no C compiler for the kernel")

#: ``kernel`` and ``staged`` run on the compiled kernel, also under
#: ``--kernel=off``; ``off`` switches it away inside one test.
pytestmark = pytest.mark.usefixtures("kernel_on")

TOPOLOGIES = ("ddr4-1ch", "ddr4-1ch-2rk")

#: Cells that run in tier-1; every other cell is ``slow``.  The
#: clflush init cell on two ranks is the fallback-heaviest plan.
_TIER1 = {("copy", True, "ddr4-1ch"), ("init", False, "ddr4-1ch-2rk"),
          ("init", True, "ddr4-1ch-2rk")}


def _cells():
    for op in ("copy", "init"):
        for clflush in (False, True):
            for topology in TOPOLOGIES:
                marks = (() if (op, clflush, topology) in _TIER1
                         else (pytest.mark.slow,))
                yield pytest.param(
                    op, clflush, topology, marks=marks,
                    id=f"{op}-{'clflush' if clflush else 'noflush'}"
                       f"-{topology}")


def _staged_op(self, bank, src_row, dst_row, channel=0):
    """``RowCloneTechnique._rowclone_op`` through a staged Bender program."""
    self.session.technique_op(
        lambda api: api.rowclone(bank, src_row, dst_row),
        respect_timing=False, channel=channel)
    self.stats.rowclone_ops += 1


class _Recorder:
    """Records every RowClone-rows call and every technique episode."""

    def __init__(self, mp) -> None:
        self.calls: list[tuple] = []
        self.episodes = 0
        entry = SoftwareMemoryController.rowclone_rows_kernel
        episode = SoftwareMemoryController.technique_episode

        def rows_kernel(smc, rows, proc, finished, engine):
            refreshes = smc.stats.refreshes
            engaged = None     # (kept when the entry raises)
            try:
                engaged = entry(smc, rows, proc, finished, engine)
                return engaged
            finally:
                self.calls.append((len(rows), engaged,
                                   smc.kernel_fallback_reason,
                                   smc.stats.refreshes - refreshes))

        def technique_episode(smc, *args, **kwargs):
            self.episodes += 1
            return episode(smc, *args, **kwargs)

        mp.setattr(SoftwareMemoryController, "rowclone_rows_kernel",
                   rows_kernel)
        mp.setattr(SoftwareMemoryController, "technique_episode",
                   technique_episode)


def _enter(mode, mp) -> None:
    if mode == "off":
        no_kernel(mp)
    if mode == "staged":
        mp.setattr(Session, "rowclone_rows",
                   lambda self, rows, finished: False)
        mp.setattr(RowCloneTechnique, "_rowclone_op", _staged_op)


def _tighten_logs(system) -> None:
    """Shrink the violation and WR-hit logs to one row's worst case, so
    the kernel asks for room before nearly every row."""
    smc = system.smc
    ks = smc._kernel_state if smc._kernel_resolved else smc._kernel_resolve()
    if ks is None:
        return
    most = 2 * system.config.geometry.row_bytes // 64
    ks.viol = _arr(VIOL_STRIDE * (3 * most + 68))
    ks.wrhit = _arr(WRHIT_STRIDE * (most + 16))
    ks._ptr_table = None


def _scenario(op, clflush, topology, seed, tight=False,
              last_fallback=False, engine=None):
    """One plan run end to end: many fallback rows, dirty and clean
    CLFLUSH ranges, and a few reliable-flagged pairs whose copies the
    cells fail (corrupting their destinations), with refreshes due when
    the first (reliable) row starts.  ``tight``: a copy with
    no fallback row (a fallback replay would regrow the logs) on logs
    shrunk to one row's worst case.  ``last_fallback``: the plan ends
    on a CPU-fallback row whose range holds dirty lines, so its CLFLUSH
    writebacks are the last controller work of the run.  ``engine``
    picks the system's emulation engine."""
    rng = random.Random(seed)
    system = EasyDRAMSystem(jetson_nano_time_scaling().with_topology(topology),
                            engine=engine)
    session = system.session("rows")
    tech = RowCloneTechnique(session)
    g = tech.geometry
    row_bytes = g.row_bytes
    n = 40
    if op == "copy":
        plan = tech.plan_copy(n * row_bytes)
        pairs = []
        for pair in plan.pairs:
            if rng.random() < 0.3 and not tight:
                pair = dataclasses.replace(pair, reliable=False)
            elif rng.random() < 0.2:
                # A reliable-flagged pair whose copy always fails: its
                # destination sits in the next subarray.
                pair = dataclasses.replace(pair, dst_row=(
                    pair.dst_row + g.subarray_rows) % g.rows_per_bank)
            pairs.append(pair)
        plan.pairs = pairs
        ranges = [plan.src_addr + i * row_bytes for i in range(n)]
        ranges += [tech.mapper.row_base_physical(p.bank, p.dst_row)
                   for p in plan.pairs]
    else:
        plan = tech.plan_init(n * row_bytes, base_addr=1 << 22)
        # Some reliable targets copy from the next subarray: they fail.
        plan.targets = [
            dataclasses.replace(pair, src_row=(
                pair.src_row + g.subarray_rows) % g.rows_per_bank)
            if pair.reliable and rng.random() < 0.2 else pair
            for pair in plan.targets]
        ranges = [plan.dst_addr + i * row_bytes for i in range(n)]
    if last_fallback:
        pairs = plan.pairs if op == "copy" else plan.targets
        pairs[-1] = dataclasses.replace(pairs[-1], reliable=False)
    if clflush:
        for base in ranges:
            if rng.random() < 0.5 or (last_fallback and base == ranges[-1]):
                session.run_trace(microbench.touch_blocks(
                    base + rng.randrange(4) * 64,
                    rng.choice((64, 1024, row_bytes // 2)), write=True))
    # The first row runs in the kernel, after ~2 tREFI of computing that
    # served no request: refreshes fall due inside that call.
    if op == "copy":
        plan.pairs[0] = dataclasses.replace(plan.pairs[0], reliable=True)
    else:
        plan.targets[0] = dataclasses.replace(plan.targets[0], reliable=True)
    session.run_trace([load(1 << 26), load(1 << 26, gap=30_000)])
    if tight:
        _tighten_logs(system)
    if op == "copy":
        tech.execute_copy(plan, clflush=clflush)
    else:
        tech.execute_init(plan, clflush=clflush)
    return session, tech


def _observe(session, tech) -> dict:
    system = session.system
    result = dataclasses.asdict(session.finish())
    result.pop("wall_seconds")
    levels = (session.hierarchy.l1, session.hierarchy.l2)
    state = _controller_state(system)
    rows = state[0].pop("rows")
    return {
        "result": result,
        "controller": state,
        "processor": _processor(session.processor),
        "engine": session.engine.stats.as_dict(),
        "technique": dataclasses.asdict(tech.stats),
        "cache": [(dataclasses.asdict(level.stats), level._tick,
                   level._tags, [list(map(bool, d)) for d in level._dirty],
                   level._stamps) for level in levels],
        "rows": rows,
        "row_order": list(system.device._rows),
        "last_exec": system.api.last_exec,
    }


def _processor(proc) -> tuple:
    """A processor's counters, latency log, next request id and state."""
    stats = dataclasses.asdict(proc.stats)
    stats["request_latencies"] = list(stats["request_latencies"])
    return (proc.cycles, stats, repr(proc._rid), proc.done,
            proc.outstanding, proc._cur)


def _run(mode, monkeypatch, build):
    with monkeypatch.context() as mp:
        _enter(mode, mp)
        recorder = _Recorder(mp)
        session, tech = build()
        state = _observe(session, tech)
    return state, recorder, session.system


def _compare(monkeypatch, build):
    kernel, rec, kernel_system = _run("kernel", monkeypatch, build)
    staged, staged_rec, _ = _run("staged", monkeypatch, build)
    off, _, _ = _run("off", monkeypatch, build)
    # The plan went to the kernel in one call, and no row took the
    # per-row episode; the staged oracle walked one per RowClone.
    assert [call[1:3] for call in rec.calls] == [(True, None)]
    assert rec.episodes == 0
    assert staged_rec.episodes == kernel["technique"]["rowclone_ops"] > 0
    assert kernel == staged
    for key in kernel:
        if key != "row_order":
            assert kernel[key] == off[key], key
    # The kernel's materialized-row keys, kept up to date in the call,
    # name exactly the rows the device holds.
    ks = kernel_system.smc._kernel_state
    assert ks.mat_keys.tolist() == sorted(
        (bank << 32) | row for bank, row in kernel_system.device._rows)
    return kernel, rec


@needs_kernel
@pytest.mark.parametrize("op,clflush,topology", list(_cells()))
def test_rows_match_the_per_row_paths(op, clflush, topology, monkeypatch):
    kernel, rec = _compare(
        monkeypatch, lambda: _scenario(op, clflush, topology, seed=11))
    stats = kernel["technique"]
    assert stats["fallback_rows"] > 0 and stats["rowclone_ops"] > 0
    device = kernel["controller"][0]["device"]
    assert 0 < device["rowclone_successes"] < device["rowclone_attempts"]
    # A refresh falls due inside a kernel call.
    assert any(refreshed for *_, refreshed in rec.calls)
    if clflush:
        assert kernel["result"]["l1"]["flushes"] > 0


@needs_kernel
def test_trailing_fallback_flush_keeps_last_exec(monkeypatch):
    """An init plan that ends on a CPU-fallback row: its CLFLUSH
    writebacks run after the last RowClone, on the kernel's array entry
    or (kernel off) the flat closure, and neither replaces the RowClone's
    Bender result in ``api.last_exec``."""
    kernel, _ = _compare(monkeypatch, lambda: _scenario(
        "init", True, "ddr4-1ch", seed=11, last_fallback=True))
    assert kernel["technique"]["fallback_rows"] > 0
    # The FPM program's four commands, not a writeback's.
    assert kernel["last_exec"].commands_issued == 4


@needs_kernel
def test_tight_logs_reenter_at_row_boundaries(monkeypatch):
    """Logs sized for one row force the kernel to ask for room before
    nearly every row; the driver applies the logs and re-enters, and
    nothing observable changes."""
    applied = []
    apply = KernelState.apply_rowclone_log
    monkeypatch.setattr(KernelState, "apply_rowclone_log",
                        lambda ks: (applied.append(1), apply(ks)))
    _, rec = _compare(monkeypatch, lambda: _scenario(
        "copy", True, "ddr4-1ch", seed=5, tight=True))
    # One plan of 40 reliable rows, entered about once per row.
    assert [n for n, *_ in rec.calls] == [40]
    assert len(applied) > 20


@needs_kernel
def test_cycle_engine_declines_fallback_rows(monkeypatch):
    """On the cycle engine a fallback row's ``run_trace`` takes the
    Python burst loop, not the resident replay, so a plan with fallback
    rows declines with that reason and runs row by row -- to the same
    results as the event engine's one call (the engines count their
    episodes differently, so their counts are left out, and the object
    path stores the rows it reads, so row contents are compared rather
    than which rows hold storage)."""
    event, _, event_system = _run("kernel", monkeypatch, lambda: _scenario(
        "init", True, "ddr4-1ch", seed=11))
    cycle, rec, cycle_system = _run("kernel", monkeypatch, lambda: _scenario(
        "init", True, "ddr4-1ch", seed=11, engine="cycle"))
    assert [call[1:3] for call in rec.calls] == [
        (False, "fallback rows off the event engine")]
    assert cycle["technique"]["fallback_rows"] > 0
    for key in event:
        if key not in ("rows", "row_order", "engine"):
            assert cycle[key] == event[key], key
    keys = set(event["rows"]) | set(cycle["rows"])
    assert ([event_system.device.row_data(*key) for key in keys]
            == [cycle_system.device.row_data(*key) for key in keys])


@needs_kernel
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("clflush", (False, True))
def test_one_kernel_entry_per_plan(clflush, topology, monkeypatch):
    """An init plan whose fallback rows sit among its reliable rows
    enters the compiled kernel once, through ``repro_rowclone_rows``
    (re-entries on ``KERN_NEED_ROOM`` aside): no ``run_cores`` or
    ``serve_batch`` call, and no ``run_trace`` for its fallback rows."""
    system = EasyDRAMSystem(jetson_nano_time_scaling().with_topology(topology))
    session = system.session("one-entry")
    tech = RowCloneTechnique(session)
    size, base = 1536 * 1024, 1 << 24
    plan = tech.plan_init(size, base_addr=base)
    reliable = "".join("r" if pair.reliable else "f"
                       for pair in plan.targets)
    assert "rfr" in reliable
    if clflush:
        session.run_trace(microbench.touch_blocks(base, size, write=True))
    backend = cbackend.load()[0]
    calls = collections.Counter()

    def count(name, entry):
        def wrapper(*args):
            err = entry(*args)
            calls[name] += 1
            calls["room"] += name == "rowclone_rows" and err == KERN_NEED_ROOM
            return err
        return wrapper

    for name in ("serve_batch", "run_cores", "rowclone_rows"):
        monkeypatch.setattr(backend, name, count(name, getattr(backend,
                                                               name)))
    run_trace = Session.run_trace
    monkeypatch.setattr(Session, "run_trace", lambda self, trace: (
        calls.update(["run_trace"]), run_trace(self, trace)))
    tech.execute_init(plan, clflush=clflush, include_source_setup=False)
    assert tech.stats.fallback_rows == reliable.count("f")
    assert calls["rowclone_rows"] - calls["room"] == 1
    assert calls["run_cores"] == calls["serve_batch"] == 0
    assert calls["run_trace"] == 0


class _Squeeze:
    """Enters ``repro_rowclone_rows`` with its buffers squeezed to what
    one step needs past their fill: the pending-request buffer to one
    access, core 0's latency log to one ``block``-access fallback block
    and the violation log to one row's worst case (``most`` flushed
    lines).  The call then returns ``KERN_NEED_ROOM`` inside fallback
    replays (at block binds, and mid-block when a gate batch grows) and
    at the row boundaries after rows that logged violations.  Records
    each entry's stop as ``(RC_DONE, RC_REPLAYING, return code)``."""

    def __init__(self, mp, most: int, block: int) -> None:
        self.stops: list[tuple] = []
        self.ks = None
        run = blockrun.run_rowclone_rows

        def run_rows(engine, smc, *args):
            self.ks = smc._kernel_state
            return run(engine, smc, *args)

        backend = cbackend.load()[0]
        entry = backend.rowclone_rows

        def rows_entry(table, cores):
            ks = self.ks
            st, slots = ks.st, ks.cores[0]
            st[St.PEND_CAP] = min(st[St.PEND_CAP], st[St.PEND_COUNT] + 3)
            slots.st[Core.LAT_CAP] = min(
                slots.latencies.shape[0], slots.st[Core.LAT_COUNT] + block
                + ks.cfg[Cfg.MLP] + 8)
            st[St.VIOL_CAP] = min(st[St.VIOL_CAP],
                                  st[St.VIOL_COUNT] + 3 * most + 68)
            err = entry(table, cores)
            self.stops.append((int(st[St.RC_DONE]),
                               int(st[St.RC_REPLAYING]), err))
            return err

        mp.setattr(blockrun, "run_rowclone_rows", run_rows)
        mp.setattr(backend, "rowclone_rows", rows_entry)


@needs_kernel
@pytest.mark.parametrize("op", ("copy", "init"))
def test_squeezed_buffers_reenter_inside_fallback_rows(op, monkeypatch):
    """Buffers squeezed on every entry make the plan's call stop and
    re-enter inside fallback replays (and at row boundaries);
    ``run_rowclone_rows`` flushes the logs and grows the buffers, the
    replay resumes where it stopped, and nothing observable changes."""
    squeezes = []
    lines = jetson_nano_time_scaling().geometry.row_bytes // 64
    # A copy's fallback block is its row's loads and stores.
    block = 2 * lines if op == "copy" else lines

    def build():
        with pytest.MonkeyPatch.context() as mp:
            squeezes.append(_Squeeze(mp, 2 * lines, block))
            return _scenario(op, True, "ddr4-1ch", seed=7)

    kernel, rec = _compare(monkeypatch, build)
    # Only the kernel run enters the rows entry.
    stops, staged, off = (squeeze.stops for squeeze in squeezes)
    assert staged == off == []
    plan = kernel["technique"]
    rows = plan["rowclone_ops"] + plan["fallback_rows"]
    assert [n for n, *_ in rec.calls] == [rows]
    assert stops[-1] == (rows, 0, 0)
    assert all(err == KERN_NEED_ROOM for *_, err in stops[:-1])
    # Every fallback row stopped mid-replay.
    inside = {done for done, replaying, _ in stops if replaying}
    assert len(inside) == plan["fallback_rows"]


def _direct(mode, monkeypatch, script, costs=None):
    """Run ``script(session)`` -> list of ``(bank, src, dst, ranges,
    blocks)`` rows through ``Session.rowclone_rows`` (kernel), or row by
    row through ``clflush_range`` and ``technique_op`` or ``run_trace``
    (the other modes)."""
    with monkeypatch.context() as mp:
        _enter(mode, mp)
        system = EasyDRAMSystem(jetson_nano_time_scaling(), costs=costs)
        session = system.session("direct")
        rows = script(session)
        dirty = []
        if mode == "kernel":
            assert session.rowclone_rows(rows, dirty)
        else:
            for bank, src, dst, ranges, blocks in rows:
                dirty.append(tuple(session.clflush_range(start, size)
                                   for start, size in ranges))
                if blocks is not None:
                    session.run_trace(BlockTrace(blocks))
                    continue
                stage = (RowCloneOp(bank, src, dst) if mode == "off"
                         else lambda api, b=bank, s=src, d=dst:
                         api.rowclone(b, s, d))
                session.technique_op(stage)
        device = system.device
        state = _controller_state(system)
        rows_state = state[0].pop("rows")
        return {
            "controller": state, "dirty": dirty,
            "processor": _processor(session.processor),
            "engine": session.engine.stats.as_dict(),
            "flushes": [dataclasses.asdict(level.stats) for level in
                        (session.hierarchy.l1, session.hierarchy.l2)],
            "rows": rows_state, "row_order": list(device._rows),
        }


def _check_direct(monkeypatch, script, costs=None):
    kernel = _direct("kernel", monkeypatch, script, costs)
    staged = _direct("staged", monkeypatch, script, costs)
    off = _direct("off", monkeypatch, script, costs)
    assert kernel == staged
    for key in kernel:
        if key != "row_order":
            assert kernel[key] == off[key], key
    return kernel


@needs_kernel
def test_writeback_hits_a_row_materialized_in_the_same_call(monkeypatch):
    """Row 0 RowClones into a row whose lines sit dirty in the cache; row
    1 flushes that row's range, so its writebacks WR a row the same call
    materialized: they must reset those lines to the filler pattern, as
    the per-row path does."""
    def script(session):
        system = session.system
        mapper = system.mapper
        row_bytes = system.config.geometry.row_bytes
        bank, src = 2, 10
        dst = next(row for row in range(src + 1, src + 64)
                   if system.tile.cells.rowclone_pair_reliable(bank, src,
                                                               row))
        dst_phys = mapper.row_base_physical(bank, dst)
        system.device.preload_row(bank, src, bytes([0xA5]) * row_bytes)
        session.run_trace(microbench.touch_blocks(dst_phys, 1024,
                                                  write=True))
        return [(bank, src, dst, (), None),
                (5, 20, 21, ((dst_phys, row_bytes),), None)]

    kernel = _check_direct(monkeypatch, script)
    assert kernel["dirty"] == [(), (16,)]
    device = kernel["controller"][0]["device"]
    assert device["rowclone_attempts"] == device["rowclone_successes"] == 2
    (bank, dst), = [key for key in kernel["row_order"][1:2]]
    # The first 16 lines were reset by the writebacks, the rest copied.
    data = kernel["rows"][(bank, dst)]
    assert data[:1024] != bytes([0xA5]) * 1024
    assert data[1024:] == bytes([0xA5]) * (len(data) - 1024)


@needs_kernel
def test_leading_act_can_copy(monkeypatch):
    """A staged episode that ends on a PRE leaves the bank inside the
    RowClone window, so the FPM sequence's first ACT(src) copies the row
    the PRE closed into src before ACT(dst) copies src on."""
    def script(session):
        system = session.system
        t = system.config.timing
        system.device.preload_row(
            3, 40, bytes([0x3C]) * system.config.geometry.row_bytes)

        def stage(api):
            api.ddr_activate(3, 40)
            api.ddr_wait_ps(t.tRAS)
            api.ddr_precharge(3)
        system.smc.technique_episode(stage, issue_cycle=0)
        return [(3, 41, 42, (), None)]

    kernel = _check_direct(monkeypatch, script,
                           costs=CostModel(rowclone_setup=0))
    device = kernel["controller"][0]["device"]
    assert device["rowclone_attempts"] == 2
    assert kernel["row_order"][:3] == [(3, 40), (3, 41), (3, 42)]


@needs_kernel
def test_fallback_writebacks_hit_a_row_materialized_in_the_same_call(
        monkeypatch):
    """Row 0 RowClones src into dst; row 1, a CPU-fallback row, stores
    over dst's first 16 lines; row 2, another fallback row, flushes dst's
    range, so its writebacks WR the row row 0 materialized; row 3 copies
    dst on.  The WR hits must reset those lines before row 3's copy reads
    them, as on the per-row paths: the WR-hit and RowClone logs apply in
    issue order across the replays."""
    def script(session):
        system = session.system
        reliable = system.tile.cells.rowclone_pair_reliable
        row_bytes = system.config.geometry.row_bytes
        bank, src = 2, 10
        dst = next(row for row in range(src + 1, src + 64)
                   if reliable(bank, src, row))
        onward = next(row for row in range(src + 1, src + 64)
                      if row != dst and reliable(bank, dst, row))
        dst_phys = system.mapper.row_base_physical(bank, dst)
        system.device.preload_row(bank, src, bytes([0xA5]) * row_bytes)
        return [(bank, src, dst, (), None),
                (bank, src, dst, (), list(microbench.cpu_init_blocks(
                    dst_phys, 1024))),
                (bank, src, dst, ((dst_phys, row_bytes),),
                 list(microbench.cpu_init_blocks(1 << 22, 512))),
                (bank, dst, onward, (), None)]

    kernel = _check_direct(monkeypatch, script)
    assert kernel["dirty"] == [(), (), (16,), ()]
    device = kernel["controller"][0]["device"]
    assert device["rowclone_attempts"] == device["rowclone_successes"] == 2
    (bank, onward), = [key for key in kernel["row_order"][2:3]]
    # The first 16 lines were reset by row 2's writebacks before row 3
    # copied them on; the rest is row 0's copy of the pattern.
    data = kernel["rows"][(bank, onward)]
    assert data[:1024] != bytes([0xA5]) * 1024
    assert data[1024:] == bytes([0xA5]) * (len(data) - 1024)


def _beyond_topology(fallback=None):
    """A copy whose third source row lies past the end of a strict map,
    with a line of it sitting dirty in the cache: the run's CLFLUSH of
    that range raises the mapper's error after two rows finished.

    ``fallback``: rows 1 and 2 are CPU-fallback rows -- ``"declined"``
    with their own traces (row 2's reads past the map, so the kernel
    declines the plan), ``"engaged"`` with row 2's trace reading an
    in-range row instead (so the kernel's replay runs row 1 and the
    error comes from row 2's CLFLUSH inside the call)."""
    system = EasyDRAMSystem(jetson_nano_time_scaling())
    session = system.session("beyond")
    assert system.mapper.strict
    tech = RowCloneTechnique(session)
    row_bytes = tech.geometry.row_bytes
    plan = tech.plan_copy(4 * row_bytes)
    plan.pairs = [dataclasses.replace(pair, reliable=fallback is None
                                      or i not in (1, 2))
                  for i, pair in enumerate(plan.pairs)]
    total = system.config.geometry.total_bytes
    plan.src_addr = total - 2 * row_bytes
    session.run_trace(microbench.touch_blocks(plan.src_addr, 1024,
                                              write=True))
    session.run_trace(microbench.touch_blocks(total - 512, 256, write=True))
    # The fill's decode raises, but the stored line stays dirty.
    with pytest.raises(ValueError):
        session.run_trace(microbench.touch_blocks(total + 128, 64,
                                                  write=True))
    with pytest.MonkeyPatch.context() as mp:
        if fallback == "engaged":
            copy = rowclone_module.cpu_copy_blocks
            mp.setattr(rowclone_module, "cpu_copy_blocks",
                       lambda src, dst, size: copy(src % total, dst, size))
        with pytest.raises(ValueError) as error:
            tech.execute_copy(plan, clflush=True)
    return session, tech, str(error.value)


def _compare_beyond(monkeypatch, fallback=None):
    """``_beyond_topology`` on the three paths: the same error and the
    same observables; returns the kernel run's and its calls."""
    outcomes = {}
    for mode in ("kernel", "staged", "off"):
        with monkeypatch.context() as mp:
            _enter(mode, mp)
            recorder = _Recorder(mp)
            session, tech, error = _beyond_topology(fallback)
            outcomes[mode] = error, _observe(session, tech)
        if mode == "kernel":
            calls = recorder.calls
            # Only the declined plan's row 0 takes a per-row episode.
            assert recorder.episodes == (1 if fallback == "declined" else 0)
    kernel_error, kernel = outcomes["kernel"]
    assert kernel_error == outcomes["staged"][0] == outcomes["off"][0]
    assert kernel == outcomes["staged"][1]
    off = outcomes["off"][1]
    for key in kernel:
        if key != "row_order":
            assert kernel[key] == off[key], key
    return kernel, calls


@needs_kernel
def test_out_of_range_flush_raises_the_same_error(monkeypatch):
    """The kernel stops at the row whose CLFLUSH decodes past the map and
    raises the mapper's own error; the rows finished before it count in
    every statistic exactly as on the per-row paths."""
    kernel, calls = _compare_beyond(monkeypatch)
    # One call, not declined, that raised; no per-row episode.
    assert [call[:3] for call in calls] == [(4, None, None)]
    stats = kernel["technique"]
    assert stats["rowclone_ops"] == 2
    assert stats["flushed_lines"] == 1024 // 64 + 256 // 64


@needs_kernel
@pytest.mark.parametrize("fallback", ("engaged", "declined"))
def test_out_of_range_flush_on_a_fallback_row(fallback, monkeypatch):
    """A fallback row whose CLFLUSH decodes past the map: the same error
    and the same ``RowCloneStats`` as row by row -- row 1's fallback
    counts, row 2's does not (its flush raised before its trace began).
    A fallback trace that itself leaves the map declines the plan."""
    kernel, calls = _compare_beyond(monkeypatch, fallback)
    if fallback == "engaged":
        assert [call[:3] for call in calls] == [(4, None, None)]
    else:
        assert [call[:3] for call in calls] == [
            (4, False, "fallback trace beyond the address map")]
    stats = kernel["technique"]
    assert (stats["rowclone_ops"], stats["fallback_rows"]) == (1, 1)
    assert stats["flushed_lines"] == 1024 // 64 + 256 // 64


@needs_kernel
def test_decode_error_charge_matches_the_object_path(monkeypatch):
    """A CLFLUSH writeback that decodes past a strict map raises after
    the request's receive and address-map charges and before its table
    insert, on the kernel's writeback entry as on the object path."""
    charged = {}
    for mode in ("kernel", "off"):
        with monkeypatch.context() as mp:
            _enter(mode, mp)
            system = EasyDRAMSystem(jetson_nano_time_scaling())
            session = system.session("decode-error")
            total = system.config.geometry.total_bytes
            # The fill's decode raises, but the stored line stays dirty.
            with pytest.raises(ValueError):
                session.run_trace([store(total + 128)])
            before = system.api.charged_cycles
            with pytest.raises(ValueError, match="beyond the"):
                session.clflush_range(total - 1024, 2048)
            charged[mode] = system.api.charged_cycles - before
    costs = system.api.costs
    assert charged["kernel"] == charged["off"]
    assert charged["off"] == (costs.critical_toggle + costs.receive_request
                              + costs.address_map)
