"""The staged FPM RowClone episode, and the helpers its kernel form's
tests share.

``technique_episode`` stages a :class:`~repro.core.easyapi.RowCloneOp`
through EasyAPI and walks its Bender program, like every other
technique episode; ``test_rowclone_rows`` checks the kernel's RowClone
rows against that walk with :func:`_observe`'s observables (releases,
Bender results, controller, tile, device and Bender counters, row
contents, bank state and violation records).  Here each cell drives one
system through random prior bank state (open rows, refreshes falling
due) and random RowClone episodes (reliable, unreliable and
cross-subarray pairs): every episode walks one Bender program beyond
its refreshes, and a checker switched to strict mode part-way raises
on the next FPM sequence.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import jetson_nano_time_scaling
from repro.core.easyapi import RowCloneOp
from repro.core.system import EasyDRAMSystem
from repro.cpu.processor import MemoryRequest
from repro.dram.timing_checker import TimingViolation

TOPOLOGIES = ("ddr4-1ch", "ddr4-1ch-2rk", "ddr4-2ch")

#: Cells that run in tier-1; every other cell is ``slow``.
_TIER1 = {("ddr4-1ch", False, 0), ("ddr4-1ch-2rk", True, 1)}


def _cells():
    for topology in TOPOLOGIES:
        for strict in (False, True):
            for seed in range(4):
                marks = (() if (topology, strict, seed) in _TIER1
                         else (pytest.mark.slow,))
                yield pytest.param(topology, strict, seed, marks=marks,
                                   id=f"{topology}-{'strict' if strict else 'permissive'}-{seed}")


class _Counting:
    """Counts one system's Bender program walks (per channel)."""

    def __init__(self, system) -> None:
        self.calls = [0] * system.num_channels
        self.extra: list[int] = []
        for channel in system.channels:
            engine = channel.tile.engine
            original = engine.execute

            def execute(program, start_ps=0, _original=original,
                        _index=channel.index):
                self.calls[_index] += 1
                return _original(program, start_ps=start_ps)

            engine.execute = execute


def _pairs(system, rng, count):
    """Random (channel, bank, src, dst) of every kind: reliable,
    unreliable intra-subarray, and cross-subarray (the copy misses)."""
    g = system.config.geometry
    cells = system.tile.cells
    out = []
    while len(out) < count:
        channel = rng.randrange(g.channels)
        bank = rng.randrange(g.total_banks)
        src = rng.randrange(g.rows_per_bank)
        kind = rng.choice(("reliable", "unreliable", "miss"))
        sub = g.subarray_of(src)
        first = sub * g.subarray_rows
        last = min(first + g.subarray_rows, g.rows_per_bank)
        if kind == "miss":
            dst = rng.randrange(g.rows_per_bank)
            if g.subarray_of(dst) == sub:
                continue
        else:
            want = kind == "reliable"
            candidates = [r for r in range(first, last) if r != src
                          and cells.rowclone_pair_reliable(bank, src, r) == want]
            if not candidates:
                continue
            dst = rng.choice(candidates)
        out.append((channel, bank, src, dst))
    return out


def _script(system, seed):
    """The shared random episode script: prior traffic and RowClones."""
    rng = random.Random(seed)
    g = system.config.geometry
    steps = []
    for channel, bank, src, dst in _pairs(system, rng, 24):
        traffic = []
        for _ in range(rng.randrange(0, 4)):
            # A conventional access opens a row (or hits an open one).
            traffic.append((rng.randrange(g.channels),
                            rng.randrange(g.total_banks),
                            rng.choice((src, dst, rng.randrange(g.rows_per_bank))),
                            rng.randrange(g.columns_per_row),
                            rng.random() < 0.4))
        # Gaps up to ~1.5 tREFI, so refreshes fall due in many episodes.
        gap = rng.choice((0, 1, rng.randrange(40), rng.randrange(16000)))
        steps.append((traffic, gap, (channel, bank, src, dst),
                      rng.random() < 0.2))
    return steps


def _drive(topology, strict, seed):
    config = jetson_nano_time_scaling().with_topology(topology)
    system = EasyDRAMSystem(config)
    counting = _Counting(system)
    mapper = system.mapper
    cycle = 0
    rid = 0
    outcomes = []
    for index, (traffic, gap, (ch, bank, src, dst), respect) in enumerate(
            _script(system, seed)):
        if strict and index == 3 + 5 * seed:
            # Strict from here on: the next FPM sequence must raise.
            for channel in system.channels:
                channel.tile.device.checker.strict = True
        for t_ch, t_bank, t_row, t_col, is_write in traffic:
            addr = mapper.row_base_physical(t_bank, t_row, channel=t_ch) \
                + t_col * config.geometry.line_bytes
            request = MemoryRequest(rid=rid, addr=addr, is_write=is_write,
                                    tag=cycle, channel=t_ch)
            rid += 1
            system.smc_for(t_ch).service_pending([request])
            cycle = max(cycle, request.release)
        cycle += gap
        smc = system.smc_for(ch)
        stage = RowCloneOp(bank, src, dst)
        calls, refreshes = counting.calls[ch], smc.stats.refreshes
        try:
            release, result = smc.technique_episode(stage, issue_cycle=cycle,
                                                    respect_timing=respect)
            # Bender walks beyond the episode's own refresh programs.
            counting.extra.append(counting.calls[ch] - calls
                                  - (smc.stats.refreshes - refreshes))
        except TimingViolation as exc:
            outcomes.append(("violation", exc.command.kind, exc.command.bank,
                             exc.command.row, exc.command.col, exc.time_ps,
                             exc.earliest_ps, exc.constraint))
            break
        outcomes.append((release, dataclasses.asdict(result),
                         dataclasses.asdict(smc.api.last_exec)))
        cycle = max(cycle, release)
    return system, counting, outcomes


def _observe(system) -> dict:
    state = {}
    for channel in system.channels:
        tile, device = channel.tile, channel.tile.device
        state[channel.index] = {
            "smc": dataclasses.asdict(channel.smc.stats),
            "cursors": (channel.smc.sched_cursor, channel.smc.dram_cursor,
                        channel.smc._next_refresh_ps,
                        channel.api.charged_cycles),
            "tile": dataclasses.asdict(tile.stats),
            "device": dataclasses.asdict(device.stats),
            "bender": (tile.engine.programs_run,
                       tile.engine.total_interface_cycles),
            "rows": {key: bytes(value) for key, value in device._rows.items()},
            "banks": [dataclasses.asdict(bank) for bank in device.banks],
            "ranks": [dataclasses.asdict(rank) for rank in device.ranks],
            "last_issue": device._last_issue_ps,
            "violations": [(v.command.kind, v.command.bank, v.command.row,
                            v.command.col, v.time_ps, v.earliest_ps,
                            v.constraint)
                           for v in device.checker.violations],
        }
    state["counters"] = vars(system.counters)
    return state


@pytest.mark.parametrize("topology,strict,seed", list(_cells()))
def test_staged_fpm_episodes(topology, strict, seed):
    system, counting, outcomes = _drive(topology, strict, seed)
    # Each episode walks its own Bender program beyond its refreshes'.
    assert counting.extra == [1] * len(counting.extra)
    state = _observe(system)
    violations = [v for channel in system.channels
                  for v in state[channel.index]["violations"]]
    if strict:
        # Every FPM sequence violates tRAS, so the first strict episode
        # raises, naming the constraint.
        assert len(outcomes) == 4 + 5 * seed
        assert outcomes[-1][0] == "violation"
        assert outcomes[-1][-1] == "tRAS"
    else:
        assert len(counting.extra) == len(outcomes) == 24
        assert sum(smc.stats.refreshes for smc in system.smcs) > 0
        device_stats = [c.tile.device.stats for c in system.channels]
        attempts = sum(d.rowclone_attempts for d in device_stats)
        successes = sum(d.rowclone_successes for d in device_stats)
        assert 0 < successes < attempts
    assert "tRAS" in {v[-1] for v in violations}
