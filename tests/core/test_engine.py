"""Engine equivalence and burst-loop edge cases.

The event engine's contract is that it is a pure host-time
optimization: every emulated quantity — run results, controller and
device statistics, timing-violation records, counters — must be
bit-identical to the cycle engine's object reference.  These tests pin
that contract across configurations, workloads (including writebacks,
refresh storms, and technique interleavings), and the gate and release
edge cases the burst loop must get right.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import (
    cortex_a57_reference,
    jetson_nano_time_scaling,
    pidram_no_time_scaling,
    validation_time_scaled,
)
from repro.core.engine import (
    CycleEngine,
    EventEngine,
    make_engine,
    resolve_engine_name,
)
from repro.core.system import EasyDRAMSystem, EmulationDeadlock
from repro.cpu.memtrace import load
from repro.cpu.processor import MemoryRequest
from repro.dram.bank import BankState, RankState
from repro.dram.commands import Command, CommandKind
from repro.dram.timing import ddr4_1333
from repro.dram.timing_checker import TimingChecker
from repro.workloads import lmbench, microbench

CONFIGS = {
    "jetson": jetson_nano_time_scaling,
    "pidram": pidram_no_time_scaling,
    "a57": cortex_a57_reference,
    "validation": validation_time_scaled,
}


def snapshot(system: EasyDRAMSystem, result) -> dict:
    """Every emulated observable of a finished run (host wall time excluded)."""
    run = dataclasses.asdict(result)
    run.pop("wall_seconds")
    return {
        "run": run,
        "smc": dataclasses.asdict(system.smc.stats),
        "tile": dataclasses.asdict(system.tile.stats),
        "device": dataclasses.asdict(system.device.stats),
        "violations": [
            (v.constraint, v.time_ps, v.earliest_ps, v.command.kind)
            for v in system.device.checker.violations],
        "counters": (system.counters.processor,
                     system.counters.memory_controller,
                     system.counters.critical_entries,
                     system.counters.catch_up_cycles),
        "cursors": (system.smc.sched_cursor, system.smc.dram_cursor),
        "bender": (system.tile.engine.programs_run,
                   system.tile.engine.total_interface_cycles),
    }


def run_both(config_factory, driver):
    """Run ``driver(session)`` under both engines; return both snapshots."""
    outcomes = []
    for engine in ("cycle", "event"):
        system = EasyDRAMSystem(config_factory(), engine=engine)
        session = system.session("equivalence", engine=engine)
        driver(session)
        outcomes.append(snapshot(system, session.finish()))
    return outcomes


def assert_equivalent(config_factory, driver):
    cycle, event = run_both(config_factory, driver)
    assert cycle == event


# -- workload drivers ---------------------------------------------------------


def chase_driver(session):
    session.run_trace(microbench.touch_trace(0, 96 * 1024))
    session.run_trace(lmbench.pointer_chase(96 * 1024, 3000, base_addr=0))


def writeback_driver(session):
    # A store stream larger than the L2 forces dirty evictions, so the
    # batch mixes fills and posted writebacks (WR commands).
    size = session.hierarchy.l2.size_bytes * 2
    session.run_trace(microbench.cpu_init_trace(0, size))
    session.run_trace(microbench.cpu_copy_trace(0, size, size // 2))


def gap_driver(session):
    # Long compute gaps so tREFI deadlines land inside skipped intervals.
    trace = []
    for i in range(64):
        trace.append(load(i * 4096 * 64, gap=50_000))
    session.run_trace(trace)


def technique_driver(session):
    session.run_trace(microbench.touch_trace(0, 32 * 1024, write=True))
    session.technique_op(lambda api: api.rowclone(0, 1, 2))
    session.clflush_range(0, 64 * 64)
    session.run_trace(lmbench.pointer_chase(64 * 1024, 800, base_addr=0))
    session.technique_op(lambda api: api.rowclone(1, 3, 4))
    session.run_trace(microbench.cpu_init_trace(0, 32 * 1024))


class TestEngineEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_pointer_chase_identical(self, config_name):
        assert_equivalent(CONFIGS[config_name], chase_driver)

    @pytest.mark.slow  # heaviest equivalence pair in this file (~7 s)
    @pytest.mark.parametrize("config_name", ["jetson", "pidram"])
    def test_writebacks_identical(self, config_name):
        assert_equivalent(CONFIGS[config_name], writeback_driver)

    def test_refresh_heavy_identical(self):
        assert_equivalent(jetson_nano_time_scaling, gap_driver)

    def test_technique_interleaving_identical(self):
        """Technique episodes and CLFLUSH share cursors with batched
        episodes; mixing the fast and reference paths must not skew."""
        assert_equivalent(jetson_nano_time_scaling, technique_driver)

    def test_event_engine_used_batched_path(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine="event")
        session = system.session("batched")
        chase_driver(session)
        session.finish()
        assert session.engine.stats.batched_episodes > 0
        assert session.engine.stats.fallback_episodes == 0
        assert session.engine.stats.gates > 0

    def test_serve_hook_falls_back_to_reference_path(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine="event")
        session = system.session("hooked")
        calls = []

        def hook(api, entry):
            calls.append(entry.request.rid)
            if entry.is_write:
                api.write_sequence(entry.dram)
            else:
                api.read_sequence(entry.dram)

        system.smc.serve_hook = hook
        session.run_trace(microbench.touch_trace(0, 64 * 1024))
        session.finish()
        assert calls, "hook never saw a request"
        assert session.engine.stats.fallback_episodes > 0
        assert session.engine.stats.batched_episodes == 0


class TestEventSchedulerEdgeCases:
    @pytest.mark.parametrize("engine", ["cycle", "event"])
    def test_blocked_with_no_pending_raises_deadlock(self, engine):
        """Zero pending requests at a gate is a hard error, not a hang."""
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
        session = system.session("deadlock")
        session.processor.outstanding.append(
            MemoryRequest(rid=0, addr=0, is_write=False, tag=0))
        with pytest.raises(EmulationDeadlock):
            session.run_trace([load(1 << 30, gap=1, dependent=True)])

    @staticmethod
    def _coarse_clock_config():
        """A processor clock so slow that one emulated cycle spans many
        controller service slots: distinct DRAM completions quantize onto
        the same release cycle (back-to-back releases)."""
        from repro.core.timescale import ClockDomain
        from repro.cpu.processor import ProcessorConfig

        return jetson_nano_time_scaling(
            processor_domain=ClockDomain("processor", 100e6, 10e6),
            processor=ProcessorConfig(
                name="coarse-10MHz", emulated_freq_hz=10e6,
                fpga_freq_hz=100e6, mlp=16, miss_window=96))

    def test_back_to_back_release_cycles(self):
        """Several responses can release on the same processor cycle;
        both engines must agree on every release."""
        def releases(engine):
            system = EasyDRAMSystem(self._coarse_clock_config(), engine=engine)
            session = system.session("b2b")
            session.run_trace([load(i * 64, gap=0) for i in range(256)])
            session.finish()
            # release - tag per request, all consumed by the drain.
            return tuple(session.processor.stats.request_latencies)

        cycle, event = releases("cycle"), releases("event")
        assert cycle == event

    def test_equal_release_cycles_observed_by_event_queue(self):
        """The coarse-clock batch really does produce same-cycle
        releases, and every gate hands each one back in order."""
        system = EasyDRAMSystem(self._coarse_clock_config(), engine="event")
        session = system.session("b2b-queue")
        seen = []
        smc = system.smc
        original = smc.service_pending_batched

        def spy(requests):
            out = original(requests)
            seen.extend(r.release for r in requests)
            # Every serviced request got a release, and the processor's
            # next release is the oldest outstanding fill's.
            assert all(r.release is not None for r in requests)
            outstanding = session.processor.outstanding
            if outstanding:
                assert (session.processor.next_release_cycle()
                        == outstanding[0].release)
            return out

        smc.service_pending_batched = spy
        session.run_trace([load(i * 64, gap=0) for i in range(256)])
        session.finish()
        duplicates = len(seen) - len(set(seen))
        assert duplicates > 0, "workload never produced equal release cycles"

    def test_refresh_deadline_inside_skipped_interval(self):
        """A compute gap that skips past tREFI deadlines must still issue
        every refresh at its exact emulated time, in both engines."""
        cycle, event = run_both(jetson_nano_time_scaling, gap_driver)
        assert cycle == event
        assert cycle["run"]["refreshes"] > 1

        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine="event")
        session = system.session("refresh-deadlines")
        gap_driver(session)
        session.finish()
        assert session.system.smc.stats.refreshes > 1

    def test_refresh_disabled_never_calls_sink(self):
        config = jetson_nano_time_scaling(
            controller=dataclasses.replace(
                jetson_nano_time_scaling().controller, refresh_enabled=False))
        cycle, event = run_both(lambda: config, chase_driver)
        assert cycle == event
        assert cycle["run"]["refreshes"] == 0


class TestEngineSelection:
    def test_default_is_event(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine_name(None) == "event"
        assert isinstance(make_engine(None), EventEngine)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "cycle")
        assert resolve_engine_name(None) == "cycle"
        assert isinstance(make_engine(None), CycleEngine)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "cycle")
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine="event")
        assert system.engine_name == "event"
        assert isinstance(system.session("s").engine, EventEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown emulation engine"):
            EasyDRAMSystem(jetson_nano_time_scaling(), engine="warp")


class TestBatchedTimingQueries:
    """earliest_ps must compute exactly what earliest_issue computes."""

    def _random_state(self, rng, geometry):
        banks = []
        for i in range(geometry.num_banks):
            bank = BankState(i)
            if rng.random() < 0.8:
                bank.last_act = rng.randrange(0, 2_000_000)
                bank.open_row = rng.randrange(0, geometry.rows_per_bank)
            if rng.random() < 0.7:
                bank.last_pre = rng.randrange(0, 2_000_000)
                if rng.random() < 0.5:
                    bank.open_row = None
            if rng.random() < 0.6:
                bank.last_read = rng.randrange(0, 2_000_000)
            if rng.random() < 0.6:
                bank.last_write = rng.randrange(0, 2_000_000)
                bank.last_write_data_end = bank.last_write + rng.randrange(0, 20_000)
            banks.append(bank)
        rank = RankState()
        for _ in range(rng.randrange(0, 6)):
            rank.recent_acts.append(rng.randrange(0, 2_000_000))
        if rng.random() < 0.5:
            rank.last_ref = rng.randrange(0, 2_000_000)
        return banks, rank

    def test_matches_full_enumeration_on_random_states(self):
        timing = ddr4_1333()
        from repro.dram.address import Geometry

        geometry = Geometry()
        checker = TimingChecker(timing, geometry, strict=False)
        rng = random.Random(0xEA5D)
        kinds = [
            lambda b, r: Command(CommandKind.ACT, bank=b, row=r),
            lambda b, r: Command(CommandKind.PRE, bank=b),
            lambda b, r: Command(CommandKind.PREA),
            lambda b, r: Command(CommandKind.RD, bank=b, col=0),
            lambda b, r: Command(CommandKind.WR, bank=b, col=0),
            lambda b, r: Command(CommandKind.REF),
        ]
        for _ in range(300):
            banks, rank = self._random_state(rng, geometry)
            cmd = rng.choice(kinds)(
                rng.randrange(geometry.num_banks),
                rng.randrange(geometry.rows_per_bank))
            full, _name = checker.earliest_issue(cmd, banks, rank)
            assert checker.earliest_ps(cmd, banks, rank) == full

    def test_check_fast_records_identical_violations(self):
        timing = ddr4_1333()
        from repro.dram.address import Geometry

        geometry = Geometry()
        slow = TimingChecker(timing, geometry, strict=False)
        fast = TimingChecker(timing, geometry, strict=False)
        banks = [BankState(i) for i in range(geometry.num_banks)]
        rank = RankState()
        banks[0].activate(100, 10_000)
        early_pre = Command(CommandKind.PRE, bank=0)
        # tRAS violation: PRE right after the ACT.
        slow.check(early_pre, 12_000, banks, rank)
        fast.check_fast(early_pre, 12_000, banks, rank)
        assert len(slow.violations) == len(fast.violations) == 1
        a, b = slow.violations[0], fast.violations[0]
        assert (a.constraint, a.time_ps, a.earliest_ps) == \
            (b.constraint, b.time_ps, b.earliest_ps)

    def test_strict_mode_raises_from_fast_path(self):
        from repro.dram.address import Geometry
        from repro.dram.timing_checker import TimingViolation

        checker = TimingChecker(ddr4_1333(), Geometry(), strict=True)
        banks = [BankState(i) for i in range(Geometry().num_banks)]
        rank = RankState()
        banks[0].activate(100, 10_000)
        with pytest.raises(TimingViolation):
            checker.check_fast(Command(CommandKind.PRE, bank=0), 12_000,
                               banks, rank)
