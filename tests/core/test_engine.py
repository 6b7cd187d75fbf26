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
from repro.dram.kernel import blockrun
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


@pytest.fixture(autouse=True)
def declined(monkeypatch):
    """Decline the event engine's resident replay, recording each try.

    These suites compare the two engines' serve paths batch by batch,
    so the event engine must serve gate by gate in the burst loop
    instead of running the whole trace resident in the kernel.
    """
    tries = []

    def decline(engine, session, procs, smc):
        tries.append(engine.name)
        return False

    monkeypatch.setattr(blockrun, "run_gated_kernel", decline)
    monkeypatch.setattr(blockrun, "run_cores_kernel", decline)
    return tries


def run_both(config_factory, driver):
    """Run ``driver(session)`` under both engines; return both snapshots.

    The event engine's burst loop must have served the run's requests.
    """
    outcomes = []
    for engine in ("cycle", "event"):
        system = EasyDRAMSystem(config_factory(), engine=engine)
        session = system.session("equivalence", engine=engine)
        driver(session)
        outcomes.append(snapshot(system, session.finish()))
        assert session.engine.stats.releases > 0
    return outcomes


def assert_equivalent(config_factory, driver):
    cycle, event = run_both(config_factory, driver)
    assert cycle == event


# -- workload drivers ---------------------------------------------------------
#
# Every run below goes through the burst loop: the ``declined`` fixture
# turns the event engine's resident replay down.


def chase_driver(session):
    session.run_trace(microbench.touch_blocks(0, 96 * 1024))
    session.run_trace(lmbench.pointer_chase_blocks(
        96 * 1024, 3000, base_addr=0))


def writeback_driver(session):
    # A store stream larger than the L2 forces dirty evictions, so the
    # batch mixes fills and posted writebacks (WR commands).
    size = session.hierarchy.l2.size_bytes * 2
    session.run_trace(microbench.cpu_init_blocks(0, size))
    session.run_trace(
        microbench.cpu_copy_blocks(0, size, size // 2))


def gap_driver(session):
    # Long compute gaps so tREFI deadlines land inside skipped intervals.
    trace = []
    for i in range(64):
        trace.append(load(i * 4096 * 64, gap=50_000))
    session.run_trace(trace)


def technique_driver(session):
    session.run_trace(
        microbench.touch_blocks(0, 32 * 1024, write=True))
    session.technique_op(lambda api: api.rowclone(0, 1, 2))
    session.clflush_range(0, 64 * 64)
    session.run_trace(lmbench.pointer_chase_blocks(
        64 * 1024, 800, base_addr=0))
    session.technique_op(lambda api: api.rowclone(1, 3, 4))
    session.run_trace(microbench.cpu_init_blocks(0, 32 * 1024))


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

    def test_event_engine_used_batched_path(self, declined):
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine="event")
        session = system.session("batched")
        chase_driver(session)
        session.finish()
        # Both trace segments were offered to the resident replay, which
        # declined, so the burst loop served them gate by gate.
        assert declined == ["event", "event"]
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
        session.run_trace(microbench.touch_blocks(0, 64 * 1024))
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
            session.run_trace([load(1 << 20, gap=1, dependent=True)])

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
    def test_default_is_event(self):
        assert resolve_engine_name(None) == "event"
        assert isinstance(make_engine(None), EventEngine)

    def test_default_engine_is_read_per_call(self, cycle_engine):
        assert resolve_engine_name(None) == "cycle"
        assert isinstance(make_engine(None), CycleEngine)
        assert EasyDRAMSystem(jetson_nano_time_scaling()).engine_name == \
            "cycle"

    def test_explicit_beats_default(self, cycle_engine):
        system = EasyDRAMSystem(jetson_nano_time_scaling(), engine="event")
        assert system.engine_name == "event"
        assert isinstance(system.session("s").engine, EventEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown emulation engine"):
            EasyDRAMSystem(jetson_nano_time_scaling(), engine="warp")
