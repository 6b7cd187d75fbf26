"""Multi-channel system tests: routing, equivalence, scaling, techniques.

The :class:`~repro.core.channels.ChannelSet` façade must keep the
engine-equivalence and fastpath-equivalence contracts that hold on the
paper's single-channel system: both engines, with the array-native fast
path on or off, produce bit-identical emulated observables on any
topology.  On top of that, channel-level parallelism must actually pay:
a bandwidth-bound stream finishes faster on more channels.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.core.techniques.rowclone import RowCloneTechnique
from repro.core.techniques.trcd import TrcdReductionTechnique
from repro.dram.timing import ns
from repro.profiling.characterize import oracle_characterize
from repro.workloads import lmbench, microbench


def two_channel_config(**kwargs):
    return jetson_nano_time_scaling().with_topology("ddr4-2ch", **kwargs)


def snapshot(system: EasyDRAMSystem, result) -> dict:
    """Every emulated observable, per channel (host wall time excluded)."""
    run = dataclasses.asdict(result)
    run.pop("wall_seconds")
    return {
        "run": run,
        "smc": [dataclasses.asdict(smc.stats) for smc in system.smcs],
        "tile": [dataclasses.asdict(t.stats) for t in system.tiles],
        "device": [dataclasses.asdict(c.tile.device.stats)
                   for c in system.channels],
        "violations": [
            [(v.constraint, v.time_ps, v.earliest_ps, v.command.kind)
             for v in c.tile.device.checker.violations]
            for c in system.channels],
        "cursors": [(smc.sched_cursor, smc.dram_cursor)
                    for smc in system.smcs],
        "counters": (system.counters.processor,
                     system.counters.memory_controller),
    }


def mixed_driver(session):
    """Streams + dependent chases + flushes across both channels."""
    system = session.system
    session.run_trace(microbench.channel_stream_blocks(
        system.mapper, 1024, write=True))
    session.run_trace(lmbench.pointer_chase_blocks(64 * 1024, 2000,
                                                   base_addr=0))
    session.clflush_range(0, 32 * 1024)
    session.run_trace(microbench.cpu_copy_blocks(0, 1 << 22, 64 * 1024))


def run_config(config, engine):
    system = EasyDRAMSystem(config, engine=engine)
    session = system.session("mc", engine=engine)
    mixed_driver(session)
    return snapshot(system, session.finish())


class TestEquivalence:
    @pytest.mark.parametrize("scheme", ("channel-line", "channel-row",
                                        "channel-xor"))
    def test_engines_bit_identical_two_channels(self, scheme):
        config = two_channel_config(mapping_scheme=scheme)
        assert run_config(config, "cycle") == run_config(config, "event")

    def test_engines_bit_identical_four_channels(self):
        config = jetson_nano_time_scaling().with_topology("ddr4-4ch")
        assert run_config(config, "cycle") == run_config(config, "event")

    def test_fastpath_bit_identical_two_channels(self, monkeypatch):
        """Production serve ladder == the object reference."""
        config = two_channel_config()
        fast = run_config(config, "event")
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert run_config(config, "cycle") == fast

    def test_multi_rank_engines_bit_identical(self):
        config = jetson_nano_time_scaling().with_topology("ddr4-2ch-2rk")
        assert run_config(config, "cycle") == run_config(config, "event")


class TestRouting:
    def test_requests_reach_every_channel(self):
        system = EasyDRAMSystem(two_channel_config())
        result = system.run(microbench.channel_stream_blocks(
            system.mapper, 2048, write=True), "route")
        assert len(result.requests_per_channel) == 2
        assert all(n > 0 for n in result.requests_per_channel)
        assert sum(result.requests_per_channel) >= result.llc_miss_requests

    def test_requests_tagged_with_decoded_channel(self):
        system = EasyDRAMSystem(two_channel_config())
        session = system.session("tags")
        session.run_trace(microbench.touch_blocks(0, 64 * 1024))
        # Every serviced request went to the controller its address maps
        # to: each device only ever saw its own channel's banks.
        for channel in system.channels:
            assert channel.tile.stats.requests_received > 0

    def test_single_channel_has_no_channel_set(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        assert system.smc is system.channels[0].smc
        assert system.num_channels == 1


class TestScaling:
    def test_stream_faster_on_more_channels(self):
        lines_per_channel = 4096
        times = {}
        for name in ("ddr4-1ch", "ddr4-2ch", "ddr4-4ch"):
            config = jetson_nano_time_scaling().with_topology(
                name, mapping_scheme="channel-line")
            system = EasyDRAMSystem(config)
            channels = config.geometry.channels
            trace = microbench.channel_stream_blocks(
                system.mapper, lines_per_channel * 4 // channels, write=True)
            times[channels] = system.run(trace, name).emulated_ps
        assert times[2] < times[1]
        assert times[4] < times[2]


class TestTechniques:
    def test_rowclone_spans_channels(self):
        config = two_channel_config(mapping_scheme="channel-row")
        system = EasyDRAMSystem(config)
        session = system.session("rowclone-mc")
        technique = RowCloneTechnique(session)
        g = config.geometry
        plan = technique.plan_copy(8 * g.row_bytes)
        assert {p.channel for p in plan.pairs} == {0, 1}
        technique.execute_copy(plan)
        assert technique.copy_is_correct(plan)
        # The in-DRAM ops ran on both channels' controllers.
        ops = [smc.stats.technique_ops for smc in system.smcs]
        assert all(n > 0 for n in ops)

    def test_rowclone_rejects_line_interleave(self):
        config = two_channel_config(mapping_scheme="channel-line")
        session = EasyDRAMSystem(config).session("rowclone-bad")
        with pytest.raises(ValueError, match="row-contiguous"):
            RowCloneTechnique(session)

    def test_trcd_installs_on_every_channel(self):
        config = two_channel_config()
        system = EasyDRAMSystem(config)
        g = config.geometry
        characterization = oracle_characterize(
            system.tile.cells, g, range(4), range(64))
        technique = TrcdReductionTechnique(system, characterization,
                                           reduced_trcd_ps=ns(9.0))
        technique.install()
        assert all(smc.serve_hook is not None for smc in system.smcs)
        system.run(microbench.channel_stream_blocks(system.mapper, 512),
                   "trcd-mc")
        assert technique.stats.reduced_acts + technique.stats.nominal_acts > 0
        technique.uninstall()
        assert all(smc.serve_hook is None for smc in system.smcs)
