"""Multi-core contention subsystem tests.

The shared-memory scenario engine must keep the repo's two standing
contracts — engine equivalence and fastpath equivalence — on multi-core
sessions, must leave the paper's single-core paths bit-identical, and
must actually model contention: cores slow each other down, the shared
controller attributes service per core, and the FR-FCFS age cap bounds
starvation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import ControllerConfig, jetson_nano_time_scaling
from repro.core.stats import fairness_of
from repro.core.system import EasyDRAMSystem
from repro.core.workload_mix import (
    CORE_REGION_BYTES,
    WorkloadMix,
    mix_names,
    run_mix,
)
from repro.cpu.blocks import blockify
from repro.cpu.memtrace import Access
from repro.workloads import microbench, polybench


def small_config(**controller):
    cfg = jetson_nano_time_scaling(
        l1=dataclasses.replace(jetson_nano_time_scaling().l1,
                               size_bytes=4 * 1024),
        l2=dataclasses.replace(jetson_nano_time_scaling().l2,
                               size_bytes=32 * 1024),
    )
    if controller:
        cfg = cfg.with_overrides(controller=ControllerConfig(**controller))
    return cfg


def run_snapshot(config, engine, mix, scale=1):
    run = run_mix(config, mix, engine=engine, scale=scale)
    d = dataclasses.asdict(run.result)
    d.pop("wall_seconds")
    return d, run.core_cycles, run.solo_cycles


MIX2 = WorkloadMix.parse("stream+pointer_chase")
MIX4 = WorkloadMix.parse("stream+init+pointer_chase", cores=4)


@pytest.mark.slow  # full dual-engine runs; CI's `slow` leg covers these
class TestEquivalence:
    def test_engines_bit_identical_two_cores(self):
        config = small_config()
        assert run_snapshot(config, "cycle", MIX2) == \
            run_snapshot(config, "event", MIX2)

    def test_engines_bit_identical_four_cores(self):
        config = small_config()
        assert run_snapshot(config, "cycle", MIX4) == \
            run_snapshot(config, "event", MIX4)

    def test_fastpath_bit_identical(self, request):
        """Production serve ladder == the object reference."""
        config = small_config()
        fast = run_snapshot(config, "event", MIX2)
        request.getfixturevalue("kernel_off")
        assert run_snapshot(config, "cycle", MIX2) == fast

    def test_deterministic_repeat(self):
        config = small_config()
        assert run_snapshot(config, "event", MIX4) == \
            run_snapshot(config, "event", MIX4)


class TestSingleCoreUnchanged:
    """One configured core must reproduce the plain session exactly."""

    @pytest.mark.parametrize("engine", ("cycle", "event"))
    def test_run_cores_matches_run_trace(self, engine):
        config = small_config()

        def observables(drive):
            system = EasyDRAMSystem(config, engine=engine)
            session = system.session("solo", engine=engine)
            drive(session)
            result = dataclasses.asdict(session.finish())
            result.pop("wall_seconds")
            smc = dataclasses.asdict(system.smc.stats)
            return result, smc, (system.counters.processor,
                                 system.counters.memory_controller)

        def trace():
            return microbench.cpu_copy_blocks(0, 1 << 21, 128 * 1024)

        via_trace = observables(lambda s: s.run_trace(trace()))
        via_cores = observables(lambda s: s.run_cores([trace()]))
        assert via_trace == via_cores

    def test_single_core_reports_no_per_core_slices(self):
        system = EasyDRAMSystem(small_config())
        result = system.run(microbench.touch_blocks(0, 64 * 1024), "t")
        assert result.per_core == []
        assert result.slowdowns == []
        assert result.unfairness == 0.0

    def test_single_core_installs_no_tracker(self):
        system = EasyDRAMSystem(small_config())
        session = system.session("solo")
        assert session._core_tracker is None
        assert system.smc._core_tracker is None


class TestContention:
    def test_slowdowns_at_least_one(self):
        run = run_mix(small_config(), MIX2)
        assert all(s >= 1.0 for s in run.slowdowns)
        assert run.unfairness >= 1.0

    def test_pointer_chase_is_the_victim(self):
        """The MLP-less chase suffers more than the bandwidth stream."""
        run = run_mix(small_config(), MIX2)
        stream, chase = run.slowdowns
        assert chase > stream

    def test_more_cores_more_contention(self):
        avg = {}
        for cores in (1, 2, 4):
            mix = WorkloadMix.parse("stream+init+pointer_chase", cores=cores)
            avg[cores] = run_mix(small_config(), mix).avg_slowdown
        assert avg[1] == pytest.approx(1.0)
        assert avg[2] >= avg[1]
        assert avg[4] >= avg[2]

    def test_per_core_attribution_sums_to_totals(self):
        run = run_mix(small_config(), MIX4)
        result = run.result
        assert len(result.per_core) == 4
        assert sum(c.serviced_reads + c.serviced_writes
                   for c in result.per_core) == sum(
                       result.requests_per_channel)
        assert sum(c.row_hits for c in result.per_core) == result.row_hits
        assert sum(c.row_misses for c in result.per_core) == \
            result.row_misses
        assert sum(c.row_conflicts for c in result.per_core) == \
            result.row_conflicts
        assert sum(c.accesses for c in result.per_core) == result.accesses
        for core in result.per_core:
            assert core.serviced_reads > 0
            assert core.slowdown >= 1.0

    def test_headline_cycles_is_makespan(self):
        run = run_mix(small_config(), MIX2)
        assert run.result.cycles == max(run.core_cycles)

    def test_multichannel_mix(self):
        """Cores and channels compose: a mix on a 2-channel topology."""
        config = small_config().with_topology("ddr4-2ch")
        run = run_mix(config, MIX2)
        result = run.result
        assert len(result.requests_per_channel) == 2
        assert all(n > 0 for n in result.requests_per_channel)
        assert sum(c.serviced_reads + c.serviced_writes
                   for c in result.per_core) == sum(
                       result.requests_per_channel)
        assert all(s >= 1.0 for s in run.slowdowns)


class TestWorkloadMix:
    def test_parse_pairs_and_repeats(self):
        assert WorkloadMix.parse("stream+pointer_chase").names == \
            ("stream", "pointer_chase")
        assert WorkloadMix.parse("stream*3").names == ("stream",) * 3
        assert WorkloadMix.parse("stream*2+init").names == \
            ("stream", "stream", "init")

    def test_parse_cycles_to_core_count(self):
        mix = WorkloadMix.parse("stream+pointer_chase", cores=4)
        assert mix.names == ("stream", "pointer_chase",
                             "stream", "pointer_chase")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown mix workload"):
            WorkloadMix.parse("definitely_not_a_workload")

    def test_polybench_kernels_resolvable(self):
        mix = WorkloadMix.parse("gemm*2")
        trace = mix.build(1)
        total = sum(len(b) for b in trace)
        assert total > 0

    def test_polybench_mix_rebases_each_core(self):
        """Each core's blocks equal the kernel's per-access stream
        shifted into its region, cut where blockify cuts it."""
        mix = WorkloadMix.parse("gemm*4")
        for core in range(mix.cores):
            base = mix.region_base(core)
            rebased = (Access(a.addr + base, a.flags, a.gap)
                       for a in polybench.trace_blocks(
                           "gemm", "mini").accesses())
            def columns(blocks):
                return [(b.addr.tolist(), b.flags.tolist(), b.gap.tolist())
                        for b in blocks]

            expected = columns(blockify(rebased))
            assert columns(mix.build(core)) == expected

    def test_regions_are_disjoint(self):
        mix = WorkloadMix.parse("stream+init+pointer_chase+gemm")
        for core in range(mix.cores):
            lo = mix.region_base(core)
            hi = lo + CORE_REGION_BYTES
            for block in mix.build(core):
                assert all(lo <= a < hi for a in block.addr), \
                    f"core {core} escaped its region"

    def test_region_escape_raises(self):
        """A scale that overflows the core region fails loudly.

        Silent overlap would alias another core's footprint and quietly
        invalidate every slowdown/fairness number.
        """
        mix = WorkloadMix.parse("stream")
        with pytest.raises(ValueError, match="escaped its region"):
            for _ in mix.build(0, scale=64):
                pass

    def test_mix_names_lists_builtins_and_polybench(self):
        names = mix_names()
        assert "stream" in names and "pointer_chase" in names
        assert "gemm" in names

    def test_homogeneous_quad_runs(self):
        run = run_mix(small_config(), WorkloadMix.parse("trisolv*2"))
        assert all(s >= 1.0 for s in run.slowdowns)


class TestAgeCapEndToEnd:
    def test_age_cap_bounds_worst_case_latency(self):
        """With the cap, the chase's worst wait under a hit storm shrinks.

        A deterministic end-to-end check of the anti-starvation guard:
        same mix, FR-FCFS with and without the cap; the capped
        scheduler may not *increase* the victim core's slowdown.
        """
        mix = WorkloadMix.parse("stream+init+pointer_chase", cores=4)
        uncapped = run_mix(small_config(scheduler="fr-fcfs"), mix)
        capped = run_mix(
            small_config(scheduler="fr-fcfs", scheduler_age_cap=8), mix)
        assert capped.max_slowdown <= uncapped.max_slowdown * 1.05
        assert capped.unfairness <= uncapped.unfairness * 1.05


class TestResultEdgeCases:
    """CoreResult / fairness math at the corners of the metric space."""

    def test_single_core_mix_is_perfectly_fair(self):
        run = run_mix(small_config(), WorkloadMix.parse("stream"))
        # One core: the shared run IS the solo run, so the slowdown is
        # exactly 1.0 and unfairness is the perfectly-fair 1.0.
        assert run.slowdowns == [1.0]
        assert run.max_slowdown == run.min_slowdown == 1.0
        assert run.unfairness == 1.0

    def test_fairness_of_ignores_unknown_slowdowns(self):
        assert fairness_of([]) == 0.0
        assert fairness_of([0.0, 0.0]) == 0.0       # nothing known
        assert fairness_of([2.0, 0.0]) == 1.0       # one known core
        assert fairness_of([3.0, 1.5]) == 2.0

    def test_core_with_zero_serviced_requests(self):
        system = EasyDRAMSystem(small_config())
        session = system.session("busy")
        session.add_core("idle")
        busy = microbench.cpu_copy_blocks(0, 1 << 21, 64 * 1024)
        session.run_cores([busy, ()])               # core 1 issues nothing
        result = session.finish()
        idle = result.per_core[1]
        assert idle.accesses == 0
        assert idle.serviced_reads == 0
        assert idle.serviced_writes == 0
        assert idle.row_hit_rate == 0.0             # 0/0 guards to 0.0
        # No solo references were set, so fairness is unknown, not inf.
        assert idle.slowdown == 0.0
        assert result.unfairness == 0.0

    def test_demand_attribution_matches_row_outcomes(self):
        system = EasyDRAMSystem(small_config())
        session = system.session("first")
        session.add_core("second")
        region = CORE_REGION_BYTES
        session.run_cores([
            microbench.cpu_copy_blocks(0, 1 << 21, 64 * 1024),
            microbench.cpu_copy_blocks(region, region + (1 << 21),
                                       64 * 1024)])
        result = session.finish()
        # Every serviced request has exactly one row-outcome note on its
        # core, and the per-core sums are the channel totals.
        for core in result.per_core:
            assert core.serviced_reads + core.serviced_writes == \
                core.row_hits + core.row_misses + core.row_conflicts
        assert sum(c.serviced_reads + c.serviced_writes
                   for c in result.per_core) == sum(
                       result.requests_per_channel)
