"""Kernel fallback reasons: one test per reason string the SMC records.

The batch kernel serves every registry scheduler on single- and
multi-rank channels; what it still refuses, it refuses with a recorded
reason (``SoftwareMemoryController.kernel_fallback_reason``, surfaced by
``repro profile`` and the benchmark's trace).  Each reason below is
provoked on a fresh system and must read exactly as documented.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import (ControllerConfig, InterferenceConfig,
                               jetson_nano_time_scaling)
from repro.core.schedulers import (FRFCFS, Scheduler, _RankedScheduler,
                                   scheduler_names)
from repro.core.system import EasyDRAMSystem
from repro.cpu.processor import MemoryRequest
from repro.dram.kernel import cbackend

needs_kernel = pytest.mark.skipif(cbackend.load()[0] is None,
                                  reason="no C compiler for the kernel")


@pytest.fixture
def kernel_on(monkeypatch):
    """Force the compiled kernel on (CI also runs with REPRO_KERNEL=0)."""
    monkeypatch.setenv("REPRO_KERNEL", "c")


def _smc(config=None):
    return EasyDRAMSystem(config or jetson_nano_time_scaling()).smc


def _reason(smc) -> str | None:
    return smc._kernel_structural_reason()


@pytest.mark.parametrize("topology", ("ddr4-1ch", "ddr4-1ch-2rk"))
@pytest.mark.parametrize("scheduler", scheduler_names())
def test_registry_schedulers_engage(scheduler, topology):
    config = jetson_nano_time_scaling(
        controller=ControllerConfig(scheduler=scheduler)
    ).with_topology(topology)
    assert _reason(_smc(config)) is None


class _Ranked(_RankedScheduler):
    name = "atlas"   # a registry name does not make a registry class

    def _group(self, arrival_order, core):
        return 0

    def decision_cost(self, table_len):
        return 1


class _Plain(Scheduler):
    name = "plain"

    def select(self, table, banks):
        return table[0]

    def decision_cost(self, table_len):
        return 1


class _TweakedFRFCFS(FRFCFS):
    pass


@pytest.mark.parametrize("cls", (_Ranked, _Plain, _TweakedFRFCFS))
def test_custom_scheduler(cls):
    smc = _smc()
    smc.scheduler = cls()
    assert _reason(smc) == f"custom scheduler ({cls.__name__})"


def test_strict_timing_mode():
    smc = _smc()
    smc._device.checker.strict = True
    assert _reason(smc) == "strict timing mode"


def test_retention_modeling():
    smc = _smc()
    smc._device.retention_modeling = True
    assert _reason(smc) == "retention modeling enabled"


def test_row_activation_tracking():
    config = jetson_nano_time_scaling(
        interference=InterferenceConfig(track_row_activations=True))
    assert _reason(_smc(config)) == "row-activation tracking enabled"


@pytest.mark.parametrize("topology", ("ddr4-1ch", "ddr4-1ch-2rk"))
@pytest.mark.parametrize("field, delta", (
    ("tRRD_S", "tRRD_L"),     # tRRD_S > tRRD_L
    ("tRRD_L", "tRC"),        # tRRD_L > tRC
    ("tCCD_S", "tCCD_L"),     # tCCD_S > tCCD_L
))
def test_non_uniform_bank_group_timing(field, delta, topology):
    base = jetson_nano_time_scaling()
    timing = dataclasses.replace(
        base.timing, **{field: getattr(base.timing, delta) + base.timing.tCK})
    config = base.with_overrides(timing=timing).with_topology(topology)
    assert _reason(_smc(config)) == "non-uniform bank-group timing"


def test_per_rank_refresh():
    config = jetson_nano_time_scaling(
        interference=InterferenceConfig(refresh_storm_rank=1)
    ).with_topology("ddr4-1ch-2rk")
    assert _reason(_smc(config)) == "per-rank refresh"


def test_cell_margins_exceed_trcd():
    smc = _smc()
    cells = smc._device.cells
    cells.config = dataclasses.replace(
        cells.config, weak_max_ps=smc.config.timing.tRCD + 1)
    assert _reason(smc) == "cell tRCD margins exceed tRCD"


def test_kernel_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "0")
    smc = _smc()
    assert not smc.service_pending_kernel(_requests())
    assert smc.kernel_fallback_reason == "disabled (REPRO_KERNEL=0)"


def _requests(n: int = 4) -> list[MemoryRequest]:
    return [MemoryRequest(rid=i, addr=64 * i, is_write=False, tag=i)
            for i in range(n)]


@needs_kernel
def test_serve_hook(kernel_on):
    smc = _smc()
    smc.serve_hook = lambda api, entry: None
    assert not smc.service_pending_kernel(_requests())
    assert smc.kernel_fallback_reason == "technique episode (serve hook)"


@needs_kernel
def test_staged_tile_state(kernel_on):
    smc = _smc()
    smc.api.stage_refresh()
    assert not smc.service_pending_kernel(_requests())
    assert smc.kernel_fallback_reason == "staged tile state pending"


@needs_kernel
def test_engaged_batch_clears_the_reason(kernel_on):
    smc = _smc()
    assert smc.service_pending_kernel(_requests())
    assert smc.kernel_fallback_reason is None


# -- the resident multi-core replay (blockrun.run_cores_kernel) --------------


def _fed_mix(config=None, cores: int = 2):
    """A system whose session has ``cores`` cores, each fed a short
    block trace in its own region."""
    from repro.workloads import microbench

    system = EasyDRAMSystem(config or jetson_nano_time_scaling())
    session = system.session("fallback")
    for _ in range(cores - 1):
        session.add_core()
    for core in session.cores:
        base = core.index << 20
        core.processor.feed(microbench.touch_blocks(base, 8 * 1024))
    return system, session


def _declined(system, session) -> str | None:
    """Offer the fed mix to the resident replay; it must decline without
    touching anything.  Returns the recorded reason."""
    from repro.dram.kernel import blockrun

    procs = [core.processor for core in session.cores]
    before = [proc.stats.accesses for proc in procs]
    assert not blockrun.run_cores_kernel(session.engine, session, procs,
                                         system.smc)
    assert [proc.stats.accesses for proc in procs] == before
    assert not any(proc.done for proc in procs)
    return system.smc.kernel_fallback_reason


def test_resident_multi_channel_topology():
    system, session = _fed_mix(
        jetson_nano_time_scaling().with_topology("ddr4-2ch"))
    assert _declined(system, session) == "multi-channel topology"


def test_single_core_multi_channel_reason_reaches_profiler():
    """``run_trace``'s declined resident replay is recorded on the
    channel façade and counted by ``repro profile``."""
    from repro.profiling.characterize import measure_layers
    from repro.workloads import microbench

    with measure_layers() as acc:
        system = EasyDRAMSystem(
            jetson_nano_time_scaling().with_topology("ddr4-2ch"))
        session = system.session("fallback")
        session.run_trace(microbench.touch_blocks(0, 8 * 1024))
    assert system.smc.kernel_fallback_reason == "multi-channel topology"
    assert acc.kernel_fallbacks["multi-channel topology"] == 1


@needs_kernel
def test_clflush_writebacks_reach_the_profiler(kernel_on):
    """``repro profile`` times the CLFLUSH writeback entry as kernel time
    and counts its declines by reason."""
    from repro.profiling.characterize import measure_layers
    from repro.workloads import microbench

    with measure_layers() as acc:
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("flush")
        session.run_trace(microbench.touch_blocks(0, 16 * 1024, write=True))
        replayed = acc.kernel
        assert session.clflush_range(0, 8 * 1024) == 128
        assert acc.kernel > replayed
        system.smc.serve_hook = lambda api, entry: api.stage_conventional(
            entry.dram, entry.request.is_writeback)
        assert session.clflush_range(8 * 1024, 8 * 1024) == 128
    # The writeback entry declines, then service_pending's own kernel try.
    assert acc.kernel_fallbacks == {"technique episode (serve hook)": 2}


@needs_kernel
def test_resident_channel_hook(kernel_on):
    system, session = _fed_mix()
    session.cores[0].processor.channel_hook = lambda addr: 0
    assert _declined(system, session) == "multi-channel request routing"


@needs_kernel
def test_resident_serve_hook(kernel_on):
    system, session = _fed_mix()
    system.smc.serve_hook = lambda api, entry: None
    assert _declined(system, session) == "technique episode (serve hook)"


@needs_kernel
def test_resident_staged_tile_state(kernel_on):
    system, session = _fed_mix()
    system.smc.api.stage_refresh()
    assert _declined(system, session) == "staged tile state pending"


@needs_kernel
def test_resident_undrained_mlp_window(kernel_on):
    system, session = _fed_mix()
    session.cores[1].processor.outstanding.append(
        MemoryRequest(rid=0, addr=0, is_write=False, tag=0))
    assert _declined(system, session) == \
        "MLP window not drained at trace start"


def test_resident_kernel_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "0")
    system, session = _fed_mix()
    assert _declined(system, session) == "disabled (REPRO_KERNEL=0)"


def _outcome(kernel: str, monkeypatch, setup) -> tuple[type, str]:
    """The exception a 2-core ``run_cores`` raises under ``kernel``."""
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    system, session = _fed_mix()
    traces = setup(session)
    with pytest.raises(Exception) as info:
        session.run_cores(traces)
    return type(info.value), str(info.value)


@needs_kernel
def test_resident_deadlock_matches_burst_loop(monkeypatch):
    """An unreleased fill nobody will serve: the same EmulationDeadlock."""
    from repro.core.system import EmulationDeadlock
    from repro.workloads import lmbench

    def setup(session):
        session.cores[1].processor.outstanding.append(
            MemoryRequest(rid=0, addr=0, is_write=False, tag=0))
        return [lmbench.pointer_chase_blocks(4096, 64, base_addr=core << 20)
                for core in range(2)]

    resident = _outcome("c", monkeypatch, setup)
    burst = _outcome("0", monkeypatch, setup)
    assert resident == burst
    assert resident[0] is EmulationDeadlock


@needs_kernel
def test_resident_out_of_range_matches_burst_loop(monkeypatch):
    """A strict address map names the same offender either way."""
    from repro.cpu.blocks import AccessBlock, BlockTrace
    from repro.workloads import microbench

    def setup(session):
        total = session.system.config.geometry.total_bytes
        bad = BlockTrace(iter([AccessBlock(
            [64 * i for i in range(8)] + [total + 4096, total + 64],
            [0] * 10, [1] * 10)]))
        return [microbench.touch_blocks(1 << 20, 8 * 1024), bad]

    resident = _outcome("c", monkeypatch, setup)
    burst = _outcome("0", monkeypatch, setup)
    assert resident == burst
    assert resident[0] is ValueError


@needs_kernel
def test_resident_out_of_range_after_in_range_blocks(monkeypatch):
    """An out-of-range block after in-range ones: the resident filter
    hands the rest of the trace to the Python filter mid-run, with the
    same error and the same cache contents as the burst loop.  (Where the
    core's clock stopped is not compared: the burst loop fetches the
    next block at a different point of the replay.)"""
    import dataclasses

    from repro.cpu.blocks import AccessBlock, BlockTrace
    from repro.workloads import microbench

    def run(kernel):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        system, session = _fed_mix(cores=1)
        total = system.config.geometry.total_bytes
        good = list(microbench.touch_blocks(1 << 20, 32 * 1024, write=True,
                                            block=128))
        bad = AccessBlock([64 * i for i in range(8)] + [total + 64],
                          [0] * 9, [1] * 9)
        with pytest.raises(ValueError) as info:
            session.run_trace(BlockTrace(iter(good + [bad])))
        hierarchy = session.hierarchy
        return (str(info.value),
                [(level._tags, level._dirty, level._stamps, level._mru,
                  level._tick, dataclasses.asdict(level.stats))
                 for level in (hierarchy.l1, hierarchy.l2)])

    assert run("c") == run("0")


@needs_kernel
def test_kernel_source_compiles_warning_free(tmp_path):
    """The rendered kernel builds clean under -Wall -Wextra -Werror."""
    import subprocess

    source = tmp_path / "kernel.c"
    source.write_text(cbackend._render_source())
    proc = subprocess.run(
        cbackend.compiler() + ["-Wall", "-Wextra", "-Werror",
                               "-fsyntax-only", str(source)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


_LOAD_INTO = """\
import sys
from pathlib import Path
from repro.dram.kernel import cbackend
cbackend._CACHE_DIR = Path(sys.argv[1])
print(cbackend.load()[1])
"""


@needs_kernel
def test_concurrent_cold_builds_all_load(tmp_path):
    """Processes building into one empty cache each load a whole object
    (the build renames complete files into place)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent))
    procs = [subprocess.Popen([sys.executable, "-c", _LOAD_INTO,
                               str(tmp_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env)
             for _ in range(3)]
    outcomes = [proc.communicate(timeout=300) for proc in procs]
    assert [out.strip() for out, _ in outcomes] == ["ok"] * 3, outcomes
    assert sorted(path.suffix for path in tmp_path.iterdir()) == [".c", ".so"]


# -- the registry tRCD technique is kernel data -------------------------------


def _trcd(system):
    """The registry tRCD technique over an empty weak-row map (every row
    strong, so every activation takes the reduced tRCD)."""
    from repro.core.techniques.trcd import TrcdReductionTechnique
    from repro.profiling.characterize import CharacterizationResult

    return TrcdReductionTechnique(system, CharacterizationResult())


def _tweaked_trcd(system):
    from repro.core.techniques.trcd import TrcdReductionTechnique
    from repro.profiling.characterize import CharacterizationResult

    class _Tweaked(TrcdReductionTechnique):
        def _serve(self, api, entry):
            super()._serve(api, entry)

    return _Tweaked(system, CharacterizationResult())


@needs_kernel
def test_trcd_technique_engages_batch(kernel_on):
    system = EasyDRAMSystem(jetson_nano_time_scaling())
    technique = _trcd(system)
    technique.install()
    assert system.smc.service_pending_kernel(_requests())
    assert system.smc.kernel_fallback_reason is None
    # One row: one (reduced) activation, then three row hits.
    stats = technique.stats
    assert (stats.reduced_acts, stats.nominal_acts, stats.row_hits) == \
        (1, 0, 3)


@needs_kernel
def test_trcd_technique_engages_resident(kernel_on):
    from repro.dram.kernel import blockrun

    system, session = _fed_mix()
    technique = _trcd(system)
    technique.install()
    procs = [core.processor for core in session.cores]
    assert blockrun.run_cores_kernel(session.engine, session, procs,
                                     system.smc)
    assert system.smc.kernel_fallback_reason is None
    assert technique.stats.reduced_acts > 0


@needs_kernel
def test_trcd_subclass_hook(kernel_on):
    system = EasyDRAMSystem(jetson_nano_time_scaling())
    _tweaked_trcd(system).install()
    assert not system.smc.service_pending_kernel(_requests())
    assert system.smc.kernel_fallback_reason == \
        "technique episode (serve hook)"


@needs_kernel
def test_resident_trcd_subclass_hook(kernel_on):
    system, session = _fed_mix()
    _tweaked_trcd(system).install()
    assert _declined(system, session) == "technique episode (serve hook)"


@needs_kernel
def test_hook_changes_after_resolve_take_effect(kernel_on):
    """Installing, swapping and uninstalling the hook after the kernel
    resolved re-resolves it on the next batch."""
    system = EasyDRAMSystem(jetson_nano_time_scaling())
    smc = system.smc
    technique = _trcd(system)
    assert smc.service_pending_kernel(_requests())
    assert smc._kernel_state.technique is None
    technique.install()
    assert smc.service_pending_kernel(_requests())
    assert smc._kernel_state.technique is technique
    assert technique.stats.row_hits == 4
    smc.serve_hook = lambda api, entry: None
    assert not smc.service_pending_kernel(_requests())
    assert smc.kernel_fallback_reason == "technique episode (serve hook)"
    technique.install()
    assert smc.service_pending_kernel(_requests())
    assert smc.kernel_fallback_reason is None
    technique.uninstall()
    assert smc.service_pending_kernel(_requests())
    assert smc._kernel_state.technique is None
    assert technique.stats.row_hits == 8
