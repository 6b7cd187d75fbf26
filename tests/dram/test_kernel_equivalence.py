"""Kernel differential suite: kernel == flat == object, bit for bit.

The compiled kernel adds a serve path (and a whole-trace block replay)
that must be a pure host-time optimization.  This suite drives *random*
request streams — hypothesis-generated access blocks across topologies,
schedulers, and interference knobs — through three serve
configurations:

* **kernel** — event engine on the compiled backend (skipped when no C
  compiler exists: the flat closures are then the only fast path);
* **flat**   — event engine, kernel disabled (the flat closures);
* **object** — cycle engine, kernel disabled (the staged-program
  reference oracle);

and asserts the complete observable artifact — ``RunResult`` (including
per-core slices), per-request latencies, ``SmcStats``, and device stats
— is identical across all three.  Refresh storms, multi-rank channels,
and multi-core contention under the stateful scheduler zoo get
dedicated cases on top of the randomized cross, and engagement guards
make sure the kernel leg really ran the kernel.  Later sections pin the
resident cache copy across short replays, the registry tRCD technique
served as kernel data against its serve hook, and CLFLUSH writebacks
served as arrays.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kernel_paths import no_kernel
from repro.core import engine as engine_module
from repro.core import smc as smc_module
from repro.core.config import (ControllerConfig, InterferenceConfig,
                               jetson_nano_time_scaling)
from repro.core.schedulers import scheduler_names
from repro.core.system import EasyDRAMSystem
from repro.core.techniques.trcd import TrcdReductionTechnique
from repro.cpu.blocks import AccessBlock, BlockTrace, MaterializedBlocks
from repro.cpu.memtrace import FLAG_DEPENDENT, FLAG_WRITE
from repro.dram.kernel import blockrun, cbackend
from repro.dram.timing import ns
from repro.profiling.characterize import CharacterizationResult, RowProfile

LINE = 64

#: Whether the compiled backend loads; without it the kernel leg is
#: skipped and the flat closures are the fallback.
HAVE_KERNEL = cbackend.load()[0] is not None

MODES = (
    *((("kernel", "event", True),) if HAVE_KERNEL else ()),
    ("flat", "event", False),
    ("object", "cycle", False),
)

needs_kernel = pytest.mark.skipif(not HAVE_KERNEL,
                                  reason="no C compiler for the kernel")


#: The kernel leg runs on the compiled kernel, also under --kernel=off.
pytestmark = pytest.mark.usefixtures("kernel_on")


@contextmanager
def serve_mode(engine: str, kernel: bool):
    """Systems built inside default to ``engine`` and, with ``kernel``
    false, find no kernel backend."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "DEFAULT_ENGINE", engine)
        if not kernel:
            no_kernel(patch)
        yield


def _trace(stream: list[tuple[int, int, int]], split: int) -> BlockTrace:
    """The drawn stream as (up to) two access blocks."""
    chunks = [stream[:split], stream[split:]]
    return BlockTrace(
        AccessBlock([a for a, _, _ in chunk], [f for _, f, _ in chunk],
                    [g for _, _, g in chunk])
        for chunk in chunks if chunk)


def _run_artifact(config, stream: list, split: int) -> dict:
    """One full session over the stream; every observable, as a dict."""
    system = EasyDRAMSystem(config)
    session = system.session("kernel-diff")
    session.run_trace(_trace(stream, split))
    result = session.finish()
    artifact = dataclasses.asdict(result)
    artifact.pop("wall_seconds")
    artifact["latencies"] = list(session.processor.stats.request_latencies)
    artifact["smc"] = [dataclasses.asdict(smc.stats)
                       for smc in system.smcs]
    artifact["arrivals"] = [smc._arrival_counter for smc in system.smcs]
    artifact["device"] = [dataclasses.asdict(c.tile.device.stats)
                          for c in system.channels]
    artifact["violations"] = _violations(system)
    return artifact


def _violations(system) -> list:
    """Every channel's timing-violation log, record by record.

    Only the coordinates a command kind uses are compared (an ACT's row,
    a RD/WR's column): the serve paths fill the unused field
    differently, and the checker never reads it.
    """
    return [[(v.command.kind.value, v.command.bank,
              v.command.row if v.command.kind.value == "ACT" else None,
              v.command.col if v.command.kind.value in ("RD", "WR")
              else None,
              v.time_ps, v.earliest_ps, v.constraint)
             for v in c.tile.device.checker.violations]
            for c in system.channels]


def assert_modes_identical(make_config, stream: list, split: int) -> None:
    artifacts = {}
    for name, engine, kernel in MODES:
        with serve_mode(engine, kernel):
            artifacts[name] = _run_artifact(make_config(), stream, split)
    assert_artifacts_identical(artifacts)


def assert_artifacts_identical(artifacts: dict) -> None:
    if "kernel" in artifacts:
        assert artifacts["kernel"] == artifacts["flat"], \
            "kernel serve path changed the artifact"
    assert artifacts["flat"] == artifacts["object"], \
        "flat serve path changed the artifact"


# -- randomized cross: topology x scheduler x interference -------------------

access = st.tuples(
    st.integers(min_value=0, max_value=(8 * 1024 * 1024) // LINE - 1)
    .map(lambda line: line * LINE),
    st.sampled_from((0, FLAG_WRITE, FLAG_DEPENDENT,
                     FLAG_WRITE | FLAG_DEPENDENT)),
    st.integers(min_value=0, max_value=40),
)

stream_st = st.lists(access, min_size=20, max_size=120)


@pytest.mark.slow  # 20 randomized full-cross examples; on CI's `slow` leg
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=stream_st, split=st.integers(min_value=0, max_value=120),
       topology=st.sampled_from(("ddr4-1ch", "ddr4-2ch", "ddr4-1ch-2rk")),
       scheduler=st.sampled_from(("fr-fcfs", "fcfs", "atlas", "bliss",
                                  "batch")),
       age_cap=st.sampled_from((None, 8)),
       storm=st.sampled_from((1, 4)))
def test_random_streams_identical(stream, split, topology, scheduler,
                                  age_cap, storm):
    assert_modes_identical(
        lambda: jetson_nano_time_scaling(
            controller=ControllerConfig(scheduler=scheduler,
                                        scheduler_age_cap=age_cap),
            interference=InterferenceConfig(refresh_storm_factor=storm),
        ).with_topology(topology),
        stream, split)


# -- dedicated corners -------------------------------------------------------


def _dense_mixed_stream(n: int = 200) -> list[tuple[int, int, int]]:
    """Row-hit/miss/conflict mix with writebacks: strided rows + reuse."""
    stream = []
    for i in range(n):
        line = (i * 37 + (i % 5) * 4096) % (4 * 1024 * 1024 // LINE)
        flags = FLAG_WRITE if i % 3 == 0 else 0
        if i % 11 == 0:
            flags |= FLAG_DEPENDENT
        stream.append((line * LINE, flags, i % 7))
    return stream


def test_refresh_storm_batches_identical():
    """A 8x refresh storm interleaves REF bursts through the episodes."""
    stream = [(addr, flags, gap + 50) for addr, flags, gap
              in _dense_mixed_stream(120)]
    assert_modes_identical(
        lambda: jetson_nano_time_scaling(
            interference=InterferenceConfig(refresh_storm_factor=8)),
        stream, 60)


def test_multirank_topology_identical():
    """Rank-aware tRRD/tFAW/tCS timing on a two-rank channel."""
    assert_modes_identical(
        lambda: jetson_nano_time_scaling().with_topology("ddr4-1ch-2rk"),
        _dense_mixed_stream(120), 60)


def test_multicore_coreresults_identical():
    """Contended mix: per-core slices and fairness stay bit-identical."""
    from repro.core.workload_mix import WorkloadMix, run_mix

    mix = WorkloadMix(("stream", "pointer_chase"))
    artifacts = {}
    for name, engine, kernel in MODES:
        with serve_mode(engine, kernel):
            run = run_mix(jetson_nano_time_scaling(), mix, solo=True)
        artifact = dataclasses.asdict(run.result)
        artifact.pop("wall_seconds")
        artifact["core_cycles"] = run.core_cycles
        artifact["solo_cycles"] = run.solo_cycles
        artifacts[name] = artifact
    assert_artifacts_identical(artifacts)


# -- the stateful scheduler zoo on four contending cores ---------------------

ZOO_MIX = "stream+init+pointer_chase+stream"


def _scheduler_state(scheduler) -> dict:
    """The ranking state a stateful policy carries between episodes."""
    if scheduler.name == "atlas":
        return {"attained": dict(scheduler.attained),
                "serves": scheduler._serves_in_quantum}
    if scheduler.name == "bliss":
        return {"blacklisted": set(scheduler.blacklisted),
                "last": scheduler._last_core, "streak": scheduler._streak,
                "serves": scheduler._serves}
    if scheduler.name == "batch":
        return {"marked": set(scheduler.marked)}
    return {}


def _zoo_config(scheduler: str, topology: str):
    base = jetson_nano_time_scaling()
    return jetson_nano_time_scaling(
        controller=ControllerConfig(scheduler=scheduler),
        l1=dataclasses.replace(base.l1, size_bytes=4 * 1024),
        l2=dataclasses.replace(base.l2, size_bytes=32 * 1024),
    ).with_topology(topology)


def _run_zoo(config) -> dict:
    """The four-core mix on one shared system; every observable."""
    from repro.core.workload_mix import WorkloadMix

    mix = WorkloadMix.parse(ZOO_MIX)
    system = EasyDRAMSystem(config)
    session = system.session(mix.label())
    for core in range(1, mix.cores):
        session.add_core(mix.names[core])
    session.run_cores([mix.build(core, 1) for core in range(mix.cores)])
    artifact = dataclasses.asdict(session.finish())
    artifact.pop("wall_seconds")
    artifact["smc"] = [dataclasses.asdict(smc.stats) for smc in system.smcs]
    artifact["arrivals"] = [smc._arrival_counter for smc in system.smcs]
    artifact["device"] = [dataclasses.asdict(c.tile.device.stats)
                          for c in system.channels]
    artifact["violations"] = _violations(system)
    artifact["scheduler"] = [_scheduler_state(smc.scheduler)
                             for smc in system.smcs]
    return artifact


@pytest.mark.parametrize("scheduler, topology", [
    # Two cases stay in tier-1; the rest of the matrix is on `slow`.
    pytest.param(s, t, marks=() if (s, t) in (
        ("atlas", "ddr4-1ch-2rk"), ("batch", "ddr4-1ch")) else
        pytest.mark.slow)
    for s in ("atlas", "bliss", "batch")
    for t in ("ddr4-1ch", "ddr4-1ch-2rk")] + [
    # Two channels split the gates into per-channel batches, mostly
    # singletons (some with a refresh due) on the flat episode closure:
    # its select-free branch under FCFS, the select under ATLAS.
    ("fcfs", "ddr4-2ch"), ("atlas", "ddr4-2ch")])
def test_stateful_zoo_four_cores_identical(scheduler, topology):
    """ATLAS/BLISS/batch on four cores (and FCFS on two channels):
    results, stats, violation logs (tWTR, and tCS across ranks) and the
    scheduler's final state."""
    artifacts = {}
    for name, engine, kernel in MODES:
        with serve_mode(engine, kernel):
            artifacts[name] = _run_zoo(_zoo_config(scheduler, topology))
    assert_artifacts_identical(artifacts)


@needs_kernel
@pytest.mark.parametrize("scheduler, topology", (
    *((s, t) for s in ("atlas", "bliss", "batch")
      for t in ("ddr4-1ch", "ddr4-1ch-2rk")),
    ("fr-fcfs", "ddr4-1ch-2rk"),
))
def test_batch_kernel_engages(scheduler, topology, monkeypatch):
    """Guard: every batch the kernel may take, it takes.

    Without this, a silent structural fallback on the stateful zoo or
    the two-rank channel would turn the cases above into flat-vs-flat.
    The resident replay is declined here so the mix runs the per-gate
    burst loop, whose batches the batch entry point serves.
    """
    from repro.dram.kernel import blockrun

    monkeypatch.setattr(blockrun, "run_cores_kernel",
                        lambda engine, session, procs, smc: False)
    original = smc_module.SoftwareMemoryController.service_pending_kernel
    calls = []

    def recording(self, requests):
        size = len(requests)
        served = original(self, requests)
        calls.append((size, served, self.kernel_fallback_reason))
        return served

    monkeypatch.setattr(smc_module.SoftwareMemoryController,
                        "service_pending_kernel", recording)
    with serve_mode("event", True):
        _run_zoo(_zoo_config(scheduler, topology))
    big = [c for c in calls if c[0] >= smc_module._KERNEL_MIN_BATCH]
    assert big, "no batch reached the kernel's minimum size"
    assert all(served and reason is None for _, served, reason in big), \
        f"kernel fell back: {sorted({c[2] for c in big if not c[1]})}"


@needs_kernel
def test_kernel_actually_engages():
    """Guard: on the eligible config the kernel serves, not the closures.

    Without this, a silent structural fallback would turn the whole
    suite into flat-vs-flat and prove nothing about the kernel.
    """
    from repro.dram.kernel import blockrun

    engaged = []
    original = blockrun.run_gated_kernel

    def counting(engine, session, proc, smc):
        ok = original(engine, session, proc, smc)
        engaged.append(ok)
        return ok

    blockrun.run_gated_kernel = counting
    try:
        with serve_mode("event", True):
            _run_artifact(jetson_nano_time_scaling(),
                          _dense_mixed_stream(), 120)
    finally:
        blockrun.run_gated_kernel = original
    assert engaged and all(engaged), \
        "block-replay kernel never engaged on the eligible config"


# -- the resident multi-core replay ------------------------------------------
#
# ``EventEngine.run_cores`` replays eligible block mixes resident in the
# kernel (``blockrun.run_cores_kernel``).  One shared system runs three
# ways — resident, the Python burst loop (kernel off) and the
# ``CycleEngine`` reference — and every observable must agree, down to
# the engines' gate and release counts (``EngineStats``, plus the event
# engine's episode counts), per-core request latencies and request-id
# counters, both cache levels' contents, and the scheduler's ranking
# state.

RESIDENT_MODES = (
    *((("resident", "event", True),) if HAVE_KERNEL else ()),
    ("burst", "event", False),
    ("cycle", "cycle", False),
)

#: Accesses per block: small, so every core crosses several block
#: hand-overs mid-sweep.
_BLOCK = 256

KiB = 1024


def _core_blocks(core: int, uneven: bool) -> list[AccessBlock]:
    """Core ``core``'s trace (its own 1 MiB region), as a block list.

    Copy, chase, init and touch stand in for the zoo's stream/victim
    mix at a fraction of the length; ``uneven`` shrinks the odd cores'
    traces so they finish many sweeps early.
    """
    from repro.workloads import lmbench, microbench

    base = core * 1024 * KiB
    size = 4 * KiB if uneven and core % 2 else 24 * KiB
    build = (
        lambda: microbench.cpu_copy_blocks(base, base + size, size,
                                           block=_BLOCK),
        lambda: lmbench.pointer_chase_blocks(size, size // 16,
                                             base_addr=base, block=_BLOCK),
        lambda: microbench.cpu_init_blocks(base, size, block=_BLOCK),
        lambda: microbench.touch_blocks(base, size, block=_BLOCK),
    )[core % 4]
    return list(build())


def _cache_state(hierarchy) -> list:
    return [(level._tags, level._dirty, level._stamps, level._mru,
             level._tick, dataclasses.asdict(level.stats))
            for level in (hierarchy.l1, hierarchy.l2)]


def _run_resident(config, traces: list[list[AccessBlock]],
                  engine: str) -> dict:
    """One shared run of ``traces`` (one block list per core)."""
    system = EasyDRAMSystem(config, engine=engine)
    session = system.session("resident", engine=engine)
    for _ in traces[1:]:
        session.add_core()
    session.run_cores([BlockTrace(iter(blocks)) for blocks in traces])
    artifact = dataclasses.asdict(session.finish())
    artifact.pop("wall_seconds")
    artifact["smc"] = [dataclasses.asdict(smc.stats) for smc in system.smcs]
    artifact["device"] = [dataclasses.asdict(c.tile.device.stats)
                          for c in system.channels]
    artifact["violations"] = _violations(system)
    artifact["scheduler"] = [_scheduler_state(smc.scheduler)
                             for smc in system.smcs]
    artifact["counters"] = (system.counters.processor,
                            system.counters.memory_controller)
    artifact["cores"] = [
        (list(c.processor.stats.request_latencies), next(c.processor._rid),
         c.processor.done, _cache_state(c.hierarchy))
        for c in session.cores]
    stats = session.engine.stats
    artifact["gates"] = (stats.gates, stats.releases)
    if engine == "event":
        artifact["episodes"] = (stats.batched_episodes,
                                stats.fallback_episodes)
    return artifact


def assert_resident_identical(config, traces) -> None:
    artifacts = {}
    for name, engine, kernel in RESIDENT_MODES:
        with serve_mode(engine, kernel):
            artifacts[name] = _run_resident(config, traces, engine)
    cycle = artifacts.pop("cycle")
    burst = artifacts["burst"]
    if "resident" in artifacts:
        diff = [key for key in burst if artifacts["resident"][key] != burst[key]]
        assert not diff, f"resident replay != burst loop in {diff}"
    diff = [key for key in cycle if cycle[key] != burst[key]]
    assert not diff, f"burst loop != CycleEngine in {diff}"


def _resident_config(scheduler: str, topology: str, **controller):
    base = jetson_nano_time_scaling()
    return jetson_nano_time_scaling(
        controller=ControllerConfig(scheduler=scheduler, **controller),
        l1=dataclasses.replace(base.l1, size_bytes=2 * KiB),
        l2=dataclasses.replace(base.l2, size_bytes=16 * KiB),
    ).with_topology(topology)


#: The two matrix cells that stay in tier-1.
_TIER1 = {("batch", "ddr4-1ch-2rk", 4), ("fr-fcfs", "ddr4-1ch", 2)}


@pytest.mark.parametrize("scheduler, topology, cores", [
    pytest.param(s, t, n, marks=() if (s, t, n) in _TIER1 else
                 pytest.mark.slow)
    for s in ("fcfs", "fr-fcfs", "atlas", "bliss", "batch")
    for t in ("ddr4-1ch", "ddr4-1ch-2rk")
    for n in (2, 4)])
def test_resident_mix_identical(scheduler, topology, cores):
    """Every registry scheduler on one- and two-rank channels, 2/4 cores."""
    assert_resident_identical(
        _resident_config(scheduler, topology),
        [_core_blocks(core, uneven=False) for core in range(cores)])


def test_long_compute_gap_identical():
    """A 10**8-cycle compute gap: the next episode issues thousands of
    overdue refreshes, and the resident replay serves it exactly like the
    burst loop and the reference (no per-episode refresh bound)."""
    trace = [AccessBlock([0, 1 << 20, 2 << 20], [0, 0, 0], [0, 10**8, 0])]
    outcomes = {}
    for name, engine, kernel in RESIDENT_MODES:
        with serve_mode(engine, kernel), kernel_engagements() as served:
            system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
            session = system.session("gap", engine=engine)
            session.run_trace(BlockTrace(iter(trace)))
            run = dataclasses.asdict(session.finish())
        run.pop("wall_seconds")
        outcomes[name] = (run, dataclasses.asdict(system.smc.stats))
        if name == "resident":
            assert served == [("resident", True, None)]
    reference = outcomes.pop("cycle")
    assert reference[1]["refreshes"] > 4096
    for name, outcome in outcomes.items():
        assert outcome == reference, f"{name} != cycle"


def _numpy_scalars(value, path: str) -> list[str]:
    """The paths of every NumPy scalar inside ``value``."""
    if isinstance(value, np.generic):
        return [path]
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return []
    return [found for key, item in items
            for found in _numpy_scalars(item, f"{path}[{key!r}]")]


def test_results_hold_python_ints_only():
    """Blocks hold int64 arrays, but no NumPy scalar may reach a
    ``RunResult``, ``SmcStats``, device or processor stats, on any path.
    Request latencies are an ``int64`` log whose averages are exact
    Python floats."""
    from repro.workloads import polybench

    gemm = [AccessBlock(b.addr + (2 << 20), b.flags, b.gap)
            for b in polybench.trace_blocks("gemm", "mini", block=_BLOCK)]
    traces = [_core_blocks(0, uneven=False), _core_blocks(1, uneven=False),
              gemm]
    config = _resident_config("fr-fcfs", "ddr4-1ch")
    for name, engine, kernel in RESIDENT_MODES:
        with serve_mode(engine, kernel), kernel_engagements() as served:
            artifact = _run_resident(config, traces, engine)
            system = EasyDRAMSystem(jetson_nano_time_scaling(),
                                    engine=engine)
            session = system.session("gemm")
            session.run_trace(BlockTrace(iter(gemm)))
            single = dataclasses.asdict(session.finish())
            single["smc"] = dataclasses.asdict(system.smc.stats)
            single["device"] = dataclasses.asdict(
                system.tile.device.stats)
        if name == "resident":
            assert [ok for kind, ok, _ in served if kind == "resident"] \
                == [True, True]
        assert _numpy_scalars(artifact, name) == []
        assert _numpy_scalars(single, name) == []
        log = session.processor.stats.request_latencies
        assert log.typecode == "q", name
        per_core = [core[0] for core in artifact["cores"]]
        for result, logs in ((single, [list(log)]), (artifact, per_core)):
            average = result["avg_request_latency_cycles"]
            assert type(average) is float, name
            assert average == (sum(map(sum, logs))
                               / sum(map(len, logs))), name
        for core, lat in zip(artifact["per_core"], per_core):
            average = core["avg_request_latency_cycles"]
            assert type(average) is float, name
            assert lat and average == sum(lat) / len(lat), name


@needs_kernel
def test_materialized_blocks_replay_twice_identical():
    """One MaterializedBlocks, replayed twice resident: identical runs,
    and the shared block arrays come back unchanged."""
    from repro.workloads import lmbench, polybench

    blocks = MaterializedBlocks(polybench.trace_blocks("gemm", "mini"))
    blocks.blocks += lmbench.pointer_chase_blocks(
        64 * KiB, 4096, base_addr=4 << 20, block=_BLOCK)
    before = [(b.addr.copy(), b.flags.copy(), b.gap.copy())
              for b in blocks.blocks]
    runs = []
    with serve_mode("event", True), kernel_engagements() as served:
        for _ in range(2):
            system = EasyDRAMSystem(jetson_nano_time_scaling(),
                                    engine="event")
            session = system.session("twice", engine="event")
            session.run_trace(blocks.trace())
            run = dataclasses.asdict(session.finish())
            run.pop("wall_seconds")
            proc = session.cores[0].processor
            runs.append((run, dataclasses.asdict(system.smc.stats),
                         list(proc.stats.request_latencies)))
    assert served == [("resident", True, None)] * 2
    assert runs[0] == runs[1]
    for block, (addr, flags, gap) in zip(blocks.blocks, before):
        assert np.array_equal(block.addr, addr)
        assert np.array_equal(block.flags, flags)
        assert np.array_equal(block.gap, gap)


@pytest.mark.slow
def test_resident_uneven_traces_identical():
    """Short traces finish early: the active list shrinks mid-sweep and
    the sweep rotation runs over the survivors."""
    assert_resident_identical(
        _resident_config("atlas", "ddr4-1ch"),
        [_core_blocks(core, uneven=True) for core in range(4)])


@pytest.mark.slow
def test_resident_empty_core_identical():
    """A core with an empty trace finishes in its first burst."""
    traces = [_core_blocks(core, uneven=False) for core in range(3)]
    traces.insert(1, [])
    assert_resident_identical(_resident_config("bliss", "ddr4-1ch-2rk"),
                              traces)


@pytest.mark.slow
def test_resident_refresh_storm_identical():
    """An 8x refresh storm: refresh episodes interleave every gate."""
    config = dataclasses.replace(
        _resident_config("fr-fcfs", "ddr4-1ch"),
        interference=InterferenceConfig(refresh_storm_factor=8))
    assert_resident_identical(
        config, [_core_blocks(core, uneven=False) for core in range(4)])


@pytest.mark.slow
def test_resident_age_cap_identical():
    """FR-FCFS with its anti-starvation age cap at 8."""
    assert_resident_identical(
        _resident_config("fr-fcfs", "ddr4-1ch", scheduler_age_cap=8),
        [_core_blocks(core, uneven=False) for core in range(4)])


@pytest.mark.slow
def test_resident_lockstep_cores_identical():
    """Equal-length independent-load streams at different compute gaps:
    the cores gate in lockstep, so every batch merges overlapping tag
    runs, and the run ends on a shared gate whose release events (pushed
    in sweep order, drained only to the slower core's cycle) stay in the
    final heap."""
    traces = [[AccessBlock([(core << 20) + LINE * i for i in range(j, j + 96)],
                           [0] * 96, [1 + 2 * core] * 96)
               for j in range(0, 480, 96)]
              for core in range(3)]
    assert_resident_identical(_resident_config("fr-fcfs", "ddr4-1ch"),
                              traces)


@needs_kernel
@pytest.mark.parametrize("scheduler", ("fcfs", "fr-fcfs", "atlas", "bliss",
                                       "batch"))
@pytest.mark.parametrize("topology", ("ddr4-1ch", "ddr4-1ch-2rk"))
def test_resident_replay_engages(scheduler, topology, monkeypatch):
    """Guard: the zoo's mixes take the resident path, not the burst loop.

    Without this, a silent fallback would turn the resident legs above
    into burst-loop-vs-burst-loop and prove nothing about the kernel.
    """
    from repro.dram.kernel import blockrun

    original = blockrun.run_cores_kernel
    calls = []

    def recording(engine, session, procs, smc):
        engaged = original(engine, session, procs, smc)
        calls.append((len(procs), engaged, smc.kernel_fallback_reason))
        return engaged

    monkeypatch.setattr(blockrun, "run_cores_kernel", recording)
    with serve_mode("event", True):
        _run_zoo(_zoo_config(scheduler, topology))
    assert calls == [(4, True, None)]


# -- the resident cache copy across short replays ----------------------------
#
# The resident replay keeps each core's way arrays as a copy of its cache
# hierarchy between calls.  After a replay the copy holds the level's way
# lists (a loan): CLFLUSH ranges apply to the copy itself, and the first
# Python read of a level's lists writes the copy back.  A later replay
# reloads only the sets Python changed since (CLFLUSH evictions on
# written-back lists) and flattens a level whole after any other
# Python-side mutation.  One session interleaves every kind of
# Python-side cache traffic with short replays.


def _interleaved_session() -> dict:
    from repro.workloads import microbench

    system = EasyDRAMSystem(_resident_config("fr-fcfs", "ddr4-1ch"))
    session = system.session("residency")
    hierarchy = session.hierarchy
    session.run_trace(microbench.touch_blocks(0, 12 * KiB, write=True,
                                              block=_BLOCK))
    session.clflush_range(4 * KiB, 4 * KiB)
    session.run_trace(microbench.cpu_copy_blocks(0, 64 * KiB, 8 * KiB))
    session.technique_op(lambda api: api.rowclone(0, 1, 2))
    session.clflush_range(60 * KiB, 12 * KiB)
    session.run_trace(microbench.cpu_init_blocks(96 * KiB, 8 * KiB))
    hierarchy.access(96 * KiB + 5 * LINE, True)   # direct Python access
    session.run_trace(microbench.touch_blocks(0, 8 * KiB, block=_BLOCK))
    hierarchy.l1.contains(2 * LINE)    # writes L1 back, L2 stays lent
    session.clflush_range(0, 4 * KiB)  # L1 on its lists, L2 on the copy
    hierarchy.access(LINE, False)      # direct Python access
    session.clflush_range(0, 2 * KiB)  # both levels on their lists
    session.run_trace(microbench.touch_blocks(0, 8 * KiB, block=_BLOCK))
    hierarchy.reset_stats()
    session.run_trace(microbench.cpu_copy_blocks(32 * KiB, 128 * KiB,
                                                 4 * KiB))
    session.clflush_range(128 * KiB, 4 * KiB)
    session.run_trace(microbench.touch_blocks(0, 8 * KiB, write=True))
    # The resident replay declines this one trace: it filters through
    # the Python access_block (same kernel state), so the next replay
    # must flatten again.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockrun, "_eligible",
                      lambda procs, smc: "declined for this trace")
        session.run_trace(microbench.touch_blocks(16 * KiB, 8 * KiB,
                                                  write=True))
    session.run_trace(microbench.touch_blocks(0, 24 * KiB, block=_BLOCK))
    artifact = dataclasses.asdict(session.finish())
    artifact.pop("wall_seconds")
    artifact["cache"] = _cache_state(hierarchy)
    artifact["smc"] = [dataclasses.asdict(smc.stats) for smc in system.smcs]
    artifact["device"] = [dataclasses.asdict(c.tile.device.stats)
                          for c in system.channels]
    artifact["latencies"] = list(session.processor.stats.request_latencies)
    return artifact


@needs_kernel
def test_resident_cache_copy_identical(monkeypatch):
    loads = []
    write_backs = []
    original_load = blockrun._load_sets
    original_write_back = blockrun._Loan.write_back

    def recording(level, arrays, sets):
        loads.append(sets is None)
        original_load(level, arrays, sets)

    def recording_write_back(loan, level):
        write_backs.append(level.name)
        original_write_back(loan, level)

    with serve_mode("event", False):
        expected = _interleaved_session()
    monkeypatch.setattr(blockrun, "_load_sets", recording)
    monkeypatch.setattr(blockrun._Loan, "write_back", recording_write_back)
    with serve_mode("event", True):
        assert _interleaved_session() == expected
    # Whole flattens: both levels after each direct access (an L1 and L2
    # miss) and after the declined trace; the fresh hierarchy's first
    # replay flattens nothing (its copy starts from empty sets).  The
    # CLFLUSHes on the copy reload nothing; the one flush on L1's
    # written-back lists before the second direct access is absorbed by
    # that access's whole flatten.
    assert loads.count(True) == 6 and loads.count(False) == 0
    # Lists come back only for Python reads: the first direct access,
    # contains() (L1 only), the second direct access (L2), the
    # declined trace, and the final inspection.
    assert write_backs == ["L1D", "L2", "L1D", "L2", "L1D", "L2",
                           "L1D", "L2"]


def _sparse_lent_session() -> list:
    """Replays and CLFLUSHes that each touch a different part of a large
    hierarchy while it stays lent; then one Python read."""
    from repro.workloads import microbench

    session = EasyDRAMSystem(jetson_nano_time_scaling()).session("sparse")
    hierarchy = session.hierarchy
    session.run_trace(microbench.touch_blocks(0, 96 * KiB, write=True))
    # Written back (read only): the next loan starts with no changed set.
    hierarchy.l1.resident_lines(), hierarchy.l2.resident_lines()
    session.run_trace(microbench.touch_blocks(256 * KiB, 2 * KiB))
    session.clflush_range(8 * KiB, 4 * KiB)
    session.run_trace(microbench.touch_blocks(512 * KiB, 1 * KiB,
                                              write=True))
    session.clflush_range(64 * KiB, 2 * KiB)
    return _cache_state(hierarchy)


@needs_kernel
def test_resident_copy_writes_back_every_changed_set():
    """The written-back lists carry every set any replay or CLFLUSH on
    the copy changed, not just the last replay's."""
    with serve_mode("event", False):
        expected = _sparse_lent_session()
    with serve_mode("event", True):
        assert _sparse_lent_session() == expected


def _two_sessions_one_slot() -> list:
    """Two sessions of one system replay in turn through the same core
    slot; each hierarchy is still lent when the other one loads."""
    from repro.workloads import microbench

    system = EasyDRAMSystem(_resident_config("fr-fcfs", "ddr4-1ch"))
    first, second = system.session("first"), system.session("second")
    first.run_trace(microbench.touch_blocks(0, 12 * KiB, write=True))
    second.run_trace(microbench.touch_blocks(64 * KiB, 6 * KiB, write=True))
    first.clflush_range(4 * KiB, 2 * KiB)
    first.run_trace(microbench.touch_blocks(2 * KiB, 4 * KiB))
    second.clflush_range(64 * KiB, 1 * KiB)
    return [_cache_state(first.hierarchy), _cache_state(second.hierarchy)]


@needs_kernel
def test_slot_reuse_writes_back_the_lender():
    with serve_mode("event", False):
        expected = _two_sessions_one_slot()
    with serve_mode("event", True):
        assert _two_sessions_one_slot() == expected


@needs_kernel
def test_lent_hierarchy_copies_independently():
    """A deep copy of a hierarchy lent to its resident copy flushes its
    own arrays: the original keeps every line, the copy matches a copy
    whose lists were written back before the flush."""
    import copy

    from repro.workloads import microbench

    with serve_mode("event", True):
        session = EasyDRAMSystem(_resident_config("fr-fcfs", "ddr4-1ch")) \
            .session("lent")
        session.run_trace(microbench.touch_blocks(0, 64 * KiB, write=True))
    hierarchy = session.hierarchy
    assert hierarchy.l2._loan is not None
    lent = copy.deepcopy(hierarchy)
    synced = copy.deepcopy(hierarchy)
    synced.l1.resident_lines(), synced.l2.resident_lines()  # write back
    assert synced.l2._loan is None and lent.l2._loan is not None
    first = 64 * KiB // LINE - 300
    assert (lent.flush_range(first, 256).tolist()
            == synced.flush_range(first, 256).tolist())
    assert _cache_state(lent) == _cache_state(synced)
    flushed = lent.l2.stats.flushes - hierarchy.l2.stats.flushes
    assert flushed > 0
    assert hierarchy.l2.resident_lines() - lent.l2.resident_lines() == flushed


#: The L2 set (of the 32 in ``_resident_config``) whose only way touched
#: under the loan is flushed again before the lists are read.  (Its L1
#: set's dirty victim folds into another L2 set, and no later replay or
#: fold reaches it.)
_FLUSHED_SET = 21


def _one_loan_session(probe) -> list:
    """Four replays under one loan, CLFLUSHes on the copy in between;
    ``probe(hierarchy)`` runs just before the lists are read."""
    from repro.workloads import microbench

    def stores(*addrs):
        return BlockTrace(iter([AccessBlock(list(addrs), [FLAG_WRITE]
                                            * len(addrs), [3] * len(addrs))]))

    session = EasyDRAMSystem(_resident_config("fr-fcfs", "ddr4-1ch")) \
        .session("one-loan")
    hierarchy = session.hierarchy
    # Fill every L2 way, then read the lists: every stamp predates the
    # next loan.
    session.run_trace(microbench.touch_blocks(0, 16 * KiB, write=True))
    hierarchy.l1.resident_lines(), hierarchy.l2.resident_lines()
    line = (256 + _FLUSHED_SET) * LINE       # new, in L2 set _FLUSHED_SET
    session.run_trace(stores(line))                            # replay 1
    session.clflush_range(line, LINE)        # the set's only recent way
    session.run_trace(stores(70 * LINE, 71 * LINE, 90 * LINE))  # replay 2
    session.clflush_range(70 * LINE, LINE)
    session.run_trace(microbench.touch_blocks(20 * KiB, 1 * KiB))  # 3
    session.clflush_range(20 * KiB + 4 * LINE, 8 * LINE)
    session.run_trace(stores(200 * LINE, 12 * LINE))           # replay 4
    probe(hierarchy)
    return _cache_state(hierarchy)


@needs_kernel
def test_loan_works_out_touched_sets_once(monkeypatch):
    """The loan finds the sets to rebuild only when the lists are read:
    every set a replay stamped since the loan began, plus the sets a
    flush on the copy changed -- including one whose only recent way
    the flush removed, so no stamp of it is recent any more."""
    with serve_mode("event", False):
        expected = _one_loan_session(lambda hierarchy: None)
    write_backs = []
    original = blockrun._Loan.write_back
    monkeypatch.setattr(
        blockrun._Loan, "write_back",
        lambda loan, level: (write_backs.append(level.name),
                             original(loan, level)))

    def probe(hierarchy):
        loan = hierarchy.l2.__dict__["_loan"]
        tags, dirty, stamps, count, mru = loan.arrays
        assoc = loan.assoc
        ways = stamps[_FLUSHED_SET * assoc:(_FLUSHED_SET + 1) * assoc]
        assert int(ways.max()) < loan.since
        assert loan.flushed[_FLUSHED_SET] == 1
        # Only the deliberate read after the first replay so far.
        assert write_backs == ["L1D", "L2"]

    with serve_mode("event", True):
        got = _one_loan_session(probe)
    assert write_backs == ["L1D", "L2"] * 2
    for level, (want, have) in enumerate(zip(expected, got)):
        for s, (want_set, have_set) in enumerate(zip(
                zip(*want[:3]), zip(*have[:3]))):
            assert have_set == want_set, f"level {level} set {s}"
    assert got == expected


# -- the registry tRCD technique as kernel data ------------------------------
#
# With ``TrcdReductionTechnique`` installed, the kernel serves the
# technique itself: the Bloom lookup, the per-activation plan choice
# (nominal or reduced tRCD, plus the lookup's charge), the technique's
# counters, and the early reads' reliability check.  Random block streams
# run on the kernel (resident replay on one channel, batch serve on
# ``ddr4-2ch``) and through ``TrcdReductionTechnique._serve`` on the
# reference oracle (cycle engine, kernel off), under random weak-row maps,
# every registry scheduler and three topologies.  One deliberately wrong
# map marks the truly weak rows strong, so reduced reads come back
# unreliable and the checker records tRCD violations on both legs.

TRCD_TOPOLOGIES = ("ddr4-1ch", "ddr4-1ch-2rk", "ddr4-2ch")


@contextmanager
def kernel_engagements():
    """Count the calls the kernel actually served (both entries)."""
    served = []
    batch = smc_module.SoftwareMemoryController.service_pending_kernel
    replay = blockrun._replay

    def batch_spy(self, requests):
        ok = batch(self, requests)
        served.append(("batch", ok, self.kernel_fallback_reason))
        return ok

    def replay_spy(engine, procs, smc):
        ok = replay(engine, procs, smc)
        served.append(("resident", ok, smc.kernel_fallback_reason))
        return ok

    smc_module.SoftwareMemoryController.service_pending_kernel = batch_spy
    blockrun._replay = replay_spy
    try:
        yield served
    finally:
        smc_module.SoftwareMemoryController.service_pending_kernel = batch
        blockrun._replay = replay


def _random_map(seed: int, config) -> CharacterizationResult:
    """Random minimum tRCDs for a random half of the rows the streams use."""
    rng = random.Random(seed)
    geometry = config.geometry
    result = CharacterizationResult()
    for bank in range(geometry.total_banks):
        for row in range(64):
            if rng.random() < 0.5:
                result.record(RowProfile(
                    bank, row, rng.choice((ns(8.5), ns(9.0), ns(9.5),
                                           ns(10.5)))))
    return result


def _wrong_map(config) -> CharacterizationResult:
    """Every truly weak row profiled strong and vice versa."""
    cells = EasyDRAMSystem(config).tile.cells
    result = CharacterizationResult()
    for bank in range(config.geometry.total_banks):
        for row in range(64):
            weak = cells.row_min_trcd_ps(bank, row) > ns(9.0)
            result.record(RowProfile(
                bank, row, ns(8.5) if weak else ns(10.5)))
    return result


def _trcd_stream(seed: int) -> list[AccessBlock]:
    """Random lines over 4 MiB (many rows per bank) plus sequential runs
    (row hits), mostly independent so batches reach the batch kernel."""
    rng = random.Random(seed)
    addrs, flags, gaps = [], [], []
    while len(addrs) < 360:
        line = rng.randrange(4 * 1024 * KiB // LINE)
        for i in range(rng.choice((1, 1, 4, 12))):
            addrs.append((line + i) * LINE)
            flag = FLAG_WRITE if rng.random() < 0.3 else 0
            if rng.random() < 0.1:
                flag |= FLAG_DEPENDENT
            flags.append(flag)
            gaps.append(rng.randrange(0, 30))
    half = len(addrs) // 2
    return [AccessBlock(addrs[:half], flags[:half], gaps[:half]),
            AccessBlock(addrs[half:], flags[half:], gaps[half:])]


def _run_trcd(config, characterization, blocks, engine: str) -> dict:
    system = EasyDRAMSystem(config, engine=engine)
    technique = TrcdReductionTechnique(system, characterization)
    technique.install()
    session = system.session("trcd-kernel", engine=engine)
    session.run_trace(BlockTrace(iter(blocks)))
    artifact = dataclasses.asdict(session.finish())
    artifact.pop("wall_seconds")
    artifact["latencies"] = list(session.processor.stats.request_latencies)
    artifact["smc"] = [dataclasses.asdict(smc.stats) for smc in system.smcs]
    artifact["device"] = [dataclasses.asdict(c.tile.device.stats)
                          for c in system.channels]
    artifact["violations"] = _violations(system)
    artifact["trcd"] = dataclasses.asdict(technique.stats)
    return artifact


def assert_kernel_matches_hook(config, characterization, seed: int) -> dict:
    blocks = _trcd_stream(seed)
    with serve_mode("cycle", False):
        hook = _run_trcd(config, characterization, blocks, "cycle")
    with serve_mode("event", True), kernel_engagements() as served:
        kernel = _run_trcd(config, characterization, blocks, "event")
    assert any(ok for _, ok, _ in served), "the kernel never served"
    assert all(reason is None for _, ok, reason in served if ok)
    diff = [key for key in hook if kernel[key] != hook[key]]
    assert not diff, f"kernel != serve hook in {diff}"
    trcd = hook["trcd"]
    assert trcd["reduced_acts"] and trcd["row_hits"]
    return hook


TRCD_CELLS = [pytest.param(scheduler, topology,
                      marks=() if (scheduler, topology)
                      == ("fr-fcfs", "ddr4-1ch") else pytest.mark.slow)
         for topology in TRCD_TOPOLOGIES for scheduler in scheduler_names()]


@needs_kernel
@pytest.mark.parametrize("scheduler, topology", TRCD_CELLS)
def test_trcd_random_map_identical(scheduler, topology):
    seed = 10 * TRCD_TOPOLOGIES.index(topology) \
        + scheduler_names().index(scheduler)
    config = _resident_config(scheduler, topology)
    assert_kernel_matches_hook(config, _random_map(seed, config), seed)


@needs_kernel
@pytest.mark.parametrize("topology", [
    pytest.param(t, marks=() if t == "ddr4-2ch" else pytest.mark.slow)
    for t in TRCD_TOPOLOGIES])
def test_trcd_wrong_map_identical(topology):
    """Reduced reads of truly weak rows: unreliable on both legs, with the
    same tRCD violations."""
    config = _resident_config("fr-fcfs", topology)
    hook = assert_kernel_matches_hook(config, _wrong_map(config), 7)
    assert sum(d["unreliable_reads"] for d in hook["device"]) > 0
    assert any(v[-1] == "tRCD" for log in hook["violations"] for v in log)


# -- CLFLUSH writebacks as arrays --------------------------------------------
#
# ``Session.clflush_range`` hands a range's dirty lines to the batch kernel
# as ``int64`` tag and address arrays
# (``SoftwareMemoryController.service_writebacks_kernel``) and builds
# writeback requests for the object path only when the kernel cannot serve
# them: kernel disengaged, a serve hook other than the registry tRCD
# technique, staged tile state, or a multi-channel system.  Sessions that
# flush 0, 1, 3, 4 or more dirty lines per range, and whole rows, must
# leave every observable identical in all three modes.

#: Dirty lines per flushed range ("row": every line of the row).
CLFLUSH_COUNTS = (0, 1, 3, 4, 9, "row", 1, 0, 3, 40, "row", 4)


def _stage_conventional(api, entry) -> None:
    """A serve hook that is not the tRCD technique: the object path."""
    api.stage_conventional(entry.dram, entry.request.is_writeback)


def _clflush_session(topology: str, hook: str | None, cores: int,
                     seed: int) -> dict:
    """Stores to random lines of fresh rows, each row then flushed (as a
    whole or from an unaligned start); every observable, as a dict."""
    rng = random.Random(seed)
    config = jetson_nano_time_scaling().with_topology(topology)
    system = EasyDRAMSystem(config)
    technique = None
    if hook == "trcd":
        technique = TrcdReductionTechnique(system, _random_map(seed, config))
        technique.install()
    elif hook == "lambda":
        system.smc.serve_hook = _stage_conventional
    session = system.session("clflush")
    for _ in range(cores - 1):
        session.add_core()
    row = config.geometry.row_bytes
    per_row = row // LINE
    flushed = []
    for step, count in enumerate(CLFLUSH_COUNTS):
        base = (3 * step + rng.randrange(3)) * row
        dirty = set(range(per_row) if count == "row"
                    else rng.sample(range(per_row), count))
        addrs, flags, gaps = [], [], []
        for i in range(per_row):
            if i in dirty or rng.random() < 0.3:
                addrs.append(base + i * LINE)
                flags.append(FLAG_WRITE if i in dirty else 0)
                gaps.append(rng.randrange(0, 40))
        session.run_trace(BlockTrace(iter([AccessBlock(addrs, flags,
                                                       gaps)])))
        start = base + rng.choice((0, 0, 5, LINE - 1))
        flushed.append(session.clflush_range(start, base + row - start))
        assert flushed[-1] == len(dirty)
    artifact = dataclasses.asdict(session.finish())
    artifact.pop("wall_seconds")
    artifact["flushed"] = flushed
    artifact["smc"] = [dataclasses.asdict(smc.stats) for smc in system.smcs]
    artifact["device"] = [dataclasses.asdict(c.tile.device.stats)
                          for c in system.channels]
    artifact["violations"] = _violations(system)
    tracker = session._core_tracker
    artifact["tracker"] = (None if tracker is None else
                           {name: list(getattr(tracker, name))
                            for name in tracker.__slots__})
    artifact["counters"] = vars(system.counters)
    if technique is not None:
        artifact["trcd"] = dataclasses.asdict(technique.stats)
    return artifact


#: (topology, serve hook, cores, whether the kernel leg serves the
#: writebacks as arrays).
CLFLUSH_CASES = [
    ("ddr4-1ch", None, 1, True),
    ("ddr4-1ch", None, 2, True),
    ("ddr4-1ch-2rk", None, 1, True),
    ("ddr4-1ch", "trcd", 1, True),
    ("ddr4-1ch", "lambda", 1, False),
    ("ddr4-2ch", None, 1, False),
    ("ddr4-2ch", None, 2, False),
]


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("topology, hook, cores, engages", CLFLUSH_CASES)
def test_array_writebacks_match_the_oracles(topology, hook, cores, engages,
                                            seed, monkeypatch):
    served = []
    controller = smc_module.SoftwareMemoryController
    entry = controller.service_writebacks_kernel

    def recording(smc, tags, addrs):
        last = entry(smc, tags, addrs)
        served.append(last is not None)
        return last

    monkeypatch.setattr(controller, "service_writebacks_kernel", recording)
    artifacts = {}
    for name, engine, kernel in MODES:
        served.clear()
        with serve_mode(engine, kernel):
            artifacts[name] = _clflush_session(topology, hook, cores, seed)
        if name == "kernel":
            # Every range with a dirty line (10 of the 12), or none.
            assert served == [True] * 10 if engages else not any(served)
    reference = artifacts["object"]
    for name, artifact in artifacts.items():
        diff = [key for key in reference if artifact[key] != reference[key]]
        assert not diff, f"{name} != object oracle in {diff}"


def test_out_of_range_writeback_raises_the_same_error():
    """A strict map: a store beyond the topology is cached (its fill
    decode then raises); flushing it raises the mapper's own error on
    every path."""
    errors = {}
    for name, engine, kernel in MODES:
        with serve_mode(engine, kernel):
            system = EasyDRAMSystem(jetson_nano_time_scaling())
            session = system.session("out-of-range")
            assert system.mapper.strict
            beyond = system.config.geometry.total_bytes + 3 * LINE
            with pytest.raises(ValueError) as fill:
                session.run_trace(BlockTrace(iter([AccessBlock(
                    [0, LINE, beyond], [FLAG_WRITE] * 3, [1, 1, 1])])))
            with pytest.raises(ValueError) as flush:
                session.clflush_range(beyond - LINE, 3 * LINE)
        errors[name] = (str(fill.value), str(flush.value))
    assert len(set(errors.values())) == 1, errors
    assert hex(beyond) in errors["object"][1]
