"""The three emulation workloads: seeded op lists, op runners, checks.

An *op* is a small dict of generated inputs.  Its runner builds a fresh
system, runs the op to ``Session.finish()`` and returns an
:class:`OpOutcome`.  A workload's seeded *round* holds one op per op
class (sizes jittered a few percent around each class's size by the
seed, chase chains and core orders drawn from it), shuffled by the
seed, so any two seeds measure the same amount of work on different
inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import random
from dataclasses import dataclass, field

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.workloads import lmbench, microbench, polybench

MiB = 1 << 20
KiB = 1 << 10
LINE = 64

#: RowClone / CPU-copy destination anchor (the fig10 case study's).
DST_BASE = 1 << 26


@dataclass
class OpOutcome:
    """What one op produced: its result plus the numbers the checks and
    throughput metrics need."""

    results: list                        # RunResult per run of the op
    accesses: int                        # emulated accesses retired
    cycles: int                          # emulated cycles, summed over cores
    expected_accesses: int | None = None
    problems: list[str] = field(default_factory=list)
    systems: list = field(default_factory=list)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _jittered(rng: random.Random, center: int, align: int,
              spread: float = 0.03) -> int:
    """``center`` moved by up to ``spread`` either way, ``align``-aligned."""
    value = int(center * rng.uniform(1.0 - spread, 1.0 + spread))
    return max(align, value - value % align)


def _count(blocks) -> int:
    return sum(len(block) for block in blocks)


# -- emu-1core ------------------------------------------------------------

#: Working-set / copy sizes: one op class per size and kind.
SIZES_1CORE = tuple(k * MiB for k in range(1, 9))


def round_1core(seed: int) -> list[dict]:
    rng = _rng(seed, "emu-1core")
    ops = []
    for size in SIZES_1CORE:
        ops.append({"kind": "lmbench", "cls": "read",
                    "ws": min(8 * MiB, _jittered(rng, size, 4 * KiB)),
                    "chase": rng.randrange(11_500, 12_501),
                    "chain": rng.randrange(1 << 30)})
        ops.append({"kind": "copy", "cls": "write",
                    "size": min(8 * MiB, _jittered(rng, size, 4 * KiB))})
    rng.shuffle(ops)
    return ops


def _run_lmbench(op: dict, engine: str | None) -> OpOutcome:
    system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
    session = system.session("lat")
    session.run_trace(microbench.touch_blocks(0, op["ws"]))
    session.run_trace(lmbench.pointer_chase_blocks(
        op["ws"], op["chase"], base_addr=0, seed=op["chain"]))
    result = session.finish()
    return OpOutcome([result], result.accesses, result.cycles,
                     systems=[system])


def _run_copy(op: dict, engine: str | None) -> OpOutcome:
    system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
    session = system.session("cpu-copy")
    session.run_trace(microbench.cpu_copy_blocks(0, DST_BASE, op["size"]))
    result = session.finish()
    return OpOutcome([result], result.accesses, result.cycles,
                     systems=[system])


# -- emu-4core-zoo --------------------------------------------------------

#: The fig17 mixes cycled to four cores; the seed permutes core order.
ZOO_MIXES = {"read": ("stream", "pointer_chase", "stream", "pointer_chase"),
             "write": ("stream", "init", "pointer_chase", "stream")}
ZOO_TOPOLOGIES = ("ddr4-1ch", "ddr4-1ch-2rk")


def round_zoo(seed: int) -> list[dict]:
    """One op per (scheduler, mix); each op runs the mix on both
    topologies, one after the other."""
    from repro.core.schedulers import scheduler_names

    rng = _rng(seed, "emu-4core-zoo")
    ops = []
    for scheduler in scheduler_names():
        for cls, names in ZOO_MIXES.items():
            order = list(names)
            rng.shuffle(order)
            ops.append({"kind": "mix", "cls": cls, "mix": "+".join(order),
                        "scheduler": scheduler})
    rng.shuffle(ops)
    return ops


def _zoo_config(scheduler: str, topology: str):
    config = jetson_nano_time_scaling().with_topology(topology)
    return config.with_overrides(controller=dataclasses.replace(
        config.controller, scheduler=scheduler))


def _run_mix(op: dict, engine: str | None) -> OpOutcome:
    from repro.core.workload_mix import WorkloadMix, run_mix

    mix = WorkloadMix.parse(op["mix"])
    results, cycles = [], 0
    # run_mix builds its systems internally.  Only the engine checks,
    # which name an engine, need them; timed runs leave the class as is.
    capture = capture_systems() if engine else contextlib.nullcontext([])
    with capture as systems:
        for topology in ZOO_TOPOLOGIES:
            run = run_mix(_zoo_config(op["scheduler"], topology), mix,
                          engine=engine, solo=False)
            results.append(run.result)
            cycles += sum(run.core_cycles)
    return OpOutcome(results, sum(r.accesses for r in results), cycles,
                     systems=systems)


# -- emu-technique --------------------------------------------------------

#: RowClone sizes (256 KiB - 2 MiB): one op class per size, mode, flush.
ROWCLONE_SIZES = (384 * KiB, 1536 * KiB)


def round_technique(seed: int) -> list[dict]:
    rng = _rng(seed, "emu-technique")
    ops = []
    for mode in ("copy", "init"):
        for clflush in (False, True):
            for size in ROWCLONE_SIZES:
                ops.append({"kind": "rowclone", "cls": "write", "op": mode,
                            "clflush": clflush,
                            "size": _jittered(rng, size, 8 * KiB)})
    for kernel in polybench.FIG13_KERNELS:
        ops.append({"kind": "trcd", "cls": "read", "kernel": kernel})
    rng.shuffle(ops)
    return ops


def _run_rowclone(op: dict, engine: str | None) -> OpOutcome:
    from repro.core.techniques.rowclone import RowCloneTechnique

    system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
    session = system.session(f"rowclone-{op['op']}")
    tech = RowCloneTechnique(session)
    size, clflush = op["size"], op["clflush"]
    touched = 0
    if op["op"] == "copy":
        plan = tech.plan_copy(size, base_addr=0)
        rows = len(plan.pairs)
        if clflush:
            session.run_trace(microbench.touch_blocks(0, size, write=True))
            touched = size // LINE
        tech.execute_copy(plan, clflush=clflush)
        per_fallback = 2 * tech.geometry.row_bytes // LINE
    else:
        plan = tech.plan_init(size, base_addr=DST_BASE)
        rows = len(plan.targets)
        if clflush:
            session.run_trace(microbench.touch_blocks(DST_BASE, size,
                                                      write=True))
            touched = size // LINE
        tech.execute_init(plan, clflush=clflush, include_source_setup=False)
        per_fallback = tech.geometry.row_bytes // LINE
    result = session.finish()
    outcome = OpOutcome([result], result.accesses, result.cycles,
                        expected_accesses=(touched + tech.stats.fallback_rows
                                           * per_fallback),
                        systems=[system])
    if tech.stats.rowclone_ops + tech.stats.fallback_rows != rows:
        outcome.problems.append(
            f"rowclone covered {tech.stats.rowclone_ops} +"
            f" {tech.stats.fallback_rows} of {rows} rows")
    if result.technique_ops != tech.stats.rowclone_ops:
        outcome.problems.append(
            f"{result.technique_ops} technique ops for"
            f" {tech.stats.rowclone_ops} RowClone operations")
    if op["op"] == "copy" and not tech.copy_is_correct(plan):
        outcome.problems.append("RowClone destination rows differ from source")
    return outcome


def trcd_config():
    """Figure 13's configuration: caches scaled with the mini datasets."""
    from repro.experiments.common import scaled_cache_overrides

    return jetson_nano_time_scaling(**scaled_cache_overrides())


@functools.cache
def characterize() -> object:
    """The oracle weak-row map the tRCD technique schedules with.

    The cells are seeded, so the map is the same in every process; it is
    computed once, in set-up.
    """
    from repro.profiling.characterize import oracle_characterize

    probe = EasyDRAMSystem(trcd_config())
    geometry = probe.config.geometry
    return oracle_characterize(
        probe.tile.cells, geometry, range(geometry.num_banks),
        range(geometry.rows_per_bank))


def _run_trcd(op: dict, engine: str | None) -> OpOutcome:
    from repro.core.techniques.trcd import TrcdReductionTechnique

    system = EasyDRAMSystem(trcd_config(), engine=engine)
    technique = TrcdReductionTechnique(system, characterize())
    technique.install()
    session = system.session(op["kernel"])
    session.run_trace(polybench.trace_blocks(op["kernel"], "mini"))
    result = session.finish()
    return OpOutcome([result], result.accesses, result.cycles,
                     systems=[system])


# -- shared ----------------------------------------------------------------

RUNNERS = {"lmbench": _run_lmbench, "copy": _run_copy, "mix": _run_mix,
           "rowclone": _run_rowclone, "trcd": _run_trcd}

ROUNDS = {"emu-1core": round_1core, "emu-4core-zoo": round_zoo,
          "emu-technique": round_technique}


def run_op(op: dict, engine: str | None = None) -> OpOutcome:
    """Run one op; ``engine=None`` is the program's default engine."""
    return RUNNERS[op["kind"]](op, engine)


def generated_accesses(op: dict) -> int | None:
    """Accesses the op's traces carry, counted by regenerating them.

    Runs outside the timed region; RowClone ops instead derive theirs
    from the technique's fallback count (see :func:`_run_rowclone`).
    """
    return _generated(tuple(sorted(op.items())))


@functools.lru_cache(maxsize=256)
def _generated(items: tuple) -> int | None:
    op = dict(items)
    kind = op["kind"]
    if kind == "lmbench":
        return (_count(microbench.touch_blocks(0, op["ws"]))
                + _count(lmbench.pointer_chase_blocks(
                    op["ws"], op["chase"], base_addr=0, seed=op["chain"])))
    if kind == "copy":
        return _count(microbench.cpu_copy_blocks(0, DST_BASE, op["size"]))
    if kind == "mix":
        from repro.core.workload_mix import WorkloadMix

        mix = WorkloadMix.parse(op["mix"])
        return len(ZOO_TOPOLOGIES) * sum(_count(mix.build(core))
                                         for core in range(mix.cores))
    if kind == "trcd":
        return _count(polybench.trace_blocks(op["kernel"], "mini"))
    return None


@contextlib.contextmanager
def capture_systems():
    """Collect every :class:`EasyDRAMSystem` built inside the block."""
    systems: list = []
    original = EasyDRAMSystem.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        systems.append(self)

    EasyDRAMSystem.__init__ = init
    try:
        yield systems
    finally:
        EasyDRAMSystem.__init__ = original


def artifact(outcome: OpOutcome) -> dict:
    """Everything an engine must reproduce: the run result without its
    host wall time, plus controller and device stats of every channel."""
    results = [_without_wall(r) for r in outcome.results]
    memory = []
    for system in outcome.systems:
        for channel in system.channels:
            memory.append({
                "smc": dataclasses.asdict(channel.smc.stats),
                "device": dataclasses.asdict(channel.tile.device.stats)})
    return {"results": results, "memory": memory}


def _without_wall(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("wall_seconds")
    return fields


def first_difference(a, b, path: str = "") -> str | None:
    """Where two artifacts first differ (None when equal)."""
    if type(a) is not type(b):
        return f"{path or '.'}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                return f"{path}.{key}: missing on one side"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if a == b else f"{path}: {a!r} vs {b!r}"


def check_accesses(op: dict, outcome: OpOutcome) -> str | None:
    """The op retired exactly the accesses its inputs generated."""
    expected = outcome.expected_accesses
    if expected is None:
        expected = generated_accesses(op)
    if expected is not None and outcome.accesses != expected:
        return (f"retired {outcome.accesses} accesses,"
                f" generated {expected}")
    return None


def check_engines(op: dict, measured: OpOutcome) -> str | None:
    """Re-run ``op`` on the event and the cycle engine: both must agree
    with each other field by field, and the event re-run with the
    measured run's result."""
    event = artifact(run_op(op, engine="event"))
    cycle = artifact(run_op(op, engine="cycle"))
    diff = first_difference(event, cycle)
    if diff:
        return f"event vs cycle engine: {diff}"
    mine = [_without_wall(r) for r in measured.results]
    diff = first_difference(mine, event["results"])
    if diff:
        return f"measured run vs event re-run: {diff}"
    return None
