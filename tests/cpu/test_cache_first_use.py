"""First use of a never-touched cache level, on every path.

A fresh :class:`~repro.cpu.cache.Cache` builds no per-set list: a
resident replay starts its copy of the level from empty sets, and the
first Python read builds empty lists.  Random scenarios begin with each
kind of first use of a fresh hierarchy -- a resident replay followed by
Python reads, a Python-path access, a CLFLUSH, a deep copy or pickle,
a second session whose core slot still holds another hierarchy's stale
ways -- and continue with random replays, CLFLUSHes, direct accesses and
copies of lent hierarchies.  Each scenario runs on the compiled kernel
(``REPRO_KERNEL=c``), on the Python path (``REPRO_KERNEL=0``) and on
the list-based seed oracle (:mod:`reference_cache`) fed the same
accesses and flushes; every observation and the final cache state must
agree.  The baseline simulator's hierarchy gets the same check.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import random
from contextlib import contextmanager

import pytest
from reference_cache import ReferenceCache, ReferenceCacheHierarchy

from repro.baselines.ramulator.sim import RamulatorConfig, RamulatorSim
from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.cpu.blocks import AccessBlock, BlockTrace
from repro.cpu.cache import _WAY_LISTS
from repro.cpu.memtrace import FLAG_DEPENDENT, FLAG_WRITE, Access
from repro.dram.kernel import blockrun, cbackend

LINE = 64
KiB = 1024

#: Lines the scenarios address: a few times the 16 KiB L2, so sets
#: conflict and dirty victims are written back.
_LINES = 1024

HAVE_KERNEL = cbackend.load()[0] is not None

MODES = ("c", "0") if HAVE_KERNEL else ("0",)

FIRST_USES = ("replay", "access", "clflush", "copy", "second-session")


def _config():
    base = jetson_nano_time_scaling()
    return dataclasses.replace(
        base, l1=dataclasses.replace(base.l1, size_bytes=2 * KiB),
        l2=dataclasses.replace(base.l2, size_bytes=16 * KiB))


@contextmanager
def _kernel_mode(mode: str):
    saved = {k: os.environ.get(k) for k in ("REPRO_ENGINE", "REPRO_KERNEL")}
    os.environ["REPRO_ENGINE"] = "event"
    os.environ["REPRO_KERNEL"] = mode
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# -- scenario plans (plain data, so every path runs the same one) ------------

def _blocks(rng: random.Random) -> list[tuple[list, list, list]]:
    blocks = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 120)
        hot = rng.randrange(_LINES - 64)
        addrs = [(hot + rng.randrange(64) if rng.random() < 0.6
                  else rng.randrange(_LINES)) * LINE + rng.randrange(LINE)
                 for _ in range(n)]
        flags = [(FLAG_WRITE if rng.random() < 0.4 else 0)
                 | (FLAG_DEPENDENT if rng.random() < 0.1 else 0)
                 for _ in range(n)]
        blocks.append((addrs, flags, [rng.randrange(4) for _ in range(n)]))
    return blocks


def _python_ops(rng: random.Random, count: int) -> list[tuple]:
    """Python-side reads and mutations of one hierarchy."""
    ops = []
    for _ in range(count):
        kind = rng.choice(("contains", "lines", "access", "flush_range"))
        if kind == "contains":
            ops.append((kind, rng.choice(("l1", "l2")),
                        rng.randrange(_LINES)))
        elif kind == "lines":
            ops.append((kind,))
        elif kind == "access":
            ops.append((kind, rng.randrange(_LINES) * LINE,
                        rng.random() < 0.5))
        else:
            ops.append((kind, rng.randrange(_LINES), rng.randint(1, 48)))
    return ops


def _step(rng: random.Random, sessions: int) -> tuple:
    s = rng.randrange(sessions)
    r = rng.random()
    if r < 0.4:
        return ("replay", s, _blocks(rng))
    if r < 0.6:
        return ("clflush", s, rng.randrange(_LINES) * LINE,
                rng.randint(1, 48) * LINE)
    if r < 0.9:
        return ("python", s, _python_ops(rng, rng.randint(1, 3)))
    return ("copies", s, _python_ops(rng, 4))


def _plan(first_use: str, seed: int) -> list[tuple]:
    rng = random.Random(f"{first_use}-{seed}")
    if first_use == "replay":
        steps = [("replay", 0, _blocks(rng)),
                 ("python", 0, _python_ops(rng, rng.randint(1, 4)))]
    elif first_use == "access":
        steps = [("python", 0, [("access", rng.randrange(_LINES) * LINE,
                                 rng.random() < 0.5)])]
    elif first_use == "clflush":
        steps = [("clflush", 0, rng.randrange(_LINES) * LINE,
                  rng.randint(1, 48) * LINE)]
    elif first_use == "copy":
        steps = [("copies", 0, _python_ops(rng, 4))]
    else:
        steps = [("replay", 0, _blocks(rng)), ("session",),
                 ("replay", 1, _blocks(rng))]
    sessions = 2 if first_use == "second-session" else 1
    # Every plan replays, and copies a hierarchy lent to its copy.
    steps += [("replay", sessions - 1, _blocks(rng)),
              ("copies", sessions - 1, _python_ops(rng, 4))]
    return steps + [_step(rng, sessions) for _ in range(8)]


# -- running a plan ----------------------------------------------------------

def _trace(blocks) -> BlockTrace:
    return BlockTrace(iter([AccessBlock(*block) for block in blocks]))


def _fresh(level) -> bool:
    """The level holds no way list, built or lent."""
    return level._loan is None and "_tags" not in level.__dict__


def _python_op(hierarchy, op) -> object:
    kind = op[0]
    if kind == "contains":
        return getattr(hierarchy, op[1]).contains(op[2])
    if kind == "lines":
        return hierarchy.l1.resident_lines(), hierarchy.l2.resident_lines()
    if kind == "access":
        traffic = hierarchy.access(op[1], op[2])
        return traffic.latency, traffic.fill_line, traffic.writebacks
    if isinstance(hierarchy, ReferenceCacheHierarchy):
        return [i for i in range(op[2]) if hierarchy.flush_line(
            (op[1] + i) * LINE) is not None]
    return hierarchy.flush_range(op[1], op[2]).tolist()


def _cache_state(hierarchy) -> list:
    return [(level._tags, level._dirty, level._stamps, level._mru,
             level._tick, dataclasses.asdict(level.stats))
            for level in (hierarchy.l1, hierarchy.l2)]


def _copies(hierarchy, ops) -> list:
    """Deep copy and pickle ``hierarchy``; drive each copy with ``ops``:
    per copy, the results and the final cache state."""
    return [([_python_op(clone, op) for op in ops], _cache_state(clone))
            for clone in (copy.deepcopy(hierarchy),
                          pickle.loads(pickle.dumps(hierarchy)))]


def _run_system(plan: list, mode: str) -> dict:
    """The plan on an emulated system under ``REPRO_KERNEL=mode``."""
    replays = []
    flattened_fresh = []
    original_replay = blockrun._replay
    original_load = blockrun._load_sets

    def spy_replay(engine, procs, smc):
        replays.append(original_replay(engine, procs, smc))
        return replays[-1]

    def spy_load(level, arrays, sets):
        flattened_fresh.append(_fresh(level))
        original_load(level, arrays, sets)

    observed = []
    with _kernel_mode(mode), pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockrun, "_replay", spy_replay)
        patch.setattr(blockrun, "_load_sets", spy_load)
        system = EasyDRAMSystem(_config())
        sessions = [system.session("first")]
        for step in plan:
            kind = step[0]
            if kind == "session":
                sessions.append(system.session("second"))
                continue
            session = sessions[step[1]]
            hierarchy = session.hierarchy
            if kind == "replay":
                fresh = [_fresh(level)
                         for level in (hierarchy.l1, hierarchy.l2)]
                session.run_trace(_trace(step[2]))
                if mode == "c" and replays[-1]:
                    # A replay builds no list for a level that had none.
                    for level, was_fresh in zip(
                            (hierarchy.l1, hierarchy.l2), fresh):
                        if was_fresh:
                            assert "_tags" not in level.__dict__
                            assert level._loan.lists is None
            elif kind == "clflush":
                observed.append(
                    (kind, session.clflush_range(step[2], step[3])))
            elif kind == "python":
                observed.append(
                    (kind, [_python_op(hierarchy, op) for op in step[2]]))
            else:
                observed.append((kind, _copies(hierarchy, step[2])))
        results = []
        for session in sessions:
            result = dataclasses.asdict(session.finish())
            result.pop("wall_seconds")
            results.append(result)
        states = [_cache_state(session.hierarchy) for session in sessions]
    if mode == "c":
        assert any(replays), "the kernel never replayed"
        assert not any(flattened_fresh), "a fresh level was flattened"
    return {"observed": observed, "states": states, "results": results}


def _reference_hierarchy(config) -> ReferenceCacheHierarchy:
    l1, l2 = config.l1, config.l2
    return ReferenceCacheHierarchy(
        ReferenceCache("L1D", l1.size_bytes, l1.assoc, l1.line_bytes,
                       l1.hit_latency),
        ReferenceCache("L2", l2.size_bytes, l2.assoc, l2.line_bytes,
                       l2.hit_latency),
        memory_fill_latency=2)


def _reference_copies(hierarchy, ops) -> list:
    clones = [copy.deepcopy(hierarchy) for _ in range(2)]
    return [([_python_op(clone, op) for op in ops], _reference_view(clone))
            for clone in clones]


def _run_reference(plan: list) -> dict:
    """The plan on the seed oracle: the same accesses and flushes."""
    config = _config()
    hierarchies = [_reference_hierarchy(config)]
    observed = []
    for step in plan:
        kind = step[0]
        if kind == "session":
            hierarchies.append(_reference_hierarchy(config))
            continue
        hierarchy = hierarchies[step[1]]
        if kind == "replay":
            for addrs, flags, _ in step[2]:
                for addr, flag in zip(addrs, flags):
                    hierarchy.access(addr, bool(flag & FLAG_WRITE))
        elif kind == "clflush":
            observed.append((kind, sum(
                hierarchy.flush_line(addr) is not None
                for addr in range(step[2], step[2] + step[3], LINE))))
        elif kind == "python":
            observed.append(
                (kind, [_python_op(hierarchy, op) for op in step[2]]))
        else:
            observed.append((kind, _reference_copies(hierarchy, step[2])))
    return {"observed": observed,
            "states": [_reference_view(h) for h in hierarchies]}


def _reference_view(hierarchy) -> list:
    """Per oracle level: each set's ways as ``[tag, dirty]``, most recent
    first, and the hit/miss/writeback/flush counters."""
    return [([[list(way) for way in ways] for ways in level._sets],
             dataclasses.asdict(level.stats))
            for level in (hierarchy.l1, hierarchy.l2)]


def _as_reference(run: dict) -> dict:
    """A system run's observations in the oracle's terms."""
    observed = [(kind, [(results, _view_of_state(state))
                        for results, state in value])
                if kind == "copies" else (kind, value)
                for kind, value in run["observed"]]
    return {"observed": observed,
            "states": [_view_of_state(state) for state in run["states"]]}


def _view_of_state(state: list) -> list:
    """:func:`_reference_view` of a recorded :func:`_cache_state`: ways
    ordered by LRU stamp, most recent first."""
    view = []
    for tags, dirty, stamps, _mru, _tick, stats in state:
        sets = [[[tag, d] for _, tag, d in sorted(zip(st, tg, dt),
                                                   reverse=True)]
                for tg, dt, st in zip(tags, dirty, stamps)]
        view.append((sets, stats))
    return view


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("first_use", FIRST_USES)
def test_first_use_of_a_fresh_level_identical(first_use, seed):
    plan = _plan(first_use, seed)
    runs = {mode: _run_system(plan, mode) for mode in MODES}
    python = runs["0"]
    if "c" in runs:
        assert runs["c"] == python
    assert _as_reference(python) == _run_reference(plan)


def _replayed_copy() -> list:
    """A copy of a lent hierarchy, installed on the processor after the
    original replayed on: the core slot holds the original's newer ways."""
    session = EasyDRAMSystem(_config()).session("copied")
    session.run_trace(_trace([([line * LINE for line in range(128)],
                               [FLAG_WRITE] * 128, [1] * 128)]))
    clone = copy.deepcopy(session.hierarchy)
    session.run_trace(_trace([([(_LINES + line) * LINE
                                for line in range(128)],
                               [FLAG_WRITE] * 128, [1] * 128)]))
    session.processor.hierarchy = session.hierarchy = clone
    session.run_trace(_trace([([(2 * _LINES + line) * LINE
                                for line in range(16)], [0] * 16, [1] * 16)]))
    return _cache_state(clone)


def test_copied_hierarchy_replays_its_own_ways():
    runs = {}
    for mode in MODES:
        with _kernel_mode(mode):
            runs[mode] = _replayed_copy()
    assert runs.get("c", runs["0"]) == runs["0"]


def test_baseline_simulator_hierarchy_starts_empty():
    """The baseline simulator's hierarchy builds its lists on its first
    Python access and filters exactly as the seed oracle."""
    rng = random.Random(7)
    trace = [Access(rng.randrange(_LINES) * LINE,
                    FLAG_WRITE if rng.random() < 0.4 else 0,
                    rng.randrange(3)) for _ in range(400)]
    sim = RamulatorSim(RamulatorConfig(l1_size=2 * KiB, l2_size=16 * KiB))
    for level in (sim.hierarchy.l1, sim.hierarchy.l2):
        assert not any(name in level.__dict__ for name in _WAY_LISTS)
    result = sim.run(iter(trace), "first-use")
    config = sim.config
    reference = ReferenceCacheHierarchy(
        ReferenceCache("L1D", config.l1_size, config.l1_assoc, LINE, 2),
        ReferenceCache("L2", config.l2_size, config.l2_assoc, LINE, 12))
    misses = sum(reference.access(a.addr, a.is_write).fill_line is not None
                 for a in trace)
    assert result.llc_misses == misses
    assert (_view_of_state(_cache_state(sim.hierarchy))
            == _reference_view(reference))
