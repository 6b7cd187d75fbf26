"""Hand-written traces replay the same as blocks and as plain lists.

``Processor.feed`` chunks a plain list of accesses with ``blockify``
(default block size); ``blockify`` with an explicit size gives other
block boundaries.  Either way the blocks replay resident in the kernel
(or, with the kernel off, in the Python block loop).  The oracle is the
per-access replay of ``reference_processor.py`` on the cycle engine
with the kernel off.  Random ``load``/``store`` traces, with dependent
loads, writes and gaps of 0 and more, must give the oracle's result,
controller and device statistics and per-request latencies under every
serve mode.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest
from reference_processor import install

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.cpu.blocks import BLOCK_ACCESSES, blockify
from repro.cpu.memtrace import load, store
from repro.dram.kernel import blockrun, cbackend
from repro.experiments.common import scaled_cache_overrides

HAVE_KERNEL = cbackend.load()[0] is not None

#: (name, engine, kernel)
MODES = (
    *((("resident", "event", True),) if HAVE_KERNEL else ()),
    ("kernel-off", "event", False),
    ("cycle", "cycle", False),
)


def random_trace(seed: int, n: int = 1200) -> list:
    """Loads (some dependent) and stores over a footprint that spills
    the 32 KiB L2 (dirty evictions), plus a hot set that hits."""
    rng = random.Random(seed)
    trace = []
    for _ in range(n):
        line = rng.randrange(64) if rng.random() < 0.3 else rng.randrange(1 << 15)
        gap = 0 if rng.random() < 0.5 else rng.choice((1, 3, 25, 400))
        kind = rng.random()
        if kind < 0.3:
            trace.append(store(line * 64, gap=gap))
        else:
            trace.append(load(line * 64, gap=gap, dependent=kind < 0.5))
    return trace


def observe(trace, engine: str, kernel: bool,
            reference: bool = False) -> dict:
    system = EasyDRAMSystem(
        jetson_nano_time_scaling(**scaled_cache_overrides()), engine=engine,
        kernel=kernel)
    session = system.session("blockify")
    if reference:
        install(session)
    session.run_trace(trace)
    run = dataclasses.asdict(session.finish())
    run.pop("wall_seconds")
    return {
        "run": run,
        "smc": dataclasses.asdict(system.smc.stats),
        "device": dataclasses.asdict(system.device.stats),
        "latencies": list(session.processor.stats.request_latencies),
    }


@functools.cache
def oracle(seed: int) -> dict:
    """The object reference: the plain list replayed access by access on
    the cycle engine with the kernel off."""
    return observe(random_trace(seed), "cycle", False, reference=True)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every single-core resident replay attempt: (engaged, reason)."""
    calls = []
    original = blockrun.run_gated_kernel

    def recording(engine, session, proc, smc):
        engaged = original(engine, session, proc, smc)
        calls.append((engaged, smc.kernel_fallback_reason))
        return engaged

    monkeypatch.setattr(blockrun, "run_gated_kernel", recording)
    return calls


@pytest.mark.parametrize("block", [1, 7, BLOCK_ACCESSES])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("mode", MODES, ids=[m[0] for m in MODES])
def test_blockified_matches_per_access(mode, seed, block, kernel_calls,
                                       kernel_on):
    name, engine, kernel = mode
    expected = oracle(seed)
    trace = random_trace(seed)
    per_access = observe(trace, engine, kernel)
    blocks = observe(blockify(trace, block), engine, kernel)
    assert expected["run"]["writeback_requests"] and expected["latencies"]
    assert blocks == expected
    assert per_access == expected
    # Both runs try the resident replay (the event engine's entry), and
    # only the resident mode engages it.
    engaged = [ok for ok, _ in kernel_calls]
    assert engaged == ([True, True] if name == "resident"
                       else [False, False] if engine == "event" else [])
