"""The block-cursor baseline frontend against its per-access reference.

``RamulatorSim`` runs each random trace twice: once as it runs in
production (the block frontend reading ``AccessBlock`` arrays, the
stream cut by ``blocks.cut``), once with the per-access frontend of
``reference_frontend.py`` fed the same accesses, cut by slicing the
per-access stream.  Every ``BaselineResult`` field but the host wall
time must be equal.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from reference_frontend import CoreFrontend as ReferenceFrontend

from repro.baselines.ramulator import RamulatorConfig, RamulatorSim
from repro.baselines.ramulator import sim as sim_module
from repro.cpu.blocks import BLOCK_ACCESSES, AccessBlock, blockify
from repro.cpu.memtrace import FLAG_DEPENDENT, FLAG_WRITE, Access

ACCESSES = 120


def random_trace(seed: str) -> list[Access]:
    """Reads, writes and dependent loads over a footprint a few times the
    small caches below (hits, misses and writebacks), with gaps of 0
    and more."""
    rng = random.Random(seed)
    trace = []
    for _ in range(ACCESSES):
        line = rng.randrange(256) if rng.random() < 0.7 else rng.randrange(1 << 16)
        flags = rng.choice((0, 0, FLAG_WRITE, FLAG_DEPENDENT,
                            FLAG_WRITE | FLAG_DEPENDENT))
        gap = 0 if rng.random() < 0.5 else rng.choice((1, 2, 7, 40))
        trace.append(Access(line * 64, flags, gap))
    return trace


def config(max_accesses: int | None, mlp: int) -> RamulatorConfig:
    return RamulatorConfig(l1_size=1024, l1_assoc=2, l2_size=4096, l2_assoc=4,
                           mlp=mlp, max_accesses=max_accesses)


def simulate(trace, cfg: RamulatorConfig, trcd_override: bool) -> dict:
    sim = RamulatorSim(cfg)
    if trcd_override:
        # fig13's shape: a per-row choice between a reduced and the
        # nominal tRCD.
        nominal = sim.model.c_rcd
        sim.controller.trcd_cycles_for = (
            lambda bank, row: nominal - 3 if (bank + row) % 3 else nominal)
    result = dataclasses.asdict(sim.run(trace, "oracle"))
    result.pop("wall_seconds")
    return result


def reference_core(hierarchy, trace, issue_miss, mlp):
    return ReferenceFrontend(
        hierarchy, (a for block in trace for a in block.accesses()),
        issue_miss, mlp=mlp)


def cap_for(kind: str, block: int) -> int | None:
    if kind == "none":
        return None
    if kind == "past-end":
        return ACCESSES + 5
    boundary = min(ACCESSES, block * max(1, ACCESSES // (2 * block)))
    if kind == "boundary":
        return boundary
    # Mid-block: one past a boundary, unless a block holds one access.
    return boundary + 1 if block > 1 else boundary


@pytest.mark.parametrize("trcd_override", [False, True],
                         ids=["nominal", "trcd"])
@pytest.mark.parametrize("cap", ["none", "boundary", "mid-block", "past-end"])
@pytest.mark.parametrize("block", [1, 3, BLOCK_ACCESSES])
@pytest.mark.parametrize("mlp", [1, 2, 8])
def test_block_frontend_matches_reference(mlp, block, cap, trcd_override,
                                          monkeypatch):
    accesses = random_trace(f"{mlp}-{block}-{cap}-{trcd_override}")
    max_accesses = cap_for(cap, block)
    if cap == "mid-block" and block > 1:
        assert max_accesses % block
    produced = simulate(blockify(accesses, block), config(max_accesses, mlp),
                        trcd_override)
    monkeypatch.setattr(sim_module, "CoreFrontend", reference_core)
    cut = accesses if max_accesses is None else accesses[:max_accesses]
    expected = simulate(blockify(cut, block), config(None, mlp),
                        trcd_override)
    assert produced == expected
    assert produced["accesses"] == len(cut)
    if cap == "none":
        # The trace exercises misses, writebacks and stalls.
        assert produced["llc_misses"] and produced["writes"]
        assert produced["stall_cycles"]


@pytest.mark.parametrize("cap, blocks_pulled", [(20, 2), (25, 3)])
def test_cut_does_not_pull_past_the_cap(cap, blocks_pulled):
    """The cut takes no block after the one that reaches the cap, at a
    block boundary and mid-block."""
    pulled = []

    def blocks():
        for i, block in enumerate(blockify(random_trace("cut"), 10)):
            pulled.append(i)
            yield block

    result = RamulatorSim(config(cap, 8)).run(blocks(), "cut")
    assert result.accesses == cap
    assert pulled == list(range(blocks_pulled))


def test_empty_blocks_are_skipped():
    """A zero-length block holds no access: the cursor moves past it."""
    blocks = list(blockify(random_trace("empty"), 7))
    padded = []
    for block in blocks:
        padded += [AccessBlock([], [], []), block]
    assert (simulate(iter(padded), config(None, 2), False)
            == simulate(iter(blocks), config(None, 2), False))
