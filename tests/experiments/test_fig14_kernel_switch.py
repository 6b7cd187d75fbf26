"""fig14 keeps its timed systems off the kernel without touching the
process environment.

Its EasyDRAM platforms are built with ``kernel=False``, so a system
another thread runs at the same time (a service job in the same
process) keeps its kernel.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.dram.kernel import blockrun, cbackend
from repro.experiments import fig14_sim_speed
from repro.workloads import microbench

needs_kernel = pytest.mark.skipif(cbackend.load()[0] is None,
                                  reason="no C compiler for the kernel")


@needs_kernel
def test_fig14_point_leaves_a_concurrent_kernel_engaged(monkeypatch,
                                                        kernel_on):
    calls = []
    original = blockrun.run_gated_kernel

    def recording(engine, session, proc, smc):
        engaged = original(engine, session, proc, smc)
        calls.append((threading.get_ident(), engaged,
                      smc.kernel_fallback_reason))
        return engaged

    monkeypatch.setattr(blockrun, "run_gated_kernel", recording)
    errors = []

    def fig14_point():
        try:
            fig14_sim_speed.sweep_point("durbin", "mini")
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    worker = threading.Thread(target=fig14_point)
    worker.start()
    overlapped = 0
    while worker.is_alive():
        # A fresh system each time: each resolves its kernel anew.
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        system.run(microbench.touch_blocks(0, 64 * 1024, write=True))
        overlapped += worker.is_alive()
    worker.join()
    assert not errors
    me = threading.get_ident()
    mine = [(engaged, reason) for ident, engaged, reason in calls
            if ident == me]
    theirs = [(engaged, reason) for ident, engaged, reason in calls
              if ident != me]
    assert overlapped and mine == [(True, None)] * len(mine)
    assert theirs and set(theirs) == {
        (False, "disabled for this system (kernel=False)")}
