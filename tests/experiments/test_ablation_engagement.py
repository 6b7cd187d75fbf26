"""Guard: the ablations' hand-written traces replay resident in the kernel.

The scheduler and quantization studies build their traces as access
blocks.  Every one of their runs must take the resident replay, not the
Python burst loop: a silent decline would leave them correct but on the
slow path, which the artifact equivalence suites cannot see.
"""

from __future__ import annotations

import inspect

import pytest

from repro.dram.kernel import blockrun, cbackend
from repro.experiments import ablations

needs_kernel = pytest.mark.skipif(cbackend.load()[0] is None,
                                  reason="no C compiler for the kernel")


@needs_kernel
@pytest.mark.parametrize("study, runs", [
    ("scheduler", 2),                                   # fr-fcfs, fcfs
    ("quantization", 1 + len(inspect.signature(      # reference + clocks
        ablations.quantization_sweep).parameters["freqs_hz"].default)),
])
def test_ablation_replays_resident(study, runs, monkeypatch, kernel_on):
    calls = []
    original = blockrun.run_gated_kernel

    def recording(engine, session, proc, smc):
        engaged = original(engine, session, proc, smc)
        calls.append((engaged, smc.kernel_fallback_reason))
        return engaged

    monkeypatch.setattr(blockrun, "run_gated_kernel", recording)
    ablations.STUDIES[study]()
    assert calls == [(True, None)] * runs
