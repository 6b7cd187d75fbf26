"""Every experiment artifact is bit-identical on every serve path.

The reference oracle is the cycle engine with no kernel backend
(``EasyDRAMSystem(..., engine="cycle", kernel=False)`` for one system):
every batch served through staged programs and object-based timing
checks.  The event engine's flat closures and the
compiled kernel are pure host-time optimizations, so each artifact's
result dict must not change by a single bit.  Sweeps run at the smallest
meaningful scale — the shared machinery is identical at any size.

fig14 is the exception by construction: it reports *host* simulation
rates, which legitimately change with the serve path; its equivalence is
pinned on the underlying emulated run instead.
"""

from __future__ import annotations

import dataclasses

import pytest

from kernel_paths import no_kernel
from repro.core import engine as engine_module
from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.experiments import (
    ablations,
    fig02_breakdown,
    fig08_latency_profile,
    fig10_rowclone_noflush,
    fig11_rowclone_clflush,
    fig12_trcd_heatmap,
    fig13_trcd_speedup,
    sec6_validation,
    tab01_platforms,
)
from repro.workloads import polybench

# The full artifact-by-artifact sweep is the single heaviest suite in
# the tree (~35 s); it runs on CI's dedicated `slow` leg.  Its kernel
# leg runs on the compiled kernel, also under --kernel=off.
pytestmark = [pytest.mark.slow, pytest.mark.usefixtures("kernel_on")]


def _strip_fig02_wall(result):
    # ``details`` embeds full RunResults; wall_seconds is host time.
    details = {}
    for name, run in result["details"].items():
        run = dataclasses.asdict(run)
        run.pop("wall_seconds")
        details[name] = run
    return result | {"details": details}


def _strip_tab01_rates(result):
    # The baseline simulator's cycles/s is measured on this host.
    stripped = {k: v for k, v in result.items()
                if k not in ("ramulator_rate_hz", "rows")}
    stripped["rows"] = [
        tuple("host-rate" if "measured, this host" in str(cell) else cell
              for cell in row)
        for row in result["rows"]]
    return stripped


def run_both(fn, *args, **kwargs):
    """The artifact under all three serve paths.

    Returns (slow, fast, kernel): the object reference, the flat
    closures with the batch kernel disabled, and the batch kernel.
    Callers normalize all three the same way before asserting equality.
    """
    with pytest.MonkeyPatch.context() as patch:
        no_kernel(patch)
        patch.setattr(engine_module, "DEFAULT_ENGINE", "cycle")
        slow = fn(*args, **kwargs)
        patch.setattr(engine_module, "DEFAULT_ENGINE", "event")
        fast = fn(*args, **kwargs)
    kernel = fn(*args, **kwargs)
    return slow, fast, kernel


@pytest.mark.parametrize("name,call,normalize", [
    ("fig02", lambda: fig02_breakdown.run(accesses=800), _strip_fig02_wall),
    ("fig08", lambda: fig08_latency_profile.run(
        sizes_kib=(16, 1024), max_accesses=1500), None),
    ("fig10", lambda: fig10_rowclone_noflush.run(sizes=(8 * 1024, 64 * 1024)),
     None),
    ("fig11", lambda: fig11_rowclone_clflush.run(sizes=(8 * 1024, 64 * 1024)),
     None),
    ("fig12", lambda: fig12_trcd_heatmap.run(banks=1, rows=48), None),
    ("fig13", lambda: fig13_trcd_speedup.run(
        kernels=("trisolv",), size="mini"), None),
    ("tab01", lambda: tab01_platforms.run(kernel="durbin", size="mini"),
     _strip_tab01_rates),
    ("sec6", lambda: sec6_validation.run(kernels=["durbin"], size="mini"),
     None),
    ("ablations", lambda: ablations.run(), None),
])
def test_artifact_bit_identical(name, call, normalize):
    slow, fast, kernel = run_both(call)
    if normalize is not None:
        slow, fast, kernel = normalize(slow), normalize(fast), \
            normalize(kernel)
    assert slow == fast, f"{name}: fast path changed the artifact"
    assert fast == kernel, f"{name}: batch kernel changed the artifact"


def test_fig15_emulated_quantities_bit_identical():
    """fig15's emulated columns (not its host-MHz axis) match.

    Multi-channel topologies must honor the same contract as the paper's
    single-channel system: the fast path only changes host time.
    """
    from repro.experiments import fig15_channel_scaling

    def emulated():
        result = fig15_channel_scaling.run(total_lines=2048)
        return {
            "channels": result["channels"],
            "gbps": result["gbps"],
            "speedups": result["speedups"],
            "requests_per_channel": result["requests_per_channel"],
            "monotonic": result["monotonic"],
        }

    slow, fast, kernel = run_both(emulated)
    assert slow == fast == kernel


def test_fig17_bit_identical_across_fastpath_and_engines(monkeypatch):
    """fig17 (scheduler frontier) is a pure emulated artifact.

    A reduced grid — two schedulers (one stateful), one mix, one
    topology — runs on every serve path and both engines; the result
    dict must not change by a single bit, proving the stateful-scheduler
    select-once contract holds on every serve path.
    """
    from repro.experiments import fig17_scheduler_frontier

    def reduced():
        return fig17_scheduler_frontier.run(
            schedulers=("fr-fcfs", "atlas"), mixes=("copy-chase",),
            topologies=("ddr4-1ch",))

    slow, fast, kernel = run_both(reduced)
    assert slow == fast == kernel
    monkeypatch.setattr(engine_module, "DEFAULT_ENGINE", "cycle")
    assert reduced() == fast
    monkeypatch.setattr(engine_module, "DEFAULT_ENGINE", "event")
    assert reduced() == fast


def test_fig14_emulated_run_bit_identical():
    """fig14's emulated quantities (not its wall-clock rates) match."""
    def emulated(kernel="durbin"):
        results = []
        for engine in ("event", "cycle"):
            system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
            run = system.run(polybench.trace_blocks(kernel, "mini"), kernel)
            result = dataclasses.asdict(run)
            result.pop("wall_seconds")
            result.pop("estimated_fpga_seconds", None)
            results.append(result)
        assert results[0] == results[1]  # engines agree at this setting too
        return results[0]

    slow, fast, kernel = run_both(emulated)
    assert slow == fast == kernel
