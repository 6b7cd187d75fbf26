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


def test_fastpath_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    assert _reason(_smc()) == "fastpath disabled (REPRO_FASTPATH=0)"


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
