"""EasyDRAM core: time scaling, EasyAPI, the SMC, and the system engine."""

from repro.core.channels import Channel, ChannelSet
from repro.core.config import (
    TOPOLOGIES,
    CacheConfig,
    ControllerConfig,
    SystemConfig,
    topology,
    cortex_a57_reference,
    jetson_nano_time_scaling,
    pidram_no_time_scaling,
    preset,
    validation_reference,
    validation_time_scaled,
)
from repro.core.easyapi import CostModel, EasyAPI
from repro.core.engine import CycleEngine, EngineStats, EventEngine, make_engine
from repro.core.schedulers import FCFS, FRFCFS, Scheduler, TableEntry, make_scheduler
from repro.core.smc import SmcStats, SoftwareMemoryController
from repro.core.stats import Breakdown, RunResult
from repro.core.system import EasyDRAMSystem, EmulationDeadlock, Session
from repro.core.tile import EasyTile, TileStats
from repro.core.timescale import ClockDomain, TimeScalingCounters

__all__ = [
    "Breakdown",
    "CacheConfig",
    "Channel",
    "ChannelSet",
    "TOPOLOGIES",
    "ClockDomain",
    "ControllerConfig",
    "CostModel",
    "CycleEngine",
    "EasyAPI",
    "EasyDRAMSystem",
    "EasyTile",
    "EmulationDeadlock",
    "EngineStats",
    "EventEngine",
    "FCFS",
    "FRFCFS",
    "RunResult",
    "Scheduler",
    "Session",
    "SmcStats",
    "SoftwareMemoryController",
    "SystemConfig",
    "TableEntry",
    "TileStats",
    "TimeScalingCounters",
    "cortex_a57_reference",
    "jetson_nano_time_scaling",
    "make_engine",
    "make_scheduler",
    "pidram_no_time_scaling",
    "preset",
    "topology",
    "validation_reference",
    "validation_time_scaled",
]
