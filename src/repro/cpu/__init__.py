"""Processor substrate: caches, traces, and the trace-driven core model."""

from repro.cpu.cache import Cache, CacheHierarchy, CacheStats, MemoryTraffic
from repro.cpu.memtrace import (
    FLAG_DEPENDENT,
    FLAG_WRITE,
    Access,
    load,
    store,
)
from repro.cpu.processor import (
    BurstResult,
    MemoryRequest,
    Processor,
    ProcessorConfig,
    ProcessorStats,
)

__all__ = [
    "Access",
    "BurstResult",
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "FLAG_DEPENDENT",
    "FLAG_WRITE",
    "MemoryRequest",
    "MemoryTraffic",
    "Processor",
    "ProcessorConfig",
    "ProcessorStats",
    "load",
    "store",
]
