"""System configurations and the presets used by the paper's evaluation.

A :class:`SystemConfig` fully describes one emulated system: processor
domain, memory-controller domain, cache hierarchy, DRAM timing/geometry,
bus latencies, and controller behaviour.  Four presets reproduce the
configurations of the paper:

``jetson_nano_time_scaling``
    EasyDRAM - Time Scaling: a BOOM core time-scaled to mirror the
    1.43 GHz Cortex A57 of the NVIDIA Jetson Nano, 32 KiB L1D, 512 KiB
    8-way L2, DDR4-1333 (Sections 6-8).
``pidram_no_time_scaling``
    EasyDRAM - No Time Scaling: the PiDRAM-like system (simple in-order
    50 MHz core, software memory controller fully exposed).
``validation_reference``
    Section 6's RTL reference: every component natively at 1 GHz with the
    memory controller in hardware (no time scaling needed).
``validation_time_scaled``
    Section 6's EasyDRAM under test: a 100 MHz FPGA processor time-scaled
    to 1 GHz; must match the reference within <0.1 % on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.schedulers import scheduler_names
from repro.core.timescale import ClockDomain
from repro.cpu.processor import ProcessorConfig
from repro.dram.address import Geometry
from repro.dram.cells import CellModelConfig
from repro.dram.timing import TimingParams, ddr4_1333

#: Memory-system topology presets (channels x ranks x bank layout).
#: ``ddr4-*`` keep the paper's DDR4 bank layout (4 groups x 4 banks) and
#: scale channels/ranks; ``lpddr4-*`` model the groupless 8-bank LPDDR4
#: channel layout common on mobile SoCs.  Apply with :func:`topology`.
TOPOLOGIES: dict[str, dict] = {
    "ddr4-1ch": dict(channels=1, ranks=1),
    "ddr4-2ch": dict(channels=2, ranks=1),
    "ddr4-4ch": dict(channels=4, ranks=1),
    "ddr4-2ch-2rk": dict(channels=2, ranks=2),
    "ddr4-1ch-2rk": dict(channels=1, ranks=2),
    "lpddr4-4ch": dict(channels=4, ranks=1, bank_groups=1,
                       banks_per_group=8),
}


def topology(name: str, base: Geometry | None = None, **overrides) -> Geometry:
    """Build a :class:`Geometry` from a named topology preset.

    ``base`` supplies the non-topology dimensions (rows, columns, line
    size; defaults to the default :class:`Geometry`); ``overrides`` win
    over both.
    """
    try:
        fields = dict(TOPOLOGIES[name])
    except KeyError:
        known = ", ".join(sorted(TOPOLOGIES))
        raise KeyError(
            f"unknown topology preset {name!r}; known: {known}") from None
    fields.update(overrides)
    return replace(base if base is not None else Geometry(), **fields)


@dataclass(frozen=True)
class CacheConfig:
    """One cache level's parameters."""

    size_bytes: int
    assoc: int
    hit_latency: int
    line_bytes: int = 64


@dataclass(frozen=True)
class ControllerConfig:
    """Software-memory-controller behaviour and cost parameters.

    ``pipelined_occupancy_cycles`` models how the *emulated* controller
    overlaps successive requests: the Section 6 reference (an RTL
    implementation of the same scheduling logic) accepts a new request
    every few cycles even though each request's scheduling *latency* is
    the full software path.  "No Time Scaling" configurations set it to
    0, which serializes the full software cost between requests — the
    exact pathology Figure 2 illustrates.
    """

    #: Any name registered in :data:`repro.core.schedulers.SCHEDULERS`
    #: ("fr-fcfs", "fcfs", "atlas", "bliss", "batch").
    scheduler: str = "fr-fcfs"
    #: Anti-starvation guard: once the oldest request-table entry has
    #: been bypassed by this many newer arrivals it is served next
    #: regardless of row-buffer state.  ``None`` (the paper's
    #: single-core default) disables the guard; multi-core contention
    #: scenarios set it so one core's row-hit stream cannot starve
    #: another core's row-miss requests.  Threads to every scheduler
    #: (FCFS, starvation-free by construction, ignores it).
    scheduler_age_cap: int | None = None
    pipelined_occupancy_cycles: int = 4
    #: Request/response path between the memory bus and EasyTile buffers,
    #: in memory-controller cycles.
    request_bus_cycles: int = 4
    response_bus_cycles: int = 4
    refresh_enabled: bool = True

    def __post_init__(self) -> None:
        known = scheduler_names()
        if self.scheduler not in known:
            raise ValueError(f"unknown scheduler {self.scheduler!r}"
                             f" (known: {', '.join(known)})")


@dataclass(frozen=True)
class InterferenceConfig:
    """DRAM-layer interference knobs (all off by default).

    These model *memory-system pressure*, not data corruption: refresh
    storms steal command bandwidth on schedule, and the victim-row
    counters expose RowHammer-style neighbor-activation pressure per
    row — no bit flips are modeled.
    """

    #: Refresh-rate multiplier: the controller issues refreshes every
    #: ``tREFI / refresh_storm_factor``.  1 keeps the nominal JEDEC
    #: cadence (the paper's system, bit for bit); larger factors emulate
    #: a storm of extra refreshes that steal request bandwidth.
    refresh_storm_factor: int = 1
    #: When set, only this rank's retention bookkeeping is refreshed
    #: (the refresh command still occupies the shared channel for its
    #: full duration) — the other ranks' retention windows keep aging,
    #: observable under ``retention_modeling``.  ``None`` refreshes all
    #: ranks, the nominal behaviour.
    refresh_storm_rank: int | None = None
    #: Count ACTIVATE commands per (bank, row) so RowHammer-style
    #: victim-row pressure (activations of the two physical neighbors)
    #: becomes observable via ``DramDevice.hammer_report``.  Off by
    #: default: the counters live on the hot path.
    track_row_activations: bool = False

    def __post_init__(self) -> None:
        if self.refresh_storm_factor < 1:
            raise ValueError("refresh_storm_factor must be >= 1")
        if (self.refresh_storm_rank is not None
                and self.refresh_storm_rank < 0):
            raise ValueError("refresh_storm_rank must be >= 0 (or None)")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one emulated EasyDRAM system."""

    name: str
    processor_domain: ClockDomain
    controller_domain: ClockDomain
    #: DRAM Bender's FPGA clock; real durations are measured on this grid.
    bender_domain: ClockDomain
    processor: ProcessorConfig
    l1: CacheConfig
    l2: CacheConfig
    timing: TimingParams = field(default_factory=ddr4_1333)
    geometry: Geometry = field(default_factory=Geometry)
    cells: CellModelConfig = field(default_factory=CellModelConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    interference: InterferenceConfig = field(
        default_factory=InterferenceConfig)
    mapping_scheme: str = "row-bank-col-skew"

    @property
    def time_scaling_enabled(self) -> bool:
        return (self.processor_domain.scaling_active
                or self.controller_domain.scaling_active)

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Functional update helper for experiment sweeps."""
        return replace(self, **kwargs)

    def with_topology(self, name: str,
                      mapping_scheme: str | None = None,
                      **geometry_overrides) -> "SystemConfig":
        """Rebuild this config on a named memory-system topology.

        Multi-channel topologies default to the ``channel-line``
        interleave (maximum channel-level parallelism for streams)
        unless ``mapping_scheme`` says otherwise; single-channel
        topologies keep this config's scheme.
        """
        geometry = topology(name, base=self.geometry, **geometry_overrides)
        if mapping_scheme is None:
            mapping_scheme = ("channel-line" if geometry.channels > 1
                              else self.mapping_scheme)
        return replace(self, geometry=geometry, mapping_scheme=mapping_scheme)


def _bender_domain(fpga_hz: float = 333e6) -> ClockDomain:
    """DRAM Bender's sequencer clock (DDR4-1333 bus clock / 2)."""
    return ClockDomain("bender", fpga_freq_hz=fpga_hz, emulated_freq_hz=fpga_hz)


def jetson_nano_time_scaling(**overrides) -> SystemConfig:
    """EasyDRAM - Time Scaling, mirroring the Jetson Nano's Cortex A57."""
    cfg = SystemConfig(
        name="EasyDRAM-TimeScaling",
        processor_domain=ClockDomain("processor", 100e6, 1.43e9),
        controller_domain=ClockDomain("controller", 100e6, 1.0e9),
        bender_domain=_bender_domain(),
        processor=ProcessorConfig(
            name="A57-like", emulated_freq_hz=1.43e9, fpga_freq_hz=100e6,
            mlp=16, miss_window=96),
        l1=CacheConfig(size_bytes=32 * 1024, assoc=2, hit_latency=2),
        l2=CacheConfig(size_bytes=512 * 1024, assoc=8, hit_latency=12),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def cortex_a57_reference(**overrides) -> SystemConfig:
    """The real Jetson Nano board (Figure 8's 'Cortex A57' line).

    Same system as :func:`jetson_nano_time_scaling` but with a 2 MiB L2
    (the paper notes EasyDRAM's L2 is 512 KiB vs the board's 2 MiB) and
    native clocks (a real board needs no time scaling).
    """
    cfg = SystemConfig(
        name="Cortex-A57",
        processor_domain=ClockDomain("processor", 1.43e9, 1.43e9),
        controller_domain=ClockDomain("controller", 1.0e9, 1.0e9),
        bender_domain=_bender_domain(1.0e9),
        processor=ProcessorConfig(
            name="A57", emulated_freq_hz=1.43e9, fpga_freq_hz=1.43e9,
            mlp=16, miss_window=96),
        l1=CacheConfig(size_bytes=32 * 1024, assoc=2, hit_latency=2),
        l2=CacheConfig(size_bytes=2 * 1024 * 1024, assoc=16, hit_latency=14),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def pidram_no_time_scaling(**overrides) -> SystemConfig:
    """EasyDRAM - No Time Scaling: the PiDRAM-like evaluation system.

    A simple in-order core at 50 MHz; the software memory controller's
    full cost (at its 100 MHz FPGA clock) is exposed to the evaluation,
    and requests are fully serialized in the controller.
    """
    cfg = SystemConfig(
        name="EasyDRAM-NoTimeScaling",
        processor_domain=ClockDomain("processor", 50e6, 50e6),
        controller_domain=ClockDomain("controller", 100e6, 100e6),
        bender_domain=_bender_domain(),
        processor=ProcessorConfig(
            name="in-order-50MHz", emulated_freq_hz=50e6, fpga_freq_hz=50e6,
            mlp=1, miss_window=1),
        l1=CacheConfig(size_bytes=16 * 1024, assoc=2, hit_latency=1),
        l2=CacheConfig(size_bytes=512 * 1024, assoc=8, hit_latency=8),
        controller=ControllerConfig(pipelined_occupancy_cycles=0),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def validation_reference(**overrides) -> SystemConfig:
    """Section 6's RTL reference: everything natively at 1 GHz."""
    cfg = SystemConfig(
        name="Validation-Reference-1GHz",
        processor_domain=ClockDomain("processor", 1.0e9, 1.0e9),
        controller_domain=ClockDomain("controller", 1.0e9, 1.0e9),
        bender_domain=_bender_domain(1.0e9),
        processor=ProcessorConfig(
            name="ref-1GHz", emulated_freq_hz=1.0e9, fpga_freq_hz=1.0e9,
            mlp=4, miss_window=32),
        l1=CacheConfig(size_bytes=32 * 1024, assoc=4, hit_latency=2),
        l2=CacheConfig(size_bytes=512 * 1024, assoc=8, hit_latency=12),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def validation_time_scaled(**overrides) -> SystemConfig:
    """Section 6's device under test: 100 MHz FPGA core scaled to 1 GHz."""
    ref = validation_reference()
    cfg = ref.with_overrides(
        name="Validation-TimeScaled-100MHz-to-1GHz",
        processor_domain=ClockDomain("processor", 100e6, 1.0e9),
        controller_domain=ClockDomain("controller", 100e6, 1.0e9),
        # DRAM Bender measures elapsed time at the DDR4-1333 command
        # clock (666 MHz): the measurement grid is a property of the
        # DRAM interface, not of the emulated processor clock.
        bender_domain=_bender_domain(666e6),
        processor=ProcessorConfig(
            name="ts-100MHz-as-1GHz", emulated_freq_hz=1.0e9,
            fpga_freq_hz=100e6, mlp=4, miss_window=32),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


PRESETS = {
    "jetson-nano-ts": jetson_nano_time_scaling,
    "cortex-a57": cortex_a57_reference,
    "pidram-no-ts": pidram_no_time_scaling,
    "validation-ref": validation_reference,
    "validation-ts": validation_time_scaled,
}


def preset(preset_name: str, **overrides) -> SystemConfig:
    """Look up a system preset by name (overrides apply on top)."""
    try:
        factory = PRESETS[preset_name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(
            f"unknown system preset {preset_name!r}; known: {known}") from None
    return factory(**overrides)
