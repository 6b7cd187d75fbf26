"""Time scaling: emulation domains and counters (Section 4.3).

Time scaling lets each hardware component be *emulated* at a different
clock frequency than its FPGA clock.  A :class:`ClockDomain` carries the
two frequencies; durations measured in domain cycles convert to emulated
time at the emulated frequency, and durations measured in real time
(DRAM operates in real time on the FPGA) are first quantized to the
domain's FPGA clock grid — the measurement granularity of the real
platform and the source of the <0.1 % validation error of Section 6.

The :class:`TimeScalingCounters` object mirrors Figure 5: a processor
cycle counter, a memory-controller cycle counter, and a global (FPGA)
cycle counter, plus the critical-mode flag that locks the processor
counter while the software memory controller works.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.timing import period_ps


@dataclass(frozen=True)
class ClockDomain:
    """One emulation domain: an FPGA clock and the clock it emulates.

    ``fpga_freq_hz == emulated_freq_hz`` disables time scaling for the
    domain (the "No Time Scaling" configurations).
    """

    name: str
    fpga_freq_hz: float
    emulated_freq_hz: float

    def __post_init__(self) -> None:
        if self.fpga_freq_hz <= 0 or self.emulated_freq_hz <= 0:
            raise ValueError(f"domain {self.name}: frequencies must be positive")

    @property
    def scaling_active(self) -> bool:
        return self.fpga_freq_hz != self.emulated_freq_hz

    @property
    def scale_factor(self) -> float:
        """How much faster the emulated clock is than the FPGA clock."""
        return self.emulated_freq_hz / self.fpga_freq_hz

    @property
    def emulated_period_ps(self) -> int:
        return period_ps(self.emulated_freq_hz)

    @property
    def fpga_period_ps(self) -> int:
        return period_ps(self.fpga_freq_hz)

    def cycles_to_emulated_ps(self, cycles: int) -> int:
        """Domain cycles -> emulated picoseconds.

        This implements the paper's conversion rule: work that takes N
        cycles on the (slow) FPGA core represents N cycles of the modeled
        component, which take ``N / emulated_freq`` seconds in the modeled
        system.
        """
        return cycles * self.emulated_period_ps

    def measure_ps(self, duration_ps: int) -> int:
        """Quantize a real duration to the domain's FPGA clock grid.

        Hardware can only *measure* elapsed time by counting its own clock
        edges, so a DRAM Bender execution of ``duration_ps`` is reported
        as a whole number of FPGA cycles (rounded up).
        """
        if duration_ps <= 0:
            return 0
        period = self.fpga_period_ps
        return -(-duration_ps // period) * period

    def ps_to_emulated_cycles(self, duration_ps: int) -> int:
        """Emulated picoseconds -> whole emulated cycles (rounded up)."""
        if duration_ps <= 0:
            return 0
        return -(-duration_ps // self.emulated_period_ps)


@dataclass
class TimeScalingCounters:
    """The three counters of Figure 5 plus critical-mode state.

    ``processor`` and ``memory_controller`` count *emulated processor
    cycles* so they are directly comparable (the response-consumption
    rule compares them).  ``global_fpga`` estimates FPGA wall-clock
    cycles actually spent, which the platform would use as its reference
    timer; we also use it to estimate emulation speed.
    """

    processor: int = 0
    memory_controller: int = 0
    global_fpga: int = 0
    critical_mode: bool = False
    #: Number of critical-mode episodes (for Figure 2's breakdown).
    critical_entries: int = 0
    #: Emulated cycles the processor counter jumped over when critical
    #: mode ended with the controller ahead (the catch-up rule below).
    #: Purely diagnostic — it measures how much emulated time passes
    #: without any per-cycle host work, which is exactly what the burst
    #: loop exploits.
    catch_up_cycles: int = 0
    #: History of (processor, memory_controller) snapshots for invariants.
    _locked_processor_at: int = field(default=0, repr=False)

    def enter_critical(self) -> None:
        """SMC detected a request: lock the processor counter (Fig 5 (c))."""
        if self.critical_mode:
            return
        self.critical_mode = True
        self.critical_entries += 1
        self._locked_processor_at = self.processor

    def exit_critical(self) -> None:
        """SMC served everything: processors resume (Fig 5 end)."""
        if not self.critical_mode:
            return
        self.critical_mode = False
        # When critical mode ends the processor counter catches up to the
        # memory-controller counter (the time the SMC consumed has passed
        # for the whole system).
        if self.memory_controller > self.processor:
            self.catch_up_cycles += self.memory_controller - self.processor
            self.processor = self.memory_controller

    def advance_processor(self, to_cycle: int) -> None:
        """Processor emulation progressed to ``to_cycle``.

        The counter is monotonic: after critical mode it may already sit
        ahead of the core's own cycle count (the catch-up rule), in which
        case the core's progress is absorbed without moving it back.
        """
        if to_cycle > self.processor:
            self.processor = to_cycle

    def advance_memory_controller(self, to_cycle: int) -> None:
        """SMC finished work up to ``to_cycle`` (Fig 5 steps 5 and 11)."""
        if to_cycle < self.memory_controller:
            raise ValueError(
                f"memory-controller counter cannot move backwards"
                f" ({self.memory_controller} -> {to_cycle})")
        self.memory_controller = to_cycle

    def advance_global(self, fpga_cycles: int) -> None:
        if fpga_cycles < 0:
            raise ValueError("global counter increments must be non-negative")
        self.global_fpga += fpga_cycles
