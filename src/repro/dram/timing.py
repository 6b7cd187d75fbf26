"""DRAM timing parameters.

All durations are stored as integer picoseconds so that timing arithmetic
is exact.  The values for the DDR4 presets follow JESD79-4 and the Micron
EDY4016A datasheet that the paper's test module uses (nominal
``tRCD = 13.5 ns``).

The :class:`TimingParams` dataclass is the single source of truth for the
device model (:mod:`repro.dram.device`), the timing checker
(:mod:`repro.dram.timing_checker`), the Bender engine, and the cycle-level
baseline simulator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return int(round(value * PS_PER_NS))


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return int(round(value * PS_PER_US))


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return int(round(value * PS_PER_MS))


def period_ps(freq_hz: float) -> int:
    """Clock period in picoseconds for a frequency in Hz (>= 1 kHz)."""
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return int(round(PS_PER_S / freq_hz))


def cycles_for_ps(duration_ps: int, freq_hz: float) -> int:
    """Number of whole clock cycles needed to cover ``duration_ps``.

    This is the quantization primitive of time scaling: a duration is
    rounded *up* to the FPGA clock grid before it is converted to
    emulated cycles, which is the source of the small (<0.1 %) error the
    paper measures in Section 6.
    """
    if duration_ps <= 0:
        return 0
    period = period_ps(freq_hz)
    return -(-duration_ps // period)  # ceil division


@dataclass(frozen=True)
class TimingParams:
    """JEDEC-style DRAM timing parameters (integer picoseconds).

    Only the parameters the evaluation exercises are modeled; they cover
    activation, column access, precharge, refresh, and the inter-command
    constraints that a FR-FCFS controller must respect.
    """

    name: str
    # Interface
    tCK: int            # DRAM interface clock period
    data_rate_mts: int  # transfers per second (10^6), e.g. 1333
    # Bank access
    tRCD: int           # ACT -> RD/WR same bank
    tRP: int            # PRE -> ACT same bank
    tRAS: int           # ACT -> PRE same bank (minimum)
    tRC: int            # ACT -> ACT same bank
    tCL: int            # RD -> first data (CAS latency)
    tCWL: int           # WR -> first data (CAS write latency)
    tBL: int            # burst duration on the data bus
    tWR: int            # end of write burst -> PRE
    tRTP: int           # RD -> PRE
    tWTR: int           # end of write burst -> RD (same rank)
    # Inter-bank
    tRRD_S: int         # ACT -> ACT different bank group
    tRRD_L: int         # ACT -> ACT same bank group
    tCCD_S: int         # CAS -> CAS different bank group
    tCCD_L: int         # CAS -> CAS same bank group
    tFAW: int           # rolling window for four ACTs
    # Refresh
    tRFC: int           # REF -> any command
    tREFI: int          # average refresh command interval
    tREFW: int          # refresh window (retention requirement)
    # Inter-rank (only consulted by multi-rank topologies)
    tCS: int = 0        # CAS -> CAS rank-to-rank bus turnaround

    @property
    def read_latency(self) -> int:
        """ACT-to-data latency for a closed-row read (tRCD + tCL + tBL)."""
        return self.tRCD + self.tCL + self.tBL

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Peak data-bus bandwidth assuming a 64-bit channel."""
        return self.data_rate_mts * 1_000_000 * 8

    def scaled(self, **overrides: int) -> "TimingParams":
        """Return a copy with some parameters replaced.

        Used by DRAM techniques that deliberately violate manufacturer
        timings (e.g. reduced-tRCD access, RowClone's premature PRE).
        """
        return dataclasses.replace(self, **overrides)


def ddr4_1333() -> TimingParams:
    """DDR4-1333 as used by EasyDRAM's memory system (1333 MT/s).

    ``tRCD`` is 13.5 ns, matching the Micron EDY4016A module the paper
    profiles in Section 8.
    """
    tck = ns(1.5)
    return TimingParams(
        name="DDR4-1333",
        tCK=tck,
        data_rate_mts=1333,
        tRCD=ns(13.5),
        tRP=ns(13.5),
        tRAS=ns(36.0),
        tRC=ns(49.5),
        tCL=ns(13.5),
        tCWL=ns(10.5),
        tBL=4 * tck,  # BL8 on a double-data-rate bus = 4 clocks
        tWR=ns(15.0),
        tRTP=ns(7.5),
        tWTR=ns(7.5),
        tRRD_S=ns(6.0),
        tRRD_L=ns(7.5),
        tCCD_S=4 * tck,
        tCCD_L=ns(7.5),
        tFAW=ns(30.0),
        tRFC=ns(350.0),
        tREFI=us(7.8),
        tREFW=ms(64.0),
        tCS=2 * tck,
    )


def ddr4_2400() -> TimingParams:
    """DDR4-2400, a faster speed grade used in configuration tests."""
    tck = ns(0.833)
    return TimingParams(
        name="DDR4-2400",
        tCK=tck,
        data_rate_mts=2400,
        tRCD=ns(13.32),
        tRP=ns(13.32),
        tRAS=ns(32.0),
        tRC=ns(45.32),
        tCL=ns(13.32),
        tCWL=ns(10.0),
        tBL=4 * tck,
        tWR=ns(15.0),
        tRTP=ns(7.5),
        tWTR=ns(7.5),
        tRRD_S=ns(3.3),
        tRRD_L=ns(4.9),
        tCCD_S=4 * tck,
        tCCD_L=ns(5.0),
        tFAW=ns(21.0),
        tRFC=ns(350.0),
        tREFI=us(7.8),
        tREFW=ms(64.0),
        tCS=2 * tck,
    )


PRESETS = {
    "DDR4-1333": ddr4_1333,
    "DDR4-2400": ddr4_2400,
}


def preset(name: str) -> TimingParams:
    """Look up a timing preset by name."""
    try:
        return PRESETS[name]()
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown timing preset {name!r}; known: {known}") from None
