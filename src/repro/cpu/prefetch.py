"""Stream prefetcher at the core boundary (beyond-paper extension).

A classic unit-stride stream prefetcher sitting next to the last-level
cache: it observes every demand LLC-miss fill address, detects
ascending/descending line streams within an aligned 4 KiB region, and
issues prefetch-tagged :class:`~repro.cpu.processor.MemoryRequest` fills
``distance`` lines ahead of the demand stream, ``degree`` lines per
trigger.

Prefetches ride the normal request path — they occupy the request table,
consume DRAM bandwidth, and perturb row-buffer locality — but they never
enter the processor's MLP window (the core does not wait on them) and
the controller counts them apart from demand traffic
(``SmcStats.serviced_prefetches``), so demand-attribution statistics are
unchanged.  The cache model is tag-only, so *usefulness* is accounted at
the prefetcher: a demand miss to a previously prefetched line counts as
covered (the emulated timeline still pays the fill — accuracy/coverage
are observability stats, not a timing model of a prefetch buffer).

Enable per core via ``Session.add_core(prefetch=...)`` /
``Session.set_prefetcher``, or for every core with the
``REPRO_PREFETCH`` environment knob (``"1"`` for the defaults, or
``"degree:distance"``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

_FALSE = ("0", "false", "no", "off")

#: 4 KiB regions: the classic stream-table granularity (streams are
#: page-bounded, like hardware prefetchers trained on physical addresses).
_REGION_BYTES = 4096


@dataclass(frozen=True)
class PrefetchConfig:
    """Per-core stream-prefetcher parameters."""

    #: Lines issued per confirmed trigger.
    degree: int = 2
    #: How many lines ahead of the demand miss the window starts.
    distance: int = 4
    #: Concurrently tracked regions (oldest is evicted beyond this).
    streams: int = 16

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.distance < 1:
            raise ValueError("distance must be >= 1")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")


@dataclass
class PrefetchStats:
    """Accuracy/coverage accounting for one core's prefetcher."""

    issued: int = 0
    #: Demand misses that hit a previously prefetched line.
    useful: int = 0
    demand_misses: int = 0

    @property
    def accuracy(self) -> float:
        """useful / issued — how many prefetches the demand stream used."""
        return self.useful / self.issued if self.issued else 0.0

    @property
    def coverage(self) -> float:
        """useful / demand misses — how much demand traffic was prefetched."""
        return self.useful / self.demand_misses if self.demand_misses else 0.0


@dataclass(slots=True)
class _Stream:
    """One tracked region's training state."""

    last_line: int
    stride: int = 0          # 0 = untrained; +1/-1 once a unit stride is seen
    confirmed: bool = False  # two consecutive equal unit strides


class StreamPrefetcher:
    """Deterministic unit-stride stream detector over LLC-miss fills.

    ``line_bytes`` must be a power of two (the cache line size);
    ``limit`` bounds prefetch addresses to the mapper's decodable range
    (the address mapper raises on out-of-range decodes by default).
    """

    def __init__(self, config: PrefetchConfig, line_bytes: int,
                 limit: int) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        self.config = config
        self.stats = PrefetchStats()
        self._line_shift = line_bytes.bit_length() - 1
        self._region_shift = max(0, _REGION_BYTES.bit_length() - 1
                                 - self._line_shift)
        self._limit_line = limit >> self._line_shift
        self._streams: dict[int, _Stream] = {}
        #: Prefetched but not yet demanded line indices.
        self._issued_lines: set[int] = set()

    def observe(self, fill_addr: int) -> list[int]:
        """Train on one demand LLC-miss fill; return addresses to prefetch.

        Called by the processor for every demand fill it issues, in
        issue order, on both execution paths — determinism (and the
        serve paths' bit-identity contract) follows from that call
        discipline.
        """
        stats = self.stats
        stats.demand_misses += 1
        line = fill_addr >> self._line_shift
        issued = self._issued_lines
        if line in issued:
            issued.discard(line)
            stats.useful += 1
        region = line >> self._region_shift
        streams = self._streams
        stream = streams.get(region)
        if stream is None:
            if len(streams) >= self.config.streams:
                # Evict the oldest tracked region (dict insertion order).
                del streams[next(iter(streams))]
            streams[region] = _Stream(last_line=line)
            return []
        stride = line - stream.last_line
        stream.last_line = line
        if stride != 1 and stride != -1:
            stream.stride = 0
            stream.confirmed = False
            return []
        if stride != stream.stride:
            stream.stride = stride
            stream.confirmed = False
            return []
        stream.confirmed = True
        config = self.config
        base = line + stride * config.distance
        limit_line = self._limit_line
        out: list[int] = []
        for k in range(config.degree):
            target = base + stride * k
            if target < 0 or target >= limit_line or target in issued:
                continue
            issued.add(target)
            stats.issued += 1
            out.append(target << self._line_shift)
        return out


def prefetch_from_env() -> PrefetchConfig | None:
    """The ``REPRO_PREFETCH`` knob: off (default), ``1``, or ``deg:dist``.

    Read at session/core construction time, like every ``REPRO_*`` knob.
    """
    value = os.environ.get("REPRO_PREFETCH", "").strip().lower()
    if not value or value in _FALSE:
        return None
    if value in ("1", "true", "yes", "on"):
        return PrefetchConfig()
    parts = value.split(":")
    try:
        degree = int(parts[0])
        distance = int(parts[1]) if len(parts) > 1 else 4
    except ValueError:
        raise ValueError(
            f"REPRO_PREFETCH must be 0/1 or 'degree:distance', "
            f"got {value!r}") from None
    return PrefetchConfig(degree=degree, distance=distance)
