"""Bloom filter for weak-row tracking (Section 8.2).

Storing a minimum tRCD per cache line does not scale with DRAM
capacity, so EasyDRAM tracks *weak rows* in a Bloom filter, RAIDR-style:
weak rows are the keys, so a false positive only makes the controller
use the (safe) nominal tRCD on a strong row — never a reduced tRCD on a
weak one.

The filter is generated on the host and loaded into the software memory
controller before emulation begins; lookups cost controller cycles via
the cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix(x: int, seed: int) -> int:
    """64-bit splitmix-style hash with a seed."""
    x = (x + seed + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_many(x: np.ndarray, seed: int) -> np.ndarray:
    """:func:`_mix` over a ``uint64`` array (wrapping arithmetic)."""
    x = x + np.uint64((seed + 0x9E3779B97F4A7C15) & _MASK64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@dataclass
class BloomFilter:
    """A classic m-bit, k-hash Bloom filter over integer keys."""

    num_bits: int
    num_hashes: int
    seed: int = 0xB100F
    _bits: bytearray = None  # type: ignore[assignment]
    _count: int = 0

    def __post_init__(self) -> None:
        if self.num_bits < 8:
            raise ValueError("num_bits must be >= 8")
        if self.num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        if self._bits is None:
            self._bits = bytearray(-(-self.num_bits // 8))

    @classmethod
    def sized_for(cls, expected_keys: int, fp_rate: float = 0.01,
                  seed: int = 0xB100F) -> "BloomFilter":
        """Optimally size the filter for ``expected_keys`` at ``fp_rate``."""
        if expected_keys < 1:
            expected_keys = 1
        if not (0.0 < fp_rate < 1.0):
            raise ValueError("fp_rate must be in (0, 1)")
        m = math.ceil(-expected_keys * math.log(fp_rate) / (math.log(2) ** 2))
        k = max(1, round(m / expected_keys * math.log(2)))
        return cls(num_bits=max(8, m), num_hashes=k, seed=seed)

    def _positions(self, key: int):
        h1 = _mix(key, self.seed)
        h2 = _mix(key, self.seed ^ 0xDEADBEEF) | 1
        for i in range(self.num_hashes):
            yield ((h1 + i * h2) & _MASK64) % self.num_bits

    def add(self, key: int) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self._count += 1

    def add_many(self, keys) -> None:
        """:meth:`add` every key of ``keys`` (non-negative, < 2**64).

        The same positions as repeated :meth:`add`, computed one probe
        index at a time over every key (vectorized), then OR-ed into the
        bit array at once.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        if keys.size:
            h1 = _mix_many(keys, self.seed)
            h2 = _mix_many(keys, self.seed ^ 0xDEADBEEF) | np.uint64(1)
            num_bits = np.uint64(self.num_bits)
            hit = np.zeros(8 * len(self._bits), dtype=bool)
            for _ in range(self.num_hashes):
                hit[h1 % num_bits] = True
                h1 += h2
            packed = np.packbits(hit, bitorder="little")
            bits = np.frombuffer(self._bits, dtype=np.uint8)
            self._bits[:] = (bits | packed).tobytes()
        self._count += int(keys.size)

    def __contains__(self, key: int) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7))
            for pos in self._positions(key))

    def __len__(self) -> int:
        """Number of keys added (not distinct keys)."""
        return self._count

    @property
    def fill_ratio(self) -> float:
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.num_bits

    def estimated_fp_rate(self) -> float:
        """Theoretical false-positive probability at the current fill."""
        return self.fill_ratio ** self.num_hashes

    @property
    def size_bytes(self) -> int:
        return len(self._bits)
