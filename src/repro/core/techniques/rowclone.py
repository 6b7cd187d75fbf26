"""RowClone: in-DRAM bulk data copy and initialization (Section 7).

Fast Parallel Mode (FPM) RowClone copies one DRAM row onto another by
issuing ACT -> premature PRE -> ACT; the operands must share a subarray
and the pair must be *clonable* (verified by repeated test copies, as
PiDRAM does).  This module implements the full end-to-end flow:

* an allocator that solves the four constraints of Section 7.1
  (alignment, granularity, mapping, coherence);
* clonability testing through the real command path (plus a fast oracle
  equivalent for large allocations);
* ``execute_copy`` / ``execute_init`` drivers used by the Figure 10/11
  experiments, with CPU fallback for unclonable pairs and optional
  CLFLUSH-based coherence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.easyapi import RowCloneOp
from repro.core.system import Session
from repro.workloads.microbench import cpu_copy_blocks, cpu_init_blocks

_TEST_PATTERN_SALT = 0x5EED


@dataclass(frozen=True)
class RowPair:
    """One RowClone operand pair within a bank (of one channel)."""

    bank: int
    src_row: int
    dst_row: int
    reliable: bool
    channel: int = 0


@dataclass
class CopyPlan:
    """A bulk copy decomposed into row-granular RowClone operations."""

    pairs: list[RowPair]
    src_addr: int
    dst_addr: int
    size_bytes: int


@dataclass
class InitPlan:
    """A bulk initialization: one source row per touched subarray."""

    #: (channel, bank, subarray) -> source row carrying the fill pattern.
    source_rows: dict[tuple[int, int, int], int]
    #: Per target row: (bank, src_row, target_row, reliable).
    targets: list[RowPair]
    dst_addr: int
    size_bytes: int


@dataclass
class RowCloneStats:
    """Operation counters for one technique instance."""

    rowclone_ops: int = 0
    fallback_rows: int = 0
    flushed_lines: int = 0
    pairs_tested: int = 0


class RowCloneTechnique:
    """End-to-end RowClone on a running :class:`Session`."""

    def __init__(self, session: Session, use_oracle_testing: bool = True,
                 test_attempts: int = 1000) -> None:
        self.session = session
        self.system = session.system
        self.geometry = self.system.config.geometry
        self.mapper = self.system.mapper
        if not self.mapper.row_is_contiguous():
            raise ValueError(
                "RowClone allocation requires a row-contiguous mapping"
                " scheme (alignment problem, Section 7.1)")
        self.use_oracle_testing = use_oracle_testing
        self.test_attempts = test_attempts
        self.stats = RowCloneStats()
        self._reserved: set[tuple[int, int, int]] = set()

    # -- clonability testing (mapping problem) -------------------------------------

    def pair_is_clonable(self, bank: int, src_row: int, dst_row: int,
                         channel: int = 0) -> bool:
        """Is (src, dst) clonable?  1000-copy test, per PiDRAM.

        The oracle path consults the cell model directly — it returns
        exactly what the exhaustive test would (tests assert this); the
        emulated path actually performs test copies through Bender.
        """
        self.stats.pairs_tested += 1
        if self.geometry.subarray_of(src_row) != self.geometry.subarray_of(dst_row):
            return False
        cells = self.system.channels[channel].tile.cells
        if self.use_oracle_testing:
            return cells.rowclone_pair_reliable(bank, src_row, dst_row)
        return self.test_pair_emulated(bank, src_row, dst_row, channel=channel)

    def test_pair_emulated(self, bank: int, src_row: int, dst_row: int,
                           attempts: int | None = None,
                           channel: int = 0) -> bool:
        """Run real test copies; a single corrupted copy disqualifies."""
        device = self.system.device_for(channel)
        attempts = attempts if attempts is not None else self.test_attempts
        pattern = self._row_pattern(bank, src_row)
        device.preload_row(bank, src_row, pattern)
        for _ in range(attempts):
            self._rowclone_op(bank, src_row, dst_row, channel=channel)
            if device.row_data(bank, dst_row) != pattern:
                return False
        return True

    def _row_pattern(self, bank: int, row: int) -> bytes:
        unit = ((bank * 0x9E37 + row * 0x85EB + _TEST_PATTERN_SALT)
                & 0xFFFFFFFF).to_bytes(4, "little")
        return unit * (self.geometry.row_bytes // 4)

    # -- allocation (alignment + granularity + mapping problems) ---------------------

    def rows_for(self, size_bytes: int) -> int:
        """Whole DRAM rows covering ``size_bytes`` (granularity problem)."""
        return -(-size_bytes // self.geometry.row_bytes)

    def _phys_row(self, phys_addr: int) -> tuple[int, int, int]:
        dram = self.mapper.to_dram(phys_addr)
        return dram.channel, dram.bank, dram.row

    def _reserve(self, channel: int, bank: int, row: int) -> None:
        self._reserved.add((channel, bank, row))

    def plan_copy(self, size_bytes: int, base_addr: int = 0) -> CopyPlan:
        """Allocate clonable src/dst row pairs for an N-byte copy.

        The allocator walks rows from ``base_addr``, and for each source
        row searches its subarray for a destination row that passes the
        clonability test — this is how real allocations dodge unreliable
        pairs, so copies rarely fall back to the CPU.
        """
        g = self.geometry
        n_rows = self.rows_for(size_bytes)
        pairs: list[RowPair] = []
        src_phys = base_addr - (base_addr % g.row_bytes)
        for i in range(n_rows):
            channel, bank, src_row = self._phys_row(src_phys + i * g.row_bytes)
            self._reserve(channel, bank, src_row)
            dst_row = self._find_clonable_dst(bank, src_row, channel)
            if dst_row is None:
                # No clonable partner in the subarray: CPU fallback row.
                sub = g.subarray_of(src_row)
                dst_row = self._first_free_row(bank, sub, avoid=src_row,
                                               channel=channel)
                pairs.append(RowPair(bank, src_row, dst_row, reliable=False,
                                     channel=channel))
            else:
                pairs.append(RowPair(bank, src_row, dst_row, reliable=True,
                                     channel=channel))
            self._reserve(channel, bank, dst_row)
        dst_addr = self.mapper.row_base_physical(
            pairs[0].bank, pairs[0].dst_row, channel=pairs[0].channel)
        return CopyPlan(pairs=pairs, src_addr=src_phys,
                        dst_addr=dst_addr, size_bytes=size_bytes)

    def _find_clonable_dst(self, bank: int, src_row: int,
                           channel: int = 0) -> int | None:
        g = self.geometry
        sub = g.subarray_of(src_row)
        first = sub * g.subarray_rows
        last = min(first + g.subarray_rows, g.rows_per_bank)
        for dst_row in range(first, last):
            if dst_row == src_row or (channel, bank, dst_row) in self._reserved:
                continue
            if self.pair_is_clonable(bank, src_row, dst_row, channel=channel):
                return dst_row
        return None

    def _first_free_row(self, bank: int, subarray: int, avoid: int,
                        channel: int = 0) -> int:
        g = self.geometry
        first = subarray * g.subarray_rows
        last = min(first + g.subarray_rows, g.rows_per_bank)
        for row in range(first, last):
            if row != avoid and (channel, bank, row) not in self._reserved:
                return row
        raise RuntimeError(f"subarray {subarray} of bank {bank} is full")

    def plan_init(self, size_bytes: int, base_addr: int = 0) -> InitPlan:
        """Plan a bulk init: targets are *prescribed* by the array layout.

        Unlike copies, initialization must hit the array's own rows, so
        the allocator cannot route around unreliable pairs — it can only
        pick one source row per subarray and fall back to CPU stores for
        targets that fail the clonability test (footnote 6's overhead).
        """
        g = self.geometry
        n_rows = self.rows_for(size_bytes)
        dst_phys = base_addr - (base_addr % g.row_bytes)
        source_rows: dict[tuple[int, int, int], int] = {}
        targets: list[RowPair] = []
        for i in range(n_rows):
            channel, bank, target_row = self._phys_row(dst_phys + i * g.row_bytes)
            self._reserve(channel, bank, target_row)
            sub = g.subarray_of(target_row)
            key = (channel, bank, sub)
            if key not in source_rows:
                source_rows[key] = self._first_free_row(
                    bank, sub, avoid=target_row, channel=channel)
                self._reserve(channel, bank, source_rows[key])
            src_row = source_rows[key]
            reliable = self.pair_is_clonable(bank, src_row, target_row,
                                             channel=channel)
            targets.append(RowPair(bank, src_row, target_row, reliable,
                                   channel=channel))
        return InitPlan(source_rows=source_rows, targets=targets,
                        dst_addr=dst_phys, size_bytes=size_bytes)

    # -- execution -----------------------------------------------------------------

    def _rowclone_op(self, bank: int, src_row: int, dst_row: int,
                     channel: int = 0) -> None:
        """One in-DRAM copy through that channel's memory controller."""
        self.session.technique_op(RowCloneOp(bank, src_row, dst_row),
                                  respect_timing=False, channel=channel)
        self.stats.rowclone_ops += 1

    def execute_copy(self, plan: CopyPlan, clflush: bool = False) -> None:
        """Perform the planned bulk copy (Figure 10/11's RowClone variant)."""
        g = self.geometry
        for i, pair in enumerate(plan.pairs):
            src_phys = plan.src_addr + i * g.row_bytes
            dst_phys = self.mapper.row_base_physical(
                pair.bank, pair.dst_row, channel=pair.channel)
            if clflush:
                # Coherence problem: write back dirty source lines and
                # invalidate stale destination lines before the in-DRAM op.
                self.stats.flushed_lines += self.session.clflush_range(
                    src_phys, g.row_bytes)
                self.session.clflush_range(dst_phys, g.row_bytes)
            if pair.reliable:
                self._rowclone_op(pair.bank, pair.src_row, pair.dst_row,
                                  channel=pair.channel)
            else:
                self.stats.fallback_rows += 1
                self.session.run_trace(
                    cpu_copy_blocks(src_phys, dst_phys, g.row_bytes))

    def execute_init(self, plan: InitPlan, clflush: bool = False,
                     include_source_setup: bool = True) -> None:
        """Perform the planned bulk init (Figure 10/11's RowClone variant)."""
        g = self.geometry
        if include_source_setup:
            # CPU-initialize one source row per subarray with the fill
            # pattern and push it to DRAM — RowClone copies DRAM contents.
            for (channel, bank, _sub), src_row in plan.source_rows.items():
                src_phys = self.mapper.row_base_physical(
                    bank, src_row, channel=channel)
                self.session.run_trace(cpu_init_blocks(src_phys, g.row_bytes))
                self.stats.flushed_lines += self.session.clflush_range(
                    src_phys, g.row_bytes)
        for pair in plan.targets:
            dst_phys = self.mapper.row_base_physical(
                pair.bank, pair.dst_row, channel=pair.channel)
            if clflush:
                self.session.clflush_range(dst_phys, g.row_bytes)
            if pair.reliable:
                self._rowclone_op(pair.bank, pair.src_row, pair.dst_row,
                                  channel=pair.channel)
            else:
                self.stats.fallback_rows += 1
                self.session.run_trace(cpu_init_blocks(dst_phys, g.row_bytes))

    # -- verification (tests use this) ------------------------------------------------

    def copy_is_correct(self, plan: CopyPlan) -> bool:
        """Do all destination rows equal their source rows in DRAM?"""
        g = self.geometry
        for i, pair in enumerate(plan.pairs):
            device = self.system.device_for(pair.channel)
            src = device.row_data(pair.bank,
                                  self._phys_row(plan.src_addr + i * g.row_bytes)[2])
            dst = device.row_data(pair.bank, pair.dst_row)
            if src != dst:
                return False
        return True
