"""Tests for the tRCD-reduction technique."""

import numpy as np
import pytest

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.core.techniques.trcd import TrcdReductionTechnique
from repro.cpu.memtrace import load
from repro.dram.timing import ns
from repro.profiling.characterize import (
    CharacterizationResult,
    RowProfile,
    oracle_characterize,
)


@pytest.fixture
def system():
    return EasyDRAMSystem(jetson_nano_time_scaling())


@pytest.fixture
def characterization(system):
    g = system.config.geometry
    return oracle_characterize(system.tile.cells, g, range(g.num_banks),
                               range(512))


@pytest.fixture
def technique(system, characterization):
    return TrcdReductionTechnique(system, characterization)


def row_miss_trace(system, rows, accesses_per_row=1):
    """A trace that activates many distinct rows (ACT-heavy)."""
    mapper = system.mapper
    trace = []
    for row in range(rows):
        base = mapper.row_base_physical(row % 4, row % 400)
        for i in range(accesses_per_row):
            trace.append(load(base + i * 64, gap=1, dependent=True))
    return trace


class TestWeakRowKeys:
    """The weak-row keys are memoized on the characterization; a later
    :meth:`CharacterizationResult.record` drops the memo."""

    def test_keys_match_weak_rows_and_are_memoized(self, characterization):
        keys = characterization.weak_row_keys(ns(9.0))
        assert keys.dtype == np.uint64
        assert keys.tolist() == [(bank << 32) | row for bank, row
                                 in characterization.weak_rows(ns(9.0))]
        assert characterization.weak_row_keys(ns(9.0)) is keys
        assert len(characterization.weak_row_keys(ns(10.0))) < len(keys)

    def test_record_invalidates_memo(self, characterization):
        keys = characterization.weak_row_keys(ns(9.0))
        bank, row = next(key for key, p in characterization.profiles.items()
                         if p.min_trcd_ps <= ns(9.0))
        characterization.record(RowProfile(bank, row, ns(10.5)))
        after = characterization.weak_row_keys(ns(9.0))
        assert after is not keys
        assert len(after) == len(keys) + 1
        assert (bank << 32) | row in after.tolist()

    def test_bloom_equals_fresh_build(self, system, characterization):
        """Repeated construction from one characterization, before and
        after a later write, loads the filter a fresh build would."""
        def bloom_bytes(char):
            return bytes(TrcdReductionTechnique(system, char).bloom._bits)

        def fresh(char):
            return CharacterizationResult(dict(char.profiles),
                                          char.nominal_trcd_ps)

        first = bloom_bytes(characterization)
        assert bloom_bytes(characterization) == first
        assert bloom_bytes(fresh(characterization)) == first
        bank, row = next(key for key, p in characterization.profiles.items()
                         if p.min_trcd_ps <= ns(9.0))
        characterization.record(RowProfile(bank, row, ns(10.5)))
        rebuilt = TrcdReductionTechnique(system, characterization)
        assert rebuilt.trcd_for(bank, row) == rebuilt.nominal_trcd_ps
        assert bytes(rebuilt.bloom._bits) == bloom_bytes(
            fresh(characterization))


class TestConfiguration:
    def test_rejects_non_reduced_trcd(self, system, characterization):
        with pytest.raises(ValueError, match="below nominal"):
            TrcdReductionTechnique(system, characterization,
                                   reduced_trcd_ps=ns(14.0))

    def test_bloom_contains_every_weak_row(self, technique, characterization):
        """RAIDR-style guarantee: no false negatives — a weak row is
        never accessed with the reduced tRCD."""
        for bank, row in characterization.weak_rows(threshold_ps=ns(9.0)):
            assert technique.trcd_for(bank, row) == technique.nominal_trcd_ps

    def test_most_strong_rows_get_reduced_trcd(self, technique,
                                               characterization):
        strong = [(b, r) for (b, r), p in characterization.profiles.items()
                  if p.min_trcd_ps <= ns(9.0)]
        reduced = sum(
            1 for bank, row in strong
            if technique.trcd_for(bank, row) < technique.nominal_trcd_ps)
        # Bloom false positives may demote a few strong rows — safe but
        # rare (~1% by construction).
        assert reduced / len(strong) > 0.95


class TestServing:
    def test_no_unreliable_reads_ever(self, system, technique):
        """The correctness property of the whole scheme: reduced-tRCD
        accesses never return corrupted data."""
        technique.install()
        system.run(row_miss_trace(system, 300), "trcd-safe")
        assert system.device.stats.unreliable_reads == 0
        assert technique.stats.reduced_acts > 0

    def test_reduced_fraction_tracks_strong_fraction(self, system, technique):
        technique.install()
        system.run(row_miss_trace(system, 400), "trcd-frac")
        frac = technique.stats.reduced_fraction
        strong = system.tile.cells.strong_fraction(banks=4)
        assert abs(frac - strong) < 0.25

    def test_speedup_on_act_heavy_workload(self, system, characterization):
        """Reduced tRCD must shorten execution on a row-miss-heavy
        trace; the gain is bounded by tRCD's share of the access."""
        def trace():
            return row_miss_trace(system, 500)

        base_sys = EasyDRAMSystem(jetson_nano_time_scaling())
        base = base_sys.run(trace(), "base")
        fast_sys = EasyDRAMSystem(jetson_nano_time_scaling())
        technique = TrcdReductionTechnique(fast_sys, characterization)
        technique.install()
        fast = fast_sys.run(trace(), "fast")
        speedup = base.emulated_ps / fast.emulated_ps
        assert 1.0 < speedup < 1.15

    def test_uninstall_restores_stock_behaviour(self, system, technique):
        technique.install()
        technique.uninstall()
        system.run(row_miss_trace(system, 50), "stock")
        assert technique.stats.reduced_acts == 0

    def test_row_hits_bypass_bloom_check(self, system, technique):
        technique.install()
        mapper = system.mapper
        base = mapper.row_base_physical(0, 3)
        trace = [load(base + i * 64, gap=1, dependent=True) for i in range(64)]
        system.run(trace, "hits")
        assert technique.stats.row_hits > 0
        total_acts = technique.stats.reduced_acts + technique.stats.nominal_acts
        assert total_acts <= 4  # one activation, plus refresh-induced reopens
