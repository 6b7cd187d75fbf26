"""Interference-knob differential tests (refresh storms, victim counters).

The DRAM-layer interference knobs must be pure observability/scenario
features: the activation counters and the rank-scoped retention epoch
may not perturb command timing, and the object (``issue``) and array
(``issue_fast``) backends may not diverge on any knob setting —
otherwise the storm/hammer scenarios would silently break the repo's
engine- and fastpath-equivalence contracts.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import InterferenceConfig, jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.core.workload_mix import WorkloadMix, run_mix
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.dram.flat_timing import K_ACT, K_PRE, K_RD, K_REF, K_WR
from repro.workloads import microbench

KIND_CODES = {CommandKind.ACT: K_ACT, CommandKind.PRE: K_PRE,
              CommandKind.RD: K_RD, CommandKind.WR: K_WR,
              CommandKind.REF: K_REF}


def random_commands(geometry, rng, steps, open_rows):
    """A randomized loosely-legal stream as (kind, bank, row, col) tuples."""
    out = []
    for _ in range(steps):
        bank = rng.randrange(geometry.num_banks)
        if rng.random() < 0.06 and not any(r >= 0 for r in open_rows):
            out.append((CommandKind.REF, 0, 0, 0))
        elif open_rows[bank] < 0:
            row = rng.randrange(geometry.rows_per_bank)
            open_rows[bank] = row
            out.append((CommandKind.ACT, bank, row, 0))
        elif rng.random() < 0.3:
            open_rows[bank] = -1
            out.append((CommandKind.PRE, bank, 0, 0))
        elif rng.random() < 0.6:
            out.append((CommandKind.RD, bank, 0,
                        rng.randrange(geometry.columns_per_row)))
        else:
            out.append((CommandKind.WR, bank, 0,
                        rng.randrange(geometry.columns_per_row)))
    return out


class TestBackendsAgreeUnderKnobs:
    def test_issue_fast_matches_issue_with_knobs(
            self, timing, geometry, cells):
        """Same stream, both backends, all knobs on: identical state."""
        kwargs = dict(cells=cells, track_row_activations=True, refresh_rank=0)
        a = DramDevice(timing, geometry, **kwargs)
        b = DramDevice(timing, geometry, **kwargs)
        rng = random.Random(11)
        stream = random_commands(geometry, rng, 400,
                                 [-1] * geometry.num_banks)
        t = 0
        for kind, bank, row, col in stream:
            t += rng.randrange(1000, 60_000)
            a.issue(Command(kind, bank=bank, row=row, col=col), t)
            b.issue_fast(KIND_CODES[kind], bank, row, col, t, False)
        assert a.row_activations == b.row_activations
        assert a.row_activations  # the stream did activate rows
        assert a.hammer_report() == b.hammer_report()
        assert a.stats.commands == b.stats.commands
        for rank_a, rank_b in zip(a.ranks, b.ranks):
            assert rank_a.last_ref == rank_b.last_ref
            assert rank_a.refresh_epoch_ps == rank_b.refresh_epoch_ps

    def test_flat_earliest_unperturbed_by_knobs(self, timing, geometry,
                                                cells):
        """The knobs are observability only: timing answers are identical
        to a knob-free device fed the same stream, and the flat state
        still matches the object checker's earliest-issue oracle."""
        plain = DramDevice(timing, geometry, cells=cells)
        knobbed = DramDevice(timing, geometry, cells=cells,
                             track_row_activations=True, refresh_rank=0)
        rng = random.Random(23)
        stream = random_commands(geometry, rng, 300,
                                 [-1] * geometry.num_banks)
        t = 0
        for kind, bank, row, col in stream:
            t += rng.randrange(1000, 60_000)
            code = KIND_CODES[kind]
            plain.issue_fast(code, bank, row, col, t, False)
            knobbed.issue_fast(code, bank, row, col, t, False)
            for probe_kind, probe_code in KIND_CODES.items():
                for probe_bank in range(geometry.num_banks):
                    cmd = Command(probe_kind, bank=probe_bank, row=1, col=1)
                    want, _ = knobbed.checker.earliest_issue(
                        cmd, knobbed.banks, knobbed.rank)
                    got = knobbed.flat.earliest(probe_code, probe_bank)
                    assert got == max(0, want), (probe_kind, probe_bank)
                    assert got == plain.flat.earliest(probe_code, probe_bank)


class TestRefreshRankScoping:
    @pytest.fixture
    def two_rank_device(self, timing, cells):
        config = jetson_nano_time_scaling().with_topology("ddr4-1ch-2rk")
        return DramDevice(timing, config.geometry, refresh_rank=1)

    def test_ref_scopes_retention_epoch_not_last_ref(self, two_rank_device):
        device = two_rank_device
        device.issue(Command(CommandKind.REF), 1_000_000)
        # Timing shadow is channel-global on every rank...
        assert all(r.last_ref == 1_000_000 for r in device.ranks)
        # ...but only the stormed rank's retention epoch advances.
        assert device.ranks[1].refresh_epoch_ps == 1_000_000
        assert device.ranks[0].refresh_epoch_ps == 0

    def test_out_of_range_rank_rejected(self, timing, geometry, cells):
        with pytest.raises(ValueError, match="refresh_rank"):
            DramDevice(timing, geometry, cells=cells,
                       refresh_rank=geometry.ranks)


class TestActivationCounters:
    def test_hammer_report_ranks_by_neighbour_pressure(self, timing,
                                                       geometry, cells):
        device = DramDevice(timing, geometry, cells=cells,
                            track_row_activations=True)
        t = 0
        # Hammer rows 10 and 12 in bank 0: row 11 is the double-sided
        # victim; rows 9 and 13 are single-sided.
        for _ in range(50):
            for row in (10, 12):
                t += 100_000
                device.issue(Command(CommandKind.ACT, bank=0, row=row), t)
                t += 100_000
                device.issue(Command(CommandKind.PRE, bank=0), t)
        report = device.hammer_report(top=3)
        assert report[0] == {"bank": 0, "row": 11, "pressure": 100,
                             "own_acts": 0}
        assert {(e["bank"], e["row"]): e["pressure"] for e in report[1:]} \
            == {(0, 9): 50, (0, 13): 50}

    def test_counters_default_off_and_report_raises(self, device):
        assert device.row_activations is None
        with pytest.raises(RuntimeError, match="track_row_activations"):
            device.hammer_report()

    def test_reset_clears_counters(self, timing, geometry, cells):
        device = DramDevice(timing, geometry, cells=cells,
                            track_row_activations=True)
        device.issue(Command(CommandKind.ACT, bank=0, row=5), 100_000)
        assert device.row_activations == {(0, 5): 1}
        device.reset()
        assert device.row_activations == {}


def _storm_config(factor, **interference):
    return jetson_nano_time_scaling().with_overrides(
        interference=InterferenceConfig(refresh_storm_factor=factor,
                                        **interference))


class TestRefreshStorm:
    def _run(self, config, engine="event"):
        system = EasyDRAMSystem(config, engine=engine)
        result = system.run(
            microbench.cpu_copy_blocks(0, 1 << 26, 192 * 1024),
            workload_name="storm")
        return system, result

    def test_storm_multiplies_refreshes(self):
        _, base = self._run(jetson_nano_time_scaling())
        system, stormed = self._run(_storm_config(4))
        assert base.refreshes > 0
        # 4x refresh rate: same emulated span carries ~4x the REFs (the
        # span itself stretches slightly under the extra refresh time).
        assert stormed.refreshes >= 3 * base.refreshes
        assert system.smc.stats.storm_refreshes > 0
        # Storm REFs steal DRAM time: the run gets slower, never faster.
        assert stormed.emulated_ps > base.emulated_ps

    def test_storm_default_has_no_extra_refreshes(self):
        system, _ = self._run(jetson_nano_time_scaling())
        assert system.smc.stats.storm_refreshes == 0

    def test_storm_bit_identical_across_engines_and_fastpath(
            self, request):
        config = _storm_config(3, track_row_activations=True)
        mix = WorkloadMix.parse("stream+pointer_chase")

        def snapshot(engine):
            run = run_mix(config, mix, engine=engine)
            d = dataclasses.asdict(run.result)
            d.pop("wall_seconds")
            return d, run.core_cycles, run.solo_cycles

        fast = snapshot("event")
        assert snapshot("cycle") == fast
        request.getfixturevalue("kernel_off")
        assert snapshot("cycle") == fast  # the object reference

    def test_interference_config_validation(self):
        with pytest.raises(ValueError, match="refresh_storm_factor"):
            InterferenceConfig(refresh_storm_factor=0)
        with pytest.raises(ValueError, match="refresh_storm_rank"):
            InterferenceConfig(refresh_storm_rank=-1)
