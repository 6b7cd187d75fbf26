"""Stream-prefetcher tests: training, stats, env knob, and integration.

The prefetcher must be a pure addition at the core boundary: off by
default (bit-identical paper paths), deterministic when on, issuing
prefetch-tagged requests that never gate the core and never pollute
demand-attribution statistics.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import jetson_nano_time_scaling
from repro.core.system import EasyDRAMSystem
from repro.cpu.prefetch import (
    PrefetchConfig,
    StreamPrefetcher,
    prefetch_from_env,
)
from repro.workloads import microbench

LINE = 64
LIMIT = 1 << 26


def make(degree=2, distance=4, streams=16):
    return StreamPrefetcher(PrefetchConfig(degree=degree, distance=distance,
                                           streams=streams),
                            line_bytes=LINE, limit=LIMIT)


class TestTraining:
    def test_two_equal_strides_confirm_and_emit(self):
        pf = make(degree=2, distance=4)
        assert pf.observe(0) == []           # new stream
        assert pf.observe(LINE) == []        # first stride seen
        out = pf.observe(2 * LINE)           # confirmed: emit ahead
        assert out == [(2 + 4) * LINE, (2 + 5) * LINE]
        assert pf.stats.issued == 2
        assert pf.stats.demand_misses == 3

    def test_descending_stream(self):
        pf = make(degree=1, distance=2)
        base = 100 * LINE
        pf.observe(base)
        pf.observe(base - LINE)
        assert pf.observe(base - 2 * LINE) == [base - 4 * LINE]

    def test_non_unit_stride_resets_training(self):
        pf = make()
        pf.observe(0)
        pf.observe(LINE)
        assert pf.observe(5 * LINE) == []    # stride 4 lines: reset
        assert pf.observe(6 * LINE) == []    # unit stride again, unconfirmed
        assert pf.observe(7 * LINE) != []    # reconfirmed

    def test_useful_accounting(self):
        pf = make(degree=1, distance=1)
        pf.observe(0)
        pf.observe(LINE)
        issued = pf.observe(2 * LINE)        # prefetches line 3
        assert issued == [3 * LINE]
        out = pf.observe(3 * LINE)           # demand hits the prefetch...
        assert pf.stats.useful == 1
        assert out == [4 * LINE]             # ...and the stream keeps going
        assert pf.stats.accuracy == 0.5      # 1 useful of 2 issued so far
        assert pf.stats.coverage == 1 / 4
        # A consumed prefetch is only credited once (replay resets the
        # stream to stride 0, no new credit and no new issue).
        assert pf.observe(3 * LINE) == []
        assert pf.stats.useful == 1

    def test_limit_bounds_prefetch_addresses(self):
        pf = make(degree=4, distance=1)
        last = LIMIT - LINE
        pf.observe(last - 2 * LINE)
        pf.observe(last - LINE)
        out = pf.observe(last)               # window crosses the limit
        assert out == []                     # nothing decodable remains
        assert all(0 <= a < LIMIT for a in out)

    def test_stream_table_evicts_oldest_region(self):
        pf = make(streams=1)
        pf.observe(0)
        pf.observe(1 << 20)                  # second region evicts first
        pf.observe(LINE)                     # back to region 0: retrains
        assert pf.observe(2 * LINE) == []    # stride seen once, unconfirmed

    def test_line_bytes_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            StreamPrefetcher(PrefetchConfig(), line_bytes=48, limit=LIMIT)

    def test_config_validation(self):
        for bad in ({"degree": 0}, {"distance": 0}, {"streams": 0}):
            with pytest.raises(ValueError):
                PrefetchConfig(**bad)


class TestEnvKnob:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PREFETCH", raising=False)
        assert prefetch_from_env() is None

    @pytest.mark.parametrize("value", ["0", "false", "off", ""])
    def test_false_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PREFETCH", value)
        assert prefetch_from_env() is None

    def test_enable_with_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "1")
        assert prefetch_from_env() == PrefetchConfig()

    def test_degree_distance_syntax(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "4:8")
        assert prefetch_from_env() == PrefetchConfig(degree=4, distance=8)

    def test_bad_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "lots")
        with pytest.raises(ValueError, match="REPRO_PREFETCH"):
            prefetch_from_env()


def _copy_result(session_prefetch=None, env=None, monkeypatch=None,
                 engine="event"):
    if env is not None:
        monkeypatch.setenv("REPRO_PREFETCH", env)
    system = EasyDRAMSystem(jetson_nano_time_scaling(), engine=engine)
    session = system.session("pf")
    if session_prefetch is not None:
        session.set_prefetcher(0, session_prefetch)
    session.run_trace(microbench.cpu_copy_blocks(0, 1 << 26, 128 * 1024))
    result = session.finish()
    return system, session, result


class TestSystemIntegration:
    def test_prefetcher_issues_and_covers_on_a_stream(self):
        system, session, result = _copy_result(PrefetchConfig())
        stats = session.prefetch_stats()[0]
        assert stats.issued > 0
        assert stats.useful > 0
        assert 0.0 < stats.coverage <= 1.0
        assert session.cores[0].processor.stats.prefetch_requests \
            == stats.issued
        assert system.smc.stats.serviced_prefetches == stats.issued

    def test_demand_attribution_is_prefetch_blind(self):
        baseline_system, _, baseline = _copy_result()
        system, _, result = _copy_result(PrefetchConfig())
        # The demand stream is address-deterministic, so demand service
        # counts match the prefetch-free run exactly; prefetches land in
        # their own counter and stay out of requests_per_channel.
        assert system.smc.stats.serviced_reads \
            == baseline_system.smc.stats.serviced_reads
        assert system.smc.stats.serviced_writes \
            == baseline_system.smc.stats.serviced_writes
        assert result.requests_per_channel == baseline.requests_per_channel
        assert result.llc_miss_requests == baseline.llc_miss_requests

    def test_env_knob_wires_every_core(self, monkeypatch):
        _, session, _ = _copy_result(env="2:4", monkeypatch=monkeypatch)
        assert session.cores[0].processor.prefetcher.config \
            == PrefetchConfig(degree=2, distance=4)

    def test_off_means_no_hook(self):
        _, session, _ = _copy_result()
        assert session.cores[0].processor.prefetcher is None
        assert session.prefetch_stats() == {}

    def test_set_prefetcher_none_removes(self):
        system = EasyDRAMSystem(jetson_nano_time_scaling())
        session = system.session("pf")
        session.set_prefetcher(0, PrefetchConfig())
        session.set_prefetcher(0, None)
        assert session.cores[0].processor.prefetcher is None

    @pytest.mark.parametrize("engine", ("cycle", "event"))
    def test_prefetch_bit_identical_across_fastpath(self, monkeypatch,
                                                    engine):
        def snapshot(engine):
            _, session, result = _copy_result(PrefetchConfig(),
                                              engine=engine)
            d = dataclasses.asdict(result)
            d.pop("wall_seconds")
            return d, dataclasses.asdict(session.prefetch_stats()[0])

        # ``engine`` at the kernel default vs the object reference
        # (cycle engine, kernel off).
        fast = snapshot(engine)
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert snapshot("cycle") == fast

    def test_prefetch_bit_identical_across_engines(self):
        def snapshot(engine):
            _, session, result = _copy_result(PrefetchConfig(),
                                              engine=engine)
            d = dataclasses.asdict(result)
            d.pop("wall_seconds")
            return d, dataclasses.asdict(session.prefetch_stats()[0])

        assert snapshot("cycle") == snapshot("event")
