"""Multi-channel / multi-rank address-mapping and topology tests.

Property-based round trips across every mapping scheme and random
(including non-power-of-two) geometries, the vectorized block decoder
against the scalar one, the strict out-of-range contract, and the
decode-memo cap.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import TOPOLOGIES, topology
from repro.dram.address import AddressMapper, Geometry

# Mixed power-of-two and non-power-of-two shapes; channels include the
# awkward count 3 and ranks the paper never models.
GEOMETRIES = st.builds(
    Geometry,
    bank_groups=st.sampled_from((1, 2, 4)),
    banks_per_group=st.sampled_from((2, 3, 4)),
    rows_per_bank=st.sampled_from((64, 96, 256)),
    columns_per_row=st.sampled_from((16, 24, 32)),
    subarray_rows=st.just(32),
    ranks=st.sampled_from((1, 2, 3)),
    channels=st.sampled_from((1, 2, 3, 4)),
)


class TestGeometryTopology:
    def test_defaults_match_paper_single_channel(self):
        g = Geometry()
        assert g.channels == 1 and g.ranks == 1
        assert g.total_banks == g.num_banks
        assert g.total_bytes == g.channel_bytes

    def test_total_scaling(self):
        base = Geometry()
        multi = Geometry(channels=2, ranks=2)
        assert multi.total_banks == 2 * base.num_banks
        assert multi.channel_bytes == 2 * base.channel_bytes
        assert multi.total_bytes == 4 * base.total_bytes

    def test_rank_and_group_of_flat_banks(self):
        g = Geometry(bank_groups=2, banks_per_group=2, ranks=2)
        assert [g.rank_of(b) for b in range(g.total_banks)] == [0] * 4 + [1] * 4
        # Group ids never collide across ranks.
        groups_r0 = {g.bank_group_of(b) for b in range(4)}
        groups_r1 = {g.bank_group_of(b) for b in range(4, 8)}
        assert groups_r0.isdisjoint(groups_r1)

    def test_rejects_nonpositive_topology(self):
        with pytest.raises(ValueError):
            Geometry(channels=0)
        with pytest.raises(ValueError):
            Geometry(ranks=0)

    def test_topology_presets(self):
        for name in TOPOLOGIES:
            g = topology(name)
            assert g.channels >= 1 and g.ranks >= 1
        assert topology("ddr4-4ch").channels == 4
        assert topology("lpddr4-4ch").num_banks == 8
        with pytest.raises(KeyError, match="unknown topology"):
            topology("hbm-banana")

    def test_topology_overrides_win(self):
        g = topology("ddr4-2ch", rows_per_bank=128, subarray_rows=64,
                     channels=8)
        assert g.channels == 8 and g.rows_per_bank == 128


@settings(max_examples=120, deadline=None)
@given(geometry=GEOMETRIES, scheme=st.sampled_from(AddressMapper.SCHEMES),
       data=st.data())
def test_roundtrip_property_all_schemes(geometry, scheme, data):
    """to_physical(to_dram(x)) == line-aligned x for every scheme/shape."""
    mapper = AddressMapper(geometry, scheme)
    lines = geometry.total_bytes // geometry.line_bytes
    line = data.draw(st.integers(min_value=0, max_value=lines - 1))
    addr = line * geometry.line_bytes
    dram = mapper.to_dram(addr)
    assert mapper.to_physical(dram) == addr
    assert 0 <= dram.channel < geometry.channels
    assert 0 <= dram.rank < geometry.ranks
    assert dram.rank == geometry.rank_of(dram.bank)
    assert dram.channel == mapper.channel_of(addr)


@settings(max_examples=60, deadline=None)
@given(geometry=GEOMETRIES, scheme=st.sampled_from(AddressMapper.SCHEMES),
       seed=st.integers(min_value=0, max_value=2**31))
def test_vectorized_prime_matches_scalar(geometry, scheme, seed):
    """The NumPy block decoder produces exactly the scalar decodes."""
    import random

    rng = random.Random(seed)
    lines = geometry.total_bytes // geometry.line_bytes
    addrs = [rng.randrange(lines) * geometry.line_bytes for _ in range(64)]
    primed = AddressMapper(geometry, scheme)
    primed.prime(addrs, [-1, -7])          # negative sentinels skipped
    scalar = AddressMapper(geometry, scheme)
    for a in addrs:
        assert primed._decode_cache[a] == scalar.to_dram(a)


class TestChannelInterleaves:
    def test_channel_line_rotates_lines(self):
        g = Geometry(channels=4)
        mapper = AddressMapper(g, "channel-line")
        chans = [mapper.to_dram(i * 64).channel for i in range(8)]
        assert chans == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_channel_row_keeps_rows_contiguous(self):
        g = Geometry(channels=2)
        mapper = AddressMapper(g, "channel-row")
        assert mapper.row_is_contiguous()
        base = mapper.row_base_physical(3, 7, channel=1)
        coords = {(mapper.to_dram(base + i * 64).channel,
                   mapper.to_dram(base + i * 64).bank,
                   mapper.to_dram(base + i * 64).row)
                  for i in range(g.columns_per_row)}
        assert coords == {(1, 3, 7)}

    def test_channel_xor_breaks_power_of_two_camping(self):
        """Row-strided streams must not camp on one channel under XOR."""
        g = Geometry(channels=4)
        mapper = AddressMapper(g, "channel-xor")
        stride = g.row_bytes * 4
        chans = {mapper.to_dram(i * stride).channel for i in range(64)}
        assert len(chans) > 1

    def test_channel_schemes_balance_streams(self):
        g = Geometry(channels=4)
        for scheme in AddressMapper.CHANNEL_SCHEMES:
            mapper = AddressMapper(g, scheme)
            counts = [0] * 4
            for i in range(4096):
                counts[mapper.to_dram(i * 64).channel] += 1
            assert min(counts) > 0.8 * max(counts), scheme

    def test_single_channel_degenerates_to_row_major(self):
        """With one channel every channel scheme equals row-bank-col."""
        g = Geometry(channels=1)
        plain = AddressMapper(g, "row-bank-col")
        for scheme in AddressMapper.CHANNEL_SCHEMES:
            mapper = AddressMapper(g, scheme)
            for i in range(0, 4096, 97):
                assert mapper.to_dram(i * 64) == plain.to_dram(i * 64), scheme


class TestStrictAliasing:
    def test_out_of_range_raises_by_default(self, geometry):
        mapper = AddressMapper(geometry, "row-bank-col")
        with pytest.raises(ValueError, match="beyond the"):
            mapper.to_dram(geometry.total_bytes)
        with pytest.raises(ValueError, match="beyond the"):
            mapper.to_dram(geometry.total_bytes + 64)

    def test_out_of_range_raises_in_prime(self, geometry):
        mapper = AddressMapper(geometry, "row-bank-col")
        with pytest.raises(ValueError, match="beyond the"):
            mapper.prime([0, geometry.total_bytes + 64])

    def test_permissive_mode_wraps(self, geometry):
        mapper = AddressMapper(geometry, "row-bank-col", strict=False)
        wrapped = mapper.to_dram(geometry.total_bytes + 128)
        assert wrapped == mapper.to_dram(128)

    def test_channel_of_checks_range_too(self, geometry):
        mapper = AddressMapper(geometry, "row-bank-col")
        with pytest.raises(ValueError, match="beyond the"):
            mapper.channel_of(geometry.total_bytes)


class TestDecodeCacheCap:
    def test_scalar_inserts_stop_at_cap(self, geometry):
        mapper = AddressMapper(geometry, "row-bank-col", cache_limit=4)
        for i in range(8):
            mapper.to_dram(i * 64)
        assert len(mapper._decode_cache) == 4
        # Decodes past the cap still return correct values.
        fresh = AddressMapper(geometry, "row-bank-col")
        assert mapper.to_dram(6 * 64) == fresh.to_dram(6 * 64)

    def test_prime_respects_cap(self, geometry):
        mapper = AddressMapper(geometry, "row-bank-col", cache_limit=4)
        mapper.prime([i * 64 for i in range(16)])
        assert len(mapper._decode_cache) == 4
        mapper.prime([i * 64 for i in range(16, 32)])  # no-op: full
        assert len(mapper._decode_cache) == 4

    def test_default_cap_is_bounded(self, geometry):
        mapper = AddressMapper(geometry, "row-bank-col")
        assert mapper.cache_limit == AddressMapper.DECODE_CACHE_LIMIT
