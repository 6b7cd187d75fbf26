"""Tests for the Bloom filter (weak-row tracking)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.profiling.bloom import BloomFilter


class TestBasics:
    def test_added_keys_are_members(self):
        bloom = BloomFilter.sized_for(100)
        for key in range(100):
            bloom.add(key)
        assert all(key in bloom for key in range(100))

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter.sized_for(100)
        assert not any(key in bloom for key in range(1000))

    def test_len_counts_additions(self):
        bloom = BloomFilter.sized_for(10)
        bloom.add(1)
        bloom.add(1)
        assert len(bloom) == 2

    def test_sizing_validation(self):
        with pytest.raises(ValueError):
            BloomFilter.sized_for(10, fp_rate=0.0)
        with pytest.raises(ValueError):
            BloomFilter(num_bits=4, num_hashes=1)
        with pytest.raises(ValueError):
            BloomFilter(num_bits=64, num_hashes=0)

    def test_sized_for_handles_zero_keys(self):
        bloom = BloomFilter.sized_for(0)
        assert bloom.num_bits >= 8

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter.sized_for(2000, fp_rate=0.01, seed=5)
        for key in range(2000):
            bloom.add(key)
        false_hits = sum(1 for key in range(10_000, 30_000) if key in bloom)
        rate = false_hits / 20_000
        assert rate < 0.03  # target 1% with slack

    def test_fill_ratio_and_estimate(self):
        bloom = BloomFilter.sized_for(500, fp_rate=0.01)
        for key in range(500):
            bloom.add(key)
        assert 0.2 < bloom.fill_ratio < 0.8
        assert 0.0 < bloom.estimated_fp_rate() < 0.1

    def test_seed_changes_bit_pattern(self):
        a = BloomFilter(num_bits=256, num_hashes=3, seed=1)
        b = BloomFilter(num_bits=256, num_hashes=3, seed=2)
        a.add(42)
        b.add(42)
        assert bytes(a._bits) != bytes(b._bits)

    def test_size_bytes(self):
        assert BloomFilter(num_bits=64, num_hashes=2).size_bytes == 8


@settings(max_examples=50)
@given(keys=st.sets(st.integers(min_value=0, max_value=2**48), min_size=1,
                    max_size=200))
def test_no_false_negatives_property(keys):
    """The RAIDR safety property: every added key is always a member,
    so a weak row can never slip through to a reduced-tRCD access."""
    bloom = BloomFilter.sized_for(len(keys), fp_rate=0.05)
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                     max_size=200),
       seed=st.integers(min_value=-(1 << 64), max_value=1 << 70),
       num_bits=st.integers(min_value=8, max_value=20_000),
       num_hashes=st.integers(min_value=1, max_value=10))
def test_add_many_equals_repeated_add(keys, seed, num_bits, num_hashes):
    one = BloomFilter(num_bits, num_hashes, seed=seed)
    many = BloomFilter(num_bits, num_hashes, seed=seed)
    for key in keys:
        one.add(key)
    many.add_many(keys)
    assert many._bits == one._bits
    assert len(many) == len(one) == len(keys)
