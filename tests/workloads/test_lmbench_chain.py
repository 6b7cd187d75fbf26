"""The lmbench chase permutation: compiled kernel vs ``random.shuffle``.

``chain_order`` computes ``random.Random(seed).shuffle`` of the line
indices in the compiled kernel (``repro_shuffle``) whenever a backend
resolves, and with ``random.shuffle`` itself otherwise.  The two must be
bit-identical for every length and seed, and the blocks
``pointer_chase_blocks`` builds from them must not depend on the path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.dram import kernel as kernel_pkg
from repro.dram.kernel import cbackend
from repro.workloads import lmbench

KERNEL = cbackend.load()[0]

needs_kernel = pytest.mark.skipif(KERNEL is None,
                                  reason="no C compiler for the kernel")


def reference(n: int, seed) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def _small_lengths() -> list[int]:
    powers = [1 << k for k in range(2, 13)]
    # MT19937 regenerates its 624-word state every 624 draws; a shuffle
    # of n lines takes n - 1 draws plus rejections, so these lengths
    # cross the first and second regeneration.
    crossings = [600, 623, 624, 625, 626, 700, 1247, 1248, 1249, 1250]
    rng = random.Random(2025)
    drawn = [rng.randrange(4, 5000) for _ in range(6)]
    return sorted({1, 2, 3, *powers, *(p - 1 for p in powers),
                   *(p + 1 for p in powers), *crossings, *drawn})


SEEDS = (0, 7, 2**64 + 3, -12345, "lat_mem_rd")


def assert_shuffles_match(lengths, seed) -> None:
    for n in lengths:
        order = np.arange(n, dtype=np.int64)
        KERNEL.shuffle(order, seed)
        assert order.tolist() == reference(n, seed), f"n={n}"


@needs_kernel
@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_c_shuffle_matches_random_shuffle(seed):
    assert_shuffles_match(_small_lengths(), seed)


@needs_kernel
def test_c_shuffle_matches_at_working_set_sizes():
    """Figure 8's largest chains (8 and 16 MiB of 64 B lines, plus one
    off a power of two) and random lengths up to 300k."""
    rng = random.Random(8)
    lengths = [1 << 17, (1 << 18) + 1, rng.randrange(5000, 300_001)]
    assert_shuffles_match(lengths, 7)
    assert_shuffles_match(lengths[-1:], "lat_mem_rd")


@needs_kernel
def test_c_shuffle_rejects_unsafe_arrays():
    for bad in (np.arange(4, dtype=np.int32), np.arange(8)[::2]):
        with pytest.raises(ValueError):
            KERNEL.shuffle(bad, 7)


def test_chain_order_path(monkeypatch):
    """The C path whenever a backend resolves; ``random.shuffle`` on the
    ``--kernel=off`` (or no-compiler) path — same order either way."""
    calls = []
    shuffle = random.Random.shuffle

    def counting(self, x):
        calls.append(len(x))
        return shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counting)
    order = lmbench.chain_order(5000, 7)
    python_path = kernel_pkg.resolve_backend()[0] is None
    assert calls == ([5000] if python_path else [])
    monkeypatch.setattr(random.Random, "shuffle", shuffle)
    assert order.dtype == np.int64
    assert order.tolist() == reference(5000, 7)


def _chase_columns(size: int, accesses: int):
    return [(b.addr.tolist(), b.flags.tolist(), b.gap.tolist())
            for b in lmbench.pointer_chase_blocks(size, accesses)]


@pytest.mark.parametrize("size_kib", [
    1, 64, 8 * 1024, pytest.param(16 * 1024, marks=pytest.mark.slow)])
def test_pointer_chase_blocks_independent_of_backend(request, size_kib,
                                                      kernel_on):
    size = size_kib * 1024
    accesses = lmbench.accesses_for(size)
    auto = _chase_columns(size, accesses)
    request.getfixturevalue("kernel_off")
    off = _chase_columns(size, accesses)
    assert auto == off
    assert sum(len(addr) for addr, _, _ in auto) == accesses


def test_pointer_chase_wraps_the_chain():
    """More loads than lines: blocks crossing the chain's end wrap."""
    lines = 10
    blocks = list(lmbench.pointer_chase_blocks(lines * 64, 37, block=8))
    addrs = [a for b in blocks for a in b.addr.tolist()]
    one_pass = [(1 << 22) + 64 * i for i in reference(lines, 7)]
    assert addrs == (one_pass * 4)[:37]
    assert [len(b) for b in blocks] == [8, 8, 8, 8, 5]
