"""Filesystem model tests (E.5 cost structure)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.sim.filesystem import FilesystemModel


@pytest.fixture
def fs():
    return FilesystemModel(
        name="test",
        read_latency=1e-4,
        write_latency=1e-3,
        read_bandwidth=1e9,
        write_bandwidth=1e8,
        cache_bandwidth=4e9,
        cache_hit_fraction=0.5,
    )


class TestCosting:
    def test_zero_bytes_is_free(self, fs):
        assert fs.read_time(0, 4096) == 0.0
        assert fs.write_time(0, 4096) == 0.0

    def test_operations_ceil(self, fs):
        assert fs.operations(4096, 4096) == 1
        assert fs.operations(4097, 4096) == 2
        assert fs.operations(0, 4096) == 0

    def test_write_latency_dominates_small_blocks(self, fs):
        slow = fs.write_time(1 << 20, 512)
        fast = fs.write_time(1 << 20, 1 << 20)
        assert slow > 100 * fast  # 2048 ops of latency vs 1

    def test_writes_slower_than_reads(self, fs):
        nbytes, bs = 64 << 20, 1 << 20
        assert fs.write_time(nbytes, bs) > 5 * fs.read_time(nbytes, bs)

    def test_cache_accelerates_reads(self, fs):
        uncached = fs.without_cache()
        assert uncached.read_time(64 << 20, 1 << 20) > fs.read_time(64 << 20, 1 << 20)
        assert uncached.cache_hit_fraction == 0.0
        assert fs.cache_hit_fraction == 0.5  # original untouched

    def test_io_time_is_sum(self, fs):
        combined = fs.io_time(1 << 20, 2 << 20, 4096)
        assert combined == pytest.approx(
            fs.read_time(1 << 20, 4096) + fs.write_time(2 << 20, 4096)
        )

    def test_bandwidth_inverse_of_time(self, fs):
        nbytes, bs = 8 << 20, 1 << 20
        assert fs.bandwidth(nbytes, bs, "read") == pytest.approx(
            nbytes / fs.read_time(nbytes, bs)
        )

    def test_bandwidth_bad_op(self, fs):
        with pytest.raises(ValueError):
            fs.bandwidth(1, 1, "append")

    def test_zero_block_size_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.read_time(100, 0)


class TestValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            FilesystemModel(name="x", read_latency=-1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            FilesystemModel(name="x", write_bandwidth=0.0)

    def test_cache_fraction_bounds(self):
        with pytest.raises(ConfigError):
            FilesystemModel(name="x", cache_hit_fraction=1.5)


byte_counts = st.integers(min_value=1, max_value=1 << 32)
block_sizes = st.sampled_from([4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20])


@given(nbytes=byte_counts, bs_small=block_sizes, bs_large=block_sizes)
@settings(max_examples=60)
def test_smaller_blocks_never_faster(nbytes, bs_small, bs_large):
    """Monotonicity: smaller block sizes never make I/O faster."""
    model = FilesystemModel(name="m")
    if bs_small > bs_large:
        bs_small, bs_large = bs_large, bs_small
    assert model.read_time(nbytes, bs_small) >= model.read_time(nbytes, bs_large) - 1e-12
    assert model.write_time(nbytes, bs_small) >= model.write_time(nbytes, bs_large) - 1e-12


@given(a=byte_counts, b=byte_counts, bs=block_sizes)
@settings(max_examples=60)
def test_more_bytes_never_faster(a, b, bs):
    """Monotonicity: more bytes never take less time."""
    model = FilesystemModel(name="m")
    lo, hi = min(a, b), max(a, b)
    assert model.write_time(hi, bs) >= model.write_time(lo, bs) - 1e-12
    assert model.read_time(hi, bs) >= model.read_time(lo, bs) - 1e-12
