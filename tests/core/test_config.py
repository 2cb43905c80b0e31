"""SynapseConfig validation and serialisation tests."""

from __future__ import annotations

import pytest

from repro.core.config import DEFAULT_WATCHERS, MAX_SAMPLE_RATE, SynapseConfig
from repro.core.errors import ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        config = SynapseConfig()
        assert config.sample_rate == 1.0
        assert config.watchers == DEFAULT_WATCHERS
        assert config.compute_kernel == "asm"

    @pytest.mark.parametrize("rate", [0.0, -1.0, MAX_SAMPLE_RATE + 0.1])
    def test_sample_rate_bounds(self, rate):
        with pytest.raises(ConfigError):
            SynapseConfig(sample_rate=rate)

    def test_max_rate_is_papers_10hz(self):
        assert MAX_SAMPLE_RATE == 10.0
        SynapseConfig(sample_rate=10.0)  # exactly at the bound is fine

    def test_sample_interval(self):
        assert SynapseConfig(sample_rate=4.0).sample_interval == pytest.approx(0.25)

    def test_block_sizes_parse_strings(self):
        config = SynapseConfig(io_block_size_read="4KB", io_block_size_write="64MB")
        assert config.io_block_size_read == 4096
        assert config.io_block_size_write == 64 << 20

    def test_mem_load_parses(self):
        assert SynapseConfig(mem_load="1MB").mem_load == 1 << 20

    @pytest.mark.parametrize("field", ["openmp_threads", "mpi_processes"])
    def test_parallelism_must_be_positive(self, field):
        with pytest.raises(ConfigError):
            SynapseConfig(**{field: 0})

    def test_negative_loads_rejected(self):
        with pytest.raises(ConfigError):
            SynapseConfig(cpu_load=-0.1)
        with pytest.raises(ConfigError):
            SynapseConfig(disk_load=-1)

    @pytest.mark.parametrize("field, value", [
        ("cpu_load", float("inf")),
        ("cpu_load", float("nan")),
        ("disk_load", float("inf")),
        ("disk_load", float("nan")),
        ("net_block_size", 0),
        ("net_block_size", "-1KB"),
        ("net_block_size", float("inf")),
        ("mem_block_size", 0),
        ("openmp_threads", 2.5),
        ("openmp_threads", float("inf")),
        ("mpi_processes", 1.5),
        ("mpi_processes", float("nan")),
        ("adaptive_settle_seconds", float("nan")),
        ("adaptive_settle_seconds", float("inf")),
        ("io_file_count", 2),
        ("io_file_count", 0),
        # A string used to iterate as one watcher per character, a bool
        # to run as 1, and a numeric string to escape as a TypeError.
        ("watchers", "cpu"),
        ("atoms", "compute"),
        ("watchers", ["cpu", 3]),
        ("sample_rate", True),
        ("sample_rate", "2"),
        ("openmp_threads", True),
        ("cpu_load", "0.5"),
        ("efficiency_target", True),
    ])
    def test_values_that_would_fail_mid_run_fail_at_construction(self, field, value):
        """Each used to pass construction: an infinite load made the
        emulated Tx infinite, a zero network block raised only once a
        profile had network bytes, fractional counts were truncated, a
        NaN settle time sampled at the base rate throughout, and a file
        count other than 1 was ignored."""
        with pytest.raises(ConfigError, match=field):
            SynapseConfig(**{field: value})

    def test_adaptive_rates_are_checked_at_construction(self):
        """A startup rate below the base rate used to pass construction
        and fail once the profiler built its policy."""
        with pytest.raises(ConfigError, match="initial_rate"):
            SynapseConfig(
                sampling_policy="adaptive", adaptive_initial_rate=1.0, sample_rate=5.0
            )
        SynapseConfig(sampling_policy="adaptive", adaptive_initial_rate=5.0, sample_rate=5.0)

    @pytest.mark.parametrize("field", ["openmp_threads", "mpi_processes"])
    def test_whole_parallelism_counts_pass(self, field):
        assert getattr(SynapseConfig(**{field: 4}), field) == 4
        assert getattr(SynapseConfig(**{field: 4.0}), field) == 4.0

    @pytest.mark.parametrize("target", [0.0, 1.5, -0.2])
    def test_efficiency_target_bounds(self, target):
        with pytest.raises(ConfigError):
            SynapseConfig(efficiency_target=target)

    def test_efficiency_target_valid(self):
        assert SynapseConfig(efficiency_target=0.8).efficiency_target == 0.8

    def test_from_dict_does_not_split_a_string(self):
        with pytest.raises(ConfigError, match="watchers"):
            SynapseConfig.from_dict({"watchers": "cpu"})
        assert SynapseConfig.from_dict({"watchers": ["cpu"]}).watchers == ("cpu",)

    def test_empty_watchers_rejected(self):
        with pytest.raises(ConfigError):
            SynapseConfig(watchers=())


class TestReplaceAndSerialise:
    def test_replace_revalidates(self):
        config = SynapseConfig()
        with pytest.raises(ConfigError):
            config.replace(sample_rate=100.0)

    def test_replace_changes_only_given(self):
        config = SynapseConfig(sample_rate=2.0)
        other = config.replace(compute_kernel="c")
        assert other.sample_rate == 2.0
        assert other.compute_kernel == "c"
        assert config.compute_kernel == "asm"

    def test_dict_roundtrip(self):
        config = SynapseConfig(
            sample_rate=5.0,
            compute_kernel="c",
            io_block_size_read="4KB",
            openmp_threads=4,
        )
        back = SynapseConfig.from_dict(config.to_dict())
        assert back == config

    def test_to_dict_equals_the_dataclass_walk(self):
        """``to_dict`` builds its flat dict directly; it must read exactly
        as ``dataclasses.asdict`` did — same keys, same order, tuples as
        lists, ``extra`` copied deep."""
        import dataclasses
        import json

        config = SynapseConfig(
            sample_rate=2.0, watchers=("cpu", "rusage"), io_block_size_read="auto",
            efficiency_target=0.5, extra={"nested": {"k": [1, 2]}},
        )
        reference = dataclasses.asdict(config)
        reference["watchers"] = list(config.watchers)
        reference["atoms"] = list(config.atoms)
        data = config.to_dict()
        assert data == reference
        assert json.dumps(data) == json.dumps(reference)  # key order too
        assert type(data["watchers"]) is list and type(data["atoms"]) is list
        data["extra"]["nested"]["k"].append(3)
        assert config.extra == {"nested": {"k": [1, 2]}}

    def test_from_dict_ignores_unknown(self):
        config = SynapseConfig.from_dict({"sample_rate": 2.0, "bogus": 1})
        assert config.sample_rate == 2.0
