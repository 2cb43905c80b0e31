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

    @pytest.mark.parametrize("target", [0.0, 1.5, -0.2])
    def test_efficiency_target_bounds(self, target):
        with pytest.raises(ConfigError):
            SynapseConfig(efficiency_target=target)

    def test_efficiency_target_valid(self):
        assert SynapseConfig(efficiency_target=0.8).efficiency_target == 0.8

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
