"""Application registry / spec-parsing tests."""

from __future__ import annotations

import pytest

from repro.apps import EnsembleApp, GromacsModel, SleeperApp, SyntheticApp
from repro.apps.registry import list_apps, parse_app, register_app
from repro.core.errors import ConfigError


class TestParseApp:
    def test_defaults(self):
        app = parse_app("gromacs")
        assert isinstance(app, GromacsModel)
        assert app.iterations == 10_000

    def test_parameters(self):
        app = parse_app("gromacs:iterations=1000000,threads=4,paradigm=mpi")
        assert app.iterations == 1_000_000
        assert app.threads == 4
        assert app.paradigm == "mpi"

    def test_scientific_notation(self):
        app = parse_app("synthetic:instructions=1e9")
        assert isinstance(app, SyntheticApp)
        assert app.instructions == pytest.approx(1e9)

    def test_byte_suffixes(self):
        app = parse_app("synthetic:bytes_written=64MB")
        assert app.bytes_written == 64 << 20

    def test_string_values(self):
        app = parse_app("synthetic:filesystem=lustre")
        assert app.filesystem == "lustre"

    def test_boolean_values(self):
        app = parse_app("synthetic:overlap_io=true")
        assert app.overlap_io is True

    def test_sleeper(self):
        app = parse_app("sleeper:sleep_seconds=5")
        assert isinstance(app, SleeperApp)
        assert app.sleep_seconds == 5

    def test_ensemble_factory(self):
        app = parse_app("ensemble:width=4,stages=3")
        assert isinstance(app, EnsembleApp)
        assert len(app.stages) == 3
        assert app.stages[0].tasks == 4
        assert app.stages[1].tasks == 1  # analysis stage

    def test_unknown_app(self):
        with pytest.raises(ConfigError):
            parse_app("lammps")

    def test_malformed_parameter(self):
        with pytest.raises(ConfigError):
            parse_app("gromacs:iterations")

    def test_bad_parameter_name(self):
        with pytest.raises(ConfigError):
            parse_app("gromacs:warp_factor=9")

    @pytest.mark.parametrize("spec", ["gromacs:iterations=0", "synthetic:chunks=0"])
    def test_model_value_error_is_a_config_error(self, spec):
        # A retry policy would re-attempt a bare ValueError.
        with pytest.raises(ConfigError, match="must be >= 1"):
            parse_app(spec)


class TestRegistry:
    def test_builtin_apps_listed(self):
        names = list_apps()
        for name in ("gromacs", "synthetic", "sleeper", "ensemble"):
            assert name in names

    def test_register_custom(self):
        register_app("custom-test-app", lambda **kw: SleeperApp(**kw))
        app = parse_app("custom-test-app:sleep_seconds=1")
        assert isinstance(app, SleeperApp)

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigError):
            register_app("bad:name", SleeperApp)

    def test_parsed_apps_run(self):
        """Every registered default spec builds a runnable workload."""
        from repro.sim.engine import Engine
        from repro.sim.machines import get_machine
        from repro.sim.noise import NoiseModel

        machine = get_machine("localhost")
        for name in list_apps():
            app = parse_app(name)
            record = Engine(machine, NoiseModel.silent()).run(app.build_workload(machine))
            assert record.duration > 0, name
