"""Virtual clock and noise model tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.sim.clock import VirtualClock
from repro.sim.noise import NoiseModel, seed_from


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now() == 1.5

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to_forward_only(self):
        clock = VirtualClock(2.0)
        clock.advance_to(1.0)
        assert clock.now() == 2.0
        clock.advance_to(3.0)
        assert clock.now() == 3.0

    @given(st.lists(st.floats(0, 100, allow_nan=False), max_size=20))
    def test_monotone_property(self, steps):
        clock = VirtualClock()
        previous = clock.now()
        for step in steps:
            clock.advance(step)
            assert clock.now() >= previous
            previous = clock.now()


class TestNoiseModel:
    def test_silent_is_identity(self):
        noise = NoiseModel.silent()
        assert noise.duration(1.23) == 1.23
        assert noise.counter(4.56) == 4.56

    def test_deterministic_per_seed(self):
        a = [NoiseModel(seed=7).duration(1.0) for _ in range(3)]
        b = [NoiseModel(seed=7).duration(1.0) for _ in range(3)]
        assert a == b

    def test_different_seeds_differ(self):
        assert NoiseModel(seed=1).duration(1.0) != NoiseModel(seed=2).duration(1.0)

    def test_zero_untouched(self):
        noise = NoiseModel(seed=0)
        assert noise.duration(0.0) == 0.0
        assert noise.counter(0.0) == 0.0

    def test_values_stay_positive(self):
        noise = NoiseModel(seed=3, duration_sigma=0.1)
        assert all(noise.duration(1.0) > 0 for _ in range(100))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            NoiseModel(duration_sigma=-0.1)

    @pytest.mark.parametrize("field", ["duration_sigma", "counter_sigma"])
    @pytest.mark.parametrize(
        "sigma", [float("nan"), float("inf"), float("-inf"), -0.5, True, "0.1"],
        ids=repr,
    )
    def test_non_finite_or_negative_sigma_is_rejected_by_name(self, field, sigma):
        with pytest.raises(ConfigError, match=f"noise {field} must be"):
            NoiseModel(seed=1, **{field: sigma})

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.01], ids=repr)
    def test_a_bad_machine_sigma_fails_the_first_noisy_spawn_by_name(self, sigma):
        """A NaN machine sigma used to make every noisy Tx NaN."""
        import dataclasses

        from repro.apps import SleeperApp
        from repro.sim.backend import SimBackend
        from repro.sim.machines import get_machine

        machine = dataclasses.replace(get_machine("thinkie"), noise_sigma=sigma)
        with pytest.raises(ConfigError, match="noise duration_sigma must be"):
            SimBackend(machine, noisy=True).spawn(SleeperApp(sleep_seconds=1.0))
        silent = SimBackend(machine, noisy=False).spawn(SleeperApp(sleep_seconds=1.0))
        assert silent.record.duration > 0

    def test_a_silent_model_keeps_its_state_contract(self):
        state = NoiseModel.silent().state_dict()
        restored = NoiseModel.from_state(state)
        assert restored.silent_model and restored.state_dict() == state

    def test_scatter_scale(self):
        noise = NoiseModel(seed=11, duration_sigma=0.01)
        values = [noise.duration(1.0) for _ in range(500)]
        import numpy as np

        assert np.std(values) == pytest.approx(0.01, rel=0.35)


class TestBatchedDraws:
    """The vectorised draws must consume the RNG stream bit-for-bit
    like the equivalent sequence of scalar calls (zero slots skip)."""

    def test_durations_match_scalar_stream(self):
        import numpy as np

        values = [1.0, 0.0, 2.5, 3.0, 0.0, 4.0]
        batch = NoiseModel(seed=9).durations(values)
        scalar = [NoiseModel(seed=9)]  # fresh model, same seed
        expected = [scalar[0].duration(v) for v in values]
        np.testing.assert_array_equal(batch, expected)

    def test_counters_match_scalar_stream(self):
        import numpy as np

        values = [5.0, 0.0, 7.0]
        batch = NoiseModel(seed=4).counters(values)
        fresh = NoiseModel(seed=4)
        np.testing.assert_array_equal(batch, [fresh.counter(v) for v in values])

    def test_apply_interleaves_mixed_sigmas(self):
        import numpy as np

        batched = NoiseModel(seed=2)
        scalar = NoiseModel(seed=2)
        values = np.array([1.0, 10.0, 0.0, 3.0])
        sigmas = np.array(
            [batched.duration_sigma, batched.counter_sigma, batched.counter_sigma,
             batched.duration_sigma]
        )
        out = batched.apply(values, sigmas)
        expected = [
            scalar.duration(1.0),
            scalar.counter(10.0),
            scalar.counter(0.0),
            scalar.duration(3.0),
        ]
        np.testing.assert_array_equal(out, expected)

    def test_silent_model_draws_nothing(self):
        import numpy as np

        noise = NoiseModel.silent()
        assert noise.silent_model
        values = np.array([1.0, 2.0])
        np.testing.assert_array_equal(noise.durations(values), values)
        np.testing.assert_array_equal(noise.counters(values), values)


class TestSeedFrom:
    def test_stable(self):
        assert seed_from("a", 1) == seed_from("a", 1)

    def test_distinguishes_parts(self):
        assert seed_from("a", 1) != seed_from("a", 2)
        assert seed_from("ab") != seed_from("a", "b")

    def test_returns_32bit(self):
        assert 0 <= seed_from("anything", 42) < 2**32
