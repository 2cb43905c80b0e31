"""Deterministic measurement/system noise for the simulation plane.

Real profiling runs scatter because of system background activity; the
paper's consistency experiment (E.1, Fig 6) shows "non-zero standard
deviation ... in very good agreement with the distribution of the pure
application Tx".  The sim plane reproduces that scatter with lognormal
multiplicative noise whose RNG is seeded from the run identity, so a
repeated experiment gives an identical sample set and different `repeat`
indices give independent draws.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.errors import number

__all__ = ["NoiseModel", "seed_from"]


def seed_from(*parts: object) -> int:
    """Stable 32-bit seed derived from arbitrary identifying parts."""
    text = "\x1f".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


class NoiseModel:
    """Lognormal multiplicative noise with independent knobs.

    Parameters
    ----------
    seed:
        RNG seed (use :func:`seed_from` to derive from run identity).
    duration_sigma:
        Relative scatter of demand durations (system background).
    counter_sigma:
        Relative scatter of counter readings (measurement noise).

    Both sigmas must be finite non-negative numbers: every noisy run of
    the sim plane draws through a model, so this is where a bad sigma (a
    machine's ``noise_sigma`` included) is stopped, naming the field, with
    a :class:`~repro.core.errors.ConfigError`.
    """

    def __init__(
        self,
        seed: int = 0,
        duration_sigma: float = 0.01,
        counter_sigma: float = 0.003,
    ) -> None:
        self.duration_sigma = number("noise duration_sigma", duration_sigma, least=0)
        self.counter_sigma = number("noise counter_sigma", counter_sigma, least=0)
        self._seed = seed
        # A silent model never draws: it seeds its generator only if
        # somebody asks for its state.
        self._generator: np.random.Generator | None = (
            None if self.silent_model else np.random.default_rng(seed)
        )

    @property
    def _rng(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.default_rng(self._seed)
        return self._generator

    def duration(self, value: float) -> float:
        """Noisy version of a duration (never negative)."""
        if self.duration_sigma == 0 or value == 0:
            return value
        return float(value * self._rng.lognormal(0.0, self.duration_sigma))

    def counter(self, value: float) -> float:
        """Noisy version of a counter amount (never negative)."""
        if self.counter_sigma == 0 or value == 0:
            return value
        return float(value * self._rng.lognormal(0.0, self.counter_sigma))

    # -- batched draws (the engine's vectorised fast path) -----------------

    @property
    def silent_model(self) -> bool:
        """True when no value ever receives a draw (both sigmas zero)."""
        return self.duration_sigma == 0 and self.counter_sigma == 0

    def apply(self, values: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Noisy versions of ``values``, one lognormal draw per slot.

        This is the batched generalisation of :meth:`duration` /
        :meth:`counter`: slot *i* is multiplied by
        ``lognormal(0, sigmas[i])``.  Slots whose value or sigma is zero
        consume **no** draw — exactly the scalar methods' skip rule — so
        a batch of mixed duration/counter slots reproduces, bit for bit,
        the RNG stream of the equivalent sequence of scalar calls.
        """
        values = np.asarray(values, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        drawn = (values != 0.0) & (sigmas != 0.0)
        n_draws = int(np.count_nonzero(drawn))
        if n_draws == 0:
            return values.copy()
        z = self.normals(n_draws)
        out = values.copy()
        out[drawn] = values[drawn] * np.exp(sigmas[drawn] * z)
        return out

    def normals(self, count: int) -> np.ndarray:
        """The model's next ``count`` standard-normal draws, in order.

        The raw material of :meth:`apply` (which is ``values *
        exp(sigmas * normals(n))`` over the slots that draw): the engine
        takes one row of these per model and scales a whole block of
        rows at once.
        """
        return self._rng.standard_normal(count)

    def durations(self, values: np.ndarray) -> np.ndarray:
        """Batched :meth:`duration`: one draw per nonzero entry, in order."""
        values = np.asarray(values, dtype=float)
        return self.apply(values, np.full(values.shape, self.duration_sigma))

    def counters(self, values: np.ndarray) -> np.ndarray:
        """Batched :meth:`counter`: one draw per nonzero entry, in order."""
        values = np.asarray(values, dtype=float)
        return self.apply(values, np.full(values.shape, self.counter_sigma))

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the model, including RNG position.

        ``standard_normal`` draws are split-invariant for the underlying
        bit generator (drawing *k₁* then *k₂* values yields the same
        stream as drawing *k₁+k₂* at once), so restoring this state and
        continuing produces exactly the draws an uninterrupted model
        would have made.
        """
        return {
            "duration_sigma": self.duration_sigma,
            "counter_sigma": self.counter_sigma,
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "NoiseModel":
        """Rebuild a model mid-stream from :meth:`state_dict` output."""
        model = cls(
            seed=0,
            duration_sigma=state["duration_sigma"],
            counter_sigma=state["counter_sigma"],
        )
        rng_state = state["rng"]
        bit_gen = getattr(np.random, rng_state["bit_generator"])()
        bit_gen.state = rng_state
        model._generator = np.random.Generator(bit_gen)
        return model

    @classmethod
    def silent(cls) -> "NoiseModel":
        """A noise model that changes nothing (exact, repeatable runs)."""
        return cls(seed=0, duration_sigma=0.0, counter_sigma=0.0)
