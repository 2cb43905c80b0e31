"""Seeded arrival-process generators for the traffic plane.

Every process emits a monotonically non-decreasing stream of absolute
arrival times (seconds from the start of the trace) in caller-sized
chunks via :meth:`ArrivalProcess.take`.  Three properties are load-bearing
for the determinism goldens downstream:

* **Chunk stability** — ``take(1000)`` produces the exact same times as
  ``take(500)`` twice.  Each process draws from its RNG in fixed-size
  internal blocks (or per-request), independent of how the caller chunks
  its reads, and buffers the surplus.
* **Checkpointability** — :meth:`state_dict` captures the RNG bit-stream
  position (``numpy.random.PCG64`` state is a JSON-safe dict), the
  generator clock, and any buffered arrivals; :func:`restore_process`
  rebuilds an identical continuation.
* **Seed determinism** — the same seed always yields the same trace.

Processes:

``PoissonProcess``
    Homogeneous Poisson arrivals: i.i.d. exponential interarrivals at a
    fixed ``rate`` (requests/second).
``MMPPProcess``
    Markov-modulated Poisson process: the rate switches between states
    (e.g. a calm and a bursty state) with exponentially distributed
    dwell times.  Within a dwell period arrivals are generated exactly
    by drawing ``Poisson(rate * dwell)`` count and sorting uniforms —
    one vectorised draw per period, stable under any read chunking.
``DiurnalProcess``
    Nonhomogeneous Poisson with a sinusoidal day/night modulation,
    generated by exact thinning at the peak rate.
``TraceReplay``
    Replays an explicit array of arrival times (from a file or a
    previously generated trace).

Specs of the form ``"poisson:rate=500"`` are parsed by
:func:`make_process` (used by the CLI and ``core.api.traffic``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.core.errors import ConfigError, mapping, number, text

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "TraceReplay",
    "make_process",
    "restore_process",
]


def _new_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


class ArrivalProcess:
    """Base class: buffered, chunk-stable arrival time stream."""

    kind = "base"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = _new_rng(seed)
        self._gen_t = 0.0  # generator clock: time covered by draws so far
        self._pending: np.ndarray = np.empty(0, dtype=np.float64)

    # -- generation ----------------------------------------------------
    def _generate(self) -> np.ndarray:
        """Produce the next internal block of absolute arrival times.

        Must advance ``self._gen_t`` and draw from ``self._rng`` in a
        pattern that depends only on the generator's own state — never
        on how the caller chunks `take` — so the bit stream is identical
        for any read pattern.
        """
        raise NotImplementedError

    def take(self, n: int) -> np.ndarray:
        """Return the next ``n`` arrival times (float64 seconds)."""
        n = int(n)
        if n <= 0:
            return np.empty(0, dtype=np.float64)
        parts: List[np.ndarray] = []
        have = 0
        if self._pending.size:
            if self._pending.size >= n:
                out = self._pending[:n].copy()
                self._pending = self._pending[n:]
                return out
            parts.append(self._pending)
            have = self._pending.size
            self._pending = np.empty(0, dtype=np.float64)
        while have < n:
            block = self._generate()
            if block.size == 0:
                continue
            parts.append(block)
            have += block.size
        merged = np.concatenate(parts)
        self._pending = merged[n:]
        return merged[:n]

    # -- checkpointing -------------------------------------------------
    def _params(self) -> Dict[str, Any]:
        return {}

    def _extra_state(self) -> Dict[str, Any]:
        return {}

    def _load_extra(self, state: Dict[str, Any]) -> None:
        pass

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot sufficient to resume the stream."""
        return {
            "version": 1,
            "kind": self.kind,
            "seed": self.seed,
            "params": self._params(),
            "rng": self._rng.bit_generator.state,
            "gen_t": self._gen_t,
            "pending": [float(x) for x in self._pending],
            "extra": self._extra_state(),
        }

    def _restore_common(self, state: Dict[str, Any]) -> None:
        self._rng.bit_generator.state = state["rng"]
        self._gen_t = float(state["gen_t"])
        self._pending = np.asarray(state["pending"], dtype=np.float64)
        self._load_extra(state.get("extra", {}))


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` requests/second."""

    kind = "poisson"
    _BLOCK = 4096

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__(seed)
        self.rate = float(number("poisson rate", rate, above=0.0))

    def rate_at(self, t: float) -> float:
        return self.rate

    def _generate(self) -> np.ndarray:
        gaps = self._rng.exponential(1.0 / self.rate, self._BLOCK)
        times = self._gen_t + np.cumsum(gaps)
        self._gen_t = float(times[-1])
        return times

    def _params(self) -> Dict[str, Any]:
        return {"rate": self.rate}


class MMPPProcess(ArrivalProcess):
    """Markov-modulated Poisson process (bursty traffic).

    Cycles through ``rates`` states; state ``i`` lasts an exponential
    dwell with mean ``dwells[i]`` seconds during which arrivals are
    Poisson at ``rates[i]``.  With distinct rates the interarrival
    coefficient of variation exceeds 1 (burstiness index > 1).
    """

    kind = "mmpp"

    def __init__(
        self,
        rates: Sequence[float] = (50.0, 500.0),
        dwells: Sequence[float] = (10.0, 2.0),
        seed: int = 0,
    ) -> None:
        rates = [float(number("mmpp rates entry", r, 0.0)) for r in rates]
        dwells = [float(number("mmpp dwells entry", d, above=0.0)) for d in dwells]
        if len(rates) != len(dwells) or not rates:
            raise ConfigError("mmpp needs matching non-empty rates/dwells")
        if max(rates) <= 0:
            raise ConfigError(f"mmpp rates need one entry > 0, not {rates!r}")
        super().__init__(seed)
        self.rates = rates
        self.dwells = dwells
        self._state = 0

    def _generate(self) -> np.ndarray:
        # One vectorised draw per dwell period: the number of arrivals is
        # Poisson(rate * dwell) and, conditionally, their positions are
        # sorted uniforms over the period (exact, chunk-stable).
        i = self._state
        dwell = float(self._rng.exponential(self.dwells[i]))
        count = int(self._rng.poisson(self.rates[i] * dwell))
        times = np.empty(0, dtype=np.float64)
        if count:
            offsets = np.sort(self._rng.random(count)) * dwell
            times = self._gen_t + offsets
        self._gen_t += dwell
        self._state = (i + 1) % len(self.rates)
        return times

    def _params(self) -> Dict[str, Any]:
        return {"rates": self.rates, "dwells": self.dwells}

    def _extra_state(self) -> Dict[str, Any]:
        return {"state": self._state}

    def _load_extra(self, state: Dict[str, Any]) -> None:
        self._state = int(state.get("state", 0))


class DiurnalProcess(ArrivalProcess):
    """Sinusoidally modulated (day/night) nonhomogeneous Poisson.

    Instantaneous rate ``rate * (1 + amplitude * sin(2*pi*(t+phase)/period))``
    generated by exact thinning against the peak rate.  ``amplitude`` in
    [0, 1); ``period`` defaults to 24 h.
    """

    kind = "diurnal"
    _BLOCK = 2048

    def __init__(
        self,
        rate: float,
        amplitude: float = 0.5,
        period: float = 86400.0,
        phase: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.rate = float(number("diurnal rate", rate, above=0.0))
        self.amplitude = float(number("diurnal amplitude", amplitude, 0.0, below=1.0))
        self.period = float(number("diurnal period", period, above=0.0))
        self.phase = float(number("diurnal phase", phase))

    def rate_at(self, t: float) -> float:
        return self.rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * (t + self.phase) / self.period)
        )

    def _generate(self) -> np.ndarray:
        peak = self.rate * (1.0 + self.amplitude)
        gaps = self._rng.exponential(1.0 / peak, self._BLOCK)
        candidates = self._gen_t + np.cumsum(gaps)
        accept_u = self._rng.random(self._BLOCK)
        lam = self.rate * (
            1.0
            + self.amplitude
            * np.sin(2.0 * np.pi * (candidates + self.phase) / self.period)
        )
        self._gen_t = float(candidates[-1])
        return candidates[accept_u * peak <= lam]

    def _params(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "amplitude": self.amplitude,
            "period": self.period,
            "phase": self.phase,
        }


class TraceReplay(ArrivalProcess):
    """Replays an explicit, sorted array of arrival times."""

    kind = "trace"

    def __init__(self, times: Sequence[float], seed: int = 0) -> None:
        super().__init__(seed)
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trace must be a non-empty 1-D array of times")
        if np.any(np.diff(arr) < 0):
            raise ValueError("trace times must be non-decreasing")
        self.times = arr
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        n = int(n)
        end = self._pos + n
        if end > self.times.size:
            raise ValueError(
                f"trace exhausted: asked for {n} at position {self._pos} "
                f"of {self.times.size}"
            )
        out = self.times[self._pos:end].copy()
        self._pos = end
        return out

    def state_dict(self) -> Dict[str, Any]:
        # The trace itself can be huge; the checkpoint records only the
        # cursor.  ``restore_process`` needs the same trace passed back.
        return {"version": 1, "kind": self.kind, "seed": self.seed, "pos": self._pos}


_SPEC_HELP = (
    "expected '<kind>[:k=v,...]' — e.g. poisson:rate=500 | "
    "mmpp:rates=50/500,dwells=10/2 | "
    "diurnal:rate=200,amplitude=0.8,period=86400 | trace:<path>"
)


#: The options of each parametric process kind, with their defaults.
_SPEC_OPTIONS: Dict[str, Dict[str, Any]] = {
    "poisson": {"rate": 100.0},
    "mmpp": {"rates": [50.0, 500.0], "dwells": [10.0, 2.0]},
    "diurnal": {"rate": 100.0, "amplitude": 0.5, "period": 86400.0, "phase": 0.0},
}
_SPEC_KINDS = {"poisson": PoissonProcess, "mmpp": MMPPProcess, "diurnal": DiurnalProcess}


def _parse_kv(kind: str, text: str) -> Dict[str, Any]:
    """The ``k=v,...`` options of a ``kind`` spec over its defaults; a
    value is a number or ``/``-separated numbers.  A malformed piece,
    an unknown key or a value that is no number is a
    :class:`~repro.core.errors.ConfigError` naming it."""
    out: Dict[str, Any] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"bad process option {piece!r}: {_SPEC_HELP}")
        key, value = (part.strip() for part in piece.split("=", 1))
        try:
            values = [float(v) for v in value.split("/")]
        except ValueError:
            raise ConfigError(
                f"{kind} option {key} must be a number (or N1/N2/...), not {value!r}"
            ) from None
        out[key] = values if "/" in value else values[0]
    return {**_SPEC_OPTIONS[kind], **mapping(f"{kind} spec", out, _SPEC_OPTIONS[kind])}


def _load_trace(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return np.load(path)
    return np.loadtxt(path, dtype=np.float64, ndmin=1)


def make_process(spec: str, seed: int = 0) -> ArrivalProcess:
    """Build an arrival process from a spec string like ``poisson:rate=500``.

    An unknown kind or option, or an option value that is no finite
    number in range, is a :class:`~repro.core.errors.ConfigError` naming it.
    """
    kind, _, rest = text("arrival spec", spec).partition(":")
    kind = kind.strip().lower()
    if kind == "trace":
        if not rest:
            raise ConfigError(f"trace spec needs a path: {_SPEC_HELP}")
        return TraceReplay(_load_trace(rest), seed=seed)
    if kind not in _SPEC_KINDS:
        raise ConfigError(f"unknown arrival process {kind!r}: {_SPEC_HELP}")
    opts = _parse_kv(kind, rest)
    if kind == "mmpp":
        # A lone number is a one-state list.
        opts = {key: value if isinstance(value, list) else [value]
                for key, value in opts.items()}
    return _SPEC_KINDS[kind](**opts, seed=seed)


def restore_process(state: Dict[str, Any], trace: Sequence[float] | None = None) -> ArrivalProcess:
    """Rebuild a process from :meth:`ArrivalProcess.state_dict` output.

    ``TraceReplay`` checkpoints hold only the cursor; pass the original
    ``trace`` back in to resume one.
    """
    kind = state["kind"]
    seed = int(state.get("seed", 0))
    if kind == "trace":
        if trace is None:
            raise ValueError("restoring a trace process requires the original trace")
        proc = TraceReplay(trace, seed=seed)
        proc._pos = int(state["pos"])
        return proc
    params = state.get("params", {})
    if kind == "poisson":
        proc: ArrivalProcess = PoissonProcess(rate=params["rate"], seed=seed)
    elif kind == "mmpp":
        proc = MMPPProcess(rates=params["rates"], dwells=params["dwells"], seed=seed)
    elif kind == "diurnal":
        proc = DiurnalProcess(
            rate=params["rate"],
            amplitude=params["amplitude"],
            period=params["period"],
            phase=params.get("phase", 0.0),
            seed=seed,
        )
    else:
        raise ValueError(f"unknown arrival process kind in checkpoint: {kind!r}")
    proc._restore_common(state)
    return proc
