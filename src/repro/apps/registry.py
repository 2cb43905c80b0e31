"""Application-model registry and spec parsing for the CLI.

The CLI profiles simulation-plane applications by *spec string*::

    gromacs                              # defaults
    gromacs:iterations=1000000,threads=4
    synthetic:instructions=1e9,bytes_written=64MB,filesystem=lustre
    sleeper:sleep_seconds=5
    ensemble:width=8,stages=3,instructions=6e9

Values are coerced: integers, floats (scientific notation allowed),
booleans, byte quantities with suffixes (``64MB``), else strings.
Third-party models register a factory with :func:`register_app`.
"""

from __future__ import annotations

from typing import Callable

from repro.apps.base import ApplicationModel
from repro.apps.ensemble import EnsembleApp, EnsembleStage
from repro.apps.gromacs import GromacsModel
from repro.apps.sleeper import SleeperApp
from repro.apps.synthetic import SyntheticApp
from repro.core.errors import ConfigError
from repro.util.units import parse_bytes

__all__ = ["register_app", "parse_app", "list_apps"]

_FACTORIES: dict[str, Callable[..., ApplicationModel]] = {}


def register_app(name: str, factory: Callable[..., ApplicationModel]) -> None:
    """Register a model factory under a spec name."""
    if not name or ":" in name:
        raise ConfigError(f"invalid app name {name!r}")
    _FACTORIES[name] = factory


def list_apps() -> list[str]:
    """Names of all registered application models."""
    return sorted(_FACTORIES)


def _coerce(value: str) -> object:
    text = value.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return parse_bytes(text)
    except ValueError:
        pass
    return text


def parse_app(spec: str) -> ApplicationModel:
    """Build an application model from a CLI spec string."""
    name, _, params = spec.partition(":")
    name = name.strip()
    if name not in _FACTORIES:
        raise ConfigError(f"unknown app {name!r}; registered: {list_apps()}")
    kwargs: dict[str, object] = {}
    if params.strip():
        for item in params.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"malformed app parameter {item!r} (expected k=v)")
            kwargs[key.strip()] = _coerce(value)
    try:
        return _FACTORIES[name](**kwargs)
    except (TypeError, ValueError) as exc:
        # A model's own ValueError is as much the spec's fault as an
        # unknown parameter; retry policies count a bare one transient.
        raise ConfigError(f"bad parameters for app {name!r}: {exc}") from exc


def _ensemble_factory(
    width: int = 8,
    stages: int = 3,
    instructions: float = 6e9,
    bytes_written: int = 0,
) -> EnsembleApp:
    """Symmetric ensemble: ``stages`` stages of ``width`` tasks each,
    with a single-task analysis stage in every odd position."""
    if stages < 1:
        raise ConfigError("stages must be >= 1")
    built = []
    for index in range(stages):
        if index % 2 == 1:
            built.append(
                EnsembleStage(tasks=1, instructions=instructions / 3, workload_class="app.generic")
            )
        else:
            built.append(
                EnsembleStage(
                    tasks=int(width), instructions=instructions, bytes_written=int(bytes_written)
                )
            )
    return EnsembleApp(stages=tuple(built))


def _synthetic_factory(**kwargs: object) -> SyntheticApp:
    """Synthetic app with a non-empty default (1e9 instructions), so a
    bare ``synthetic`` spec produces a runnable workload."""
    return SyntheticApp(**{"instructions": 1e9, **kwargs})  # type: ignore[arg-type]


register_app("gromacs", GromacsModel)
register_app("synthetic", _synthetic_factory)
register_app("sleeper", SleeperApp)
register_app("ensemble", _ensemble_factory)
