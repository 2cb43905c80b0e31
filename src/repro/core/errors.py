"""Exception hierarchy for the Synapse reproduction.

Every error raised by the library derives from :class:`SynapseError`, so a
caller embedding Synapse as middleware tooling (the paper's use cases) can
catch one type at the integration boundary.

Retry taxonomy
--------------

Long-running campaigns retry failed work (``RunPolicy`` retries, the
campaign's store-write retries), and retrying blindly wastes a whole
retry budget on errors that can never succeed (a malformed spec fails
identically every attempt).  :func:`is_retryable` classifies any
exception:

* an explicit ``retryable`` attribute on the exception wins (the
  :class:`RetryableError` / :class:`FatalError` markers set it);
* configuration-shaped errors (:class:`ConfigError`,
  :class:`WorkloadError`) and :class:`PoisonRequestError` are fatal —
  their cause is the request itself, not the environment;
* everything else is presumed transient and retryable (I/O hiccups,
  store contention, injected faults, timeouts).

Input checks
------------

Every input surface (a config, a campaign spec, a run policy, a fault
plan, an arrival spec, an app spec and the parameters of its model, a
machine model, a prediction's demand vector, the service's and the
traffic plane's arguments) checks its fields with the functions below,
called directly: each returns the value it checked (a whole number as an
``int``, nothing else converted) or raises :class:`ConfigError` naming
the field, so NaN, ±inf, a bool for a number, a fraction for a count,
``null`` or a misspelt key fail when the input loads, not when it runs.
The checks are :func:`number`, :func:`whole_number`, :func:`flag` (a
JSON bool), :func:`text`, :func:`names` (a non-empty list of distinct
strings) and :func:`mapping` (a JSON object, optionally with known keys
only).  An app model, whose parameters are its tags, discards what they
return.  Demands have one check per kind instead, in
:mod:`repro.sim.demands`, raising :class:`WorkloadError`.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Collection, Mapping
from typing import Any

__all__ = [
    "SynapseError",
    "ConfigError",
    "UnknownNameError",
    "WorkloadError",
    "BackendError",
    "CalibrationError",
    "StoreError",
    "CorruptArtifactError",
    "DocumentTooLargeError",
    "ProfileNotFoundError",
    "EmulationError",
    "ProfilingError",
    "RetryableError",
    "FatalError",
    "PoisonRequestError",
    "is_retryable",
    "flag",
    "mapping",
    "names",
    "number",
    "text",
    "whole_number",
]


class SynapseError(Exception):
    """Base class for all library errors."""


class ConfigError(SynapseError):
    """Invalid configuration value (bad sample rate, unknown kernel, ...)."""


class UnknownNameError(ConfigError, KeyError):
    """A name that no registry holds (a machine, a filesystem of one).

    Still a ``KeyError`` for lookups that catch one, but fatal: the name
    is as unknown on the next attempt.
    """

    __str__ = Exception.__str__  # the message as given, not KeyError's repr


class WorkloadError(SynapseError):
    """A workload description is malformed or unsupported by a backend."""


class BackendError(SynapseError):
    """An execution backend failed to spawn or observe a process."""


class CalibrationError(SynapseError):
    """A compute kernel could not be calibrated on the current resource."""


class StoreError(SynapseError):
    """Generic profile store failure."""


class DocumentTooLargeError(StoreError):
    """A profile document exceeded the store's per-document size limit.

    The Mongo-like store raises this only in ``strict`` mode; by default it
    truncates trailing samples, reproducing the paper's observation that
    the largest E.1 configuration "misses one data sample due to
    limitations in the database backend".
    """


class ProfileNotFoundError(StoreError):
    """No stored profile matches the requested command/tag combination."""


class CorruptArtifactError(StoreError):
    """A stored payload failed its integrity check (checksum mismatch).

    Raised by the file store when a stored profile's bytes no longer hash
    to the blake2b digest recorded beside them at ``put`` time —
    bit rot, a torn overwrite, or tampering.  Deliberately **fatal**
    (``retryable = False``): re-reading corrupt bytes returns the same
    corrupt bytes, so retry loops must surface the damage immediately
    instead of burning their budget on it.
    """

    retryable = False


class ProfilingError(SynapseError):
    """The profiler failed while observing a process."""


class EmulationError(SynapseError):
    """The emulator failed while replaying a profile."""


class RetryableError(SynapseError):
    """Marker base: a transient failure that a retry may fix."""

    retryable = True


class FatalError(SynapseError):
    """Marker base: a permanent failure no retry can fix."""

    retryable = False


class PoisonRequestError(FatalError):
    """A request repeatedly killed its worker pool and was quarantined.

    Raised by the run service's supervisor instead of requeueing a
    request forever: a request whose execution takes the worker process
    down (segfault, ``os._exit``, OOM kill) breaks the *pool*, so every
    requeue round costs a pool restart and re-executes innocent
    bystander requests.  After :data:`~repro.runtime.service.RunService.
    POISON_CRASH_LIMIT` pool crashes with the same request in flight,
    the supervisor fails it with this error — carrying the request key
    and crash count — and the rest of the batch proceeds.
    """

    def __init__(self, message: str, key: str | None = None, crashes: int = 0):
        super().__init__(message)
        self.key = key
        self.crashes = crashes


#: Exception types whose cause is the request/config itself: retrying
#: them re-fails identically, so retry loops stop immediately.
_FATAL_TYPES = (ConfigError, WorkloadError, FatalError)


def is_retryable(exc: BaseException) -> bool:
    """Whether a retry of the failed operation could plausibly succeed.

    An explicit boolean ``retryable`` attribute on the exception wins;
    otherwise configuration-shaped errors are fatal and everything else
    (I/O errors, store contention, timeouts) is presumed transient.
    """
    flag = getattr(exc, "retryable", None)
    if flag is not None:
        return bool(flag)
    return not isinstance(exc, _FATAL_TYPES)


def number(
    name: str, value: Any, least: Any = None, most: Any = None,
    *, above: Any = None, below: Any = None,
) -> Any:
    """``value`` when it is a finite real number (a bool is none) that is
    ``>= least``, ``<= most``, ``> above`` and ``< below`` (each bound
    optional); otherwise a :class:`ConfigError` naming ``name``."""
    kind = type(value)
    # A NaN fails the finiteness test (every comparison with it is False).
    if (
        (kind is float or kind is int or (
            kind is not bool and isinstance(value, numbers.Real)
        ))
        and -math.inf < value < math.inf
        and (least is None or value >= least) and (most is None or value <= most)
        and (above is None or value > above) and (below is None or value < below)
    ):
        return value
    bounds = " and ".join(
        f"{op} {bound}" for op, bound in
        ((">=", least), (">", above), ("<=", most), ("<", below)) if bound is not None
    )
    bounds = f" {bounds}" if bounds else ""
    raise ConfigError(f"{name} must be a finite number{bounds}, not {value!r}")


def whole_number(name: str, value: Any, least: int | None = None) -> int:
    """``value`` as an ``int`` when it is a whole number >= ``least`` (a
    whole float comes back as an ``int``); a bool, a fraction, a
    non-finite or non-numeric value is a :class:`ConfigError` naming
    ``name``."""
    if type(value) is int:
        if least is None or value >= least:
            return value
    # ``% 1`` is NaN for infinities; a NaN fails both tests.
    elif not isinstance(value, bool) and isinstance(value, numbers.Real) and (
        value % 1 == 0 and (least is None or value >= least)
    ):
        return int(value)
    bound = "" if least is None else f" >= {least}"
    raise ConfigError(f"{name} must be a whole number{bound}, not {value!r}")


def flag(name: str, value: Any) -> bool:
    """``value`` when it is ``True`` or ``False``; anything else (``0``,
    ``"false"``, ``None``) is a :class:`ConfigError` naming ``name``."""
    if value is True or value is False:
        return value
    raise ConfigError(f"{name} must be true or false, not {value!r}")


def text(name: str, value: Any) -> str:
    """``value`` when it is a string; a :class:`ConfigError` naming
    ``name`` otherwise (nothing is turned into one with ``str()``)."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{name} must be a string, not {value!r}")


def names(name: str, value: Any) -> tuple[str, ...]:
    """``value`` as a tuple when it is a non-empty list (or tuple) of
    distinct strings; a :class:`ConfigError` naming ``name`` otherwise.
    A lone string is no list of names."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of strings, not {value!r}")
    for item in value:
        if not isinstance(item, str):
            raise ConfigError(f"{name} entry {item!r} is not a string")
    if not value:
        raise ConfigError(f"{name} must not be empty")
    if len(set(value)) != len(value):
        raise ConfigError(f"{name} must not contain duplicates, not {list(value)!r}")
    return tuple(value)


def mapping(name: str, value: Any, keys: Collection[str] | None = None) -> Mapping:
    """``value`` when it is a mapping (a JSON object) whose keys, when
    ``keys`` is given, are all among them; a :class:`ConfigError` naming
    ``name`` (and every unknown key) otherwise."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a mapping (a JSON object), not {value!r}")
    if keys is not None:
        unknown = [key for key in value if key not in keys]
        if unknown:
            raise ConfigError(
                f"unknown {name} keys: {sorted(unknown, key=str)}; "
                f"known: {sorted(keys)}"
            )
    return value
