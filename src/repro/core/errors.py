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
"""

from __future__ import annotations

import math
import numbers
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


def whole_number(name: str, value: Any, least: float = -math.inf) -> int:
    """``value`` as an ``int`` when it is a whole number >= ``least`` (a
    whole float comes back as an ``int``); a bool, a fraction, a
    non-finite or non-numeric value is a :class:`ConfigError` naming
    ``name``."""
    # ``% 1`` is NaN for infinities; a NaN fails both tests.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        value >= least and value % 1 == 0
    ):
        bound = "" if least == -math.inf else f" >= {least}"
        raise ConfigError(f"{name} must be a whole number{bound}, not {value!r}")
    return int(value)
