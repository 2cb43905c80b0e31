"""Declarative fault plans: what to break, where, and how often.

A :class:`FaultPlan` is a seedable, deterministic description of faults
to inject at the runtime's named injection points (see
:mod:`repro.faults.inject` for the point inventory).  Plan form (dict
or JSON file)::

    {
      "seed": 7,
      "rules": [
        {"point": "store.put", "mode": "error", "probability": 0.05},
        {"point": "worker.execute", "mode": "crash", "at": 1,
         "once": true, "fuse": "/tmp/crash.fuse"},
        {"point": "coordinator.heartbeat", "mode": "delay", "delay": 0.2,
         "every": 3}
      ]
    }

Each rule names one injection ``point`` and a ``mode``:

``error``
    Raise an exception: :class:`InjectedFault` (retryable) by default,
    ``"error": "os"`` raises :class:`OSError` (for sites with their
    own handling of OS errors, e.g. the file store's segment write,
    which unlinks its tmp file and raises ``StoreError``),
    ``"error": "store"`` raises
    :class:`~repro.core.errors.StoreError`.
``delay``
    Sleep ``delay`` seconds (default 0.05) — hangs, slow NFS, GC pauses.
``crash``
    ``os._exit(exit_code)`` — a segfault/OOM-kill stand-in that takes
    the whole worker process down without unwinding.

Firing conditions (first match wins):

* ``match_key`` restricts the rule to calls whose context key equals it
  (a campaign cell digest, a store command) — combined with any of the
  conditions below;
* ``at``: fire on exactly the Nth matching hit (1-based, per process);
* ``every``: fire on every Nth matching hit;
* ``probability``: fire when the *stateless decision hash* of
  ``(seed, rule, point, key, hit)`` falls below the probability — the
  same plan, seed and call sequence always fire identically, which is
  what makes chaos runs reproducible;
* none of the above: fire on every matching hit.

``once`` limits a rule to a single firing per process; ``fuse`` names a
marker file created atomically (``O_EXCL``) before firing, limiting the
rule to a single firing *across every process sharing the path* — the
way to inject exactly one worker crash into a pool whose restarted
workers would otherwise re-fire the rule forever.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.core.errors import (
    ConfigError,
    RetryableError,
    flag,
    mapping,
    number,
    text,
    whole_number,
)

__all__ = ["FaultPlan", "FaultRule", "InjectedFault"]

_MODES = ("error", "delay", "crash")
_ERROR_KINDS = ("fault", "store", "os")


class InjectedFault(RetryableError):
    """A deliberately injected failure (chaos/fault-injection runs).

    Retryable by design: injected faults emulate transient environment
    trouble, and a retry re-rolls the (deterministic) dice.
    """


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a :class:`FaultPlan` (see module docstring)."""

    point: str
    mode: str = "error"
    probability: float | None = None
    at: int | None = None
    every: int | None = None
    match_key: str | None = None
    once: bool = False
    fuse: str | None = None
    delay: float = 0.05
    error: str = "fault"
    exit_code: int = 13

    def __post_init__(self) -> None:
        if not text("fault rule point", self.point):
            raise ConfigError("fault rules need a non-empty 'point'")
        if self.mode not in _MODES:
            raise ConfigError(
                f"fault rule mode must be one of {_MODES}, not {self.mode!r}"
            )
        if self.error not in _ERROR_KINDS:
            raise ConfigError(
                f"fault rule error must be one of {_ERROR_KINDS}, "
                f"not {self.error!r}"
            )
        conditions = sum(
            value is not None for value in (self.probability, self.at, self.every)
        )
        if conditions > 1:
            raise ConfigError(
                "fault rules take at most one of 'probability', 'at', 'every'"
            )
        # A whole float is stored as an ``int``; ``at`` is a 1-based hit.
        for name in ("at", "every"):
            value = getattr(self, name)
            if value is not None:
                value = whole_number(f"fault rule {name!r}", value, 1)
                object.__setattr__(self, name, value)
        object.__setattr__(
            self, "exit_code", whole_number("fault rule exit_code", self.exit_code)
        )
        if self.probability is not None:
            number("fault rule probability", self.probability, 0.0, 1.0)
        number("fault rule delay", self.delay, 0.0)
        flag("fault rule once", self.once)
        for name in ("match_key", "fuse"):
            if getattr(self, name) is not None:
                text(f"fault rule {name}", getattr(self, name))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        mapping("fault rule", data, cls.__dataclass_fields__)
        if "point" not in data:
            raise ConfigError("fault rules need a 'point'")
        return cls(**data)

    def matches(self, point: str, key: str | None) -> bool:
        """Whether a call at ``point`` with context ``key`` hits this rule."""
        if self.point != point:
            return False
        return self.match_key is None or self.match_key == key

    def decide(self, seed: int, index: int, key: str | None, hit: int) -> bool:
        """Whether the rule fires on its ``hit``-th matching call.

        Pure function of the plan seed, rule index, context key and hit
        ordinal — no RNG state, so the decision is identical in every
        process that replays the same call sequence.
        """
        if self.at is not None:
            return hit == self.at
        if self.every is not None:
            return hit % self.every == 0
        if self.probability is not None:
            return _fraction(seed, index, self.point, key, hit) < self.probability
        return True

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"point": self.point, "mode": self.mode}
        for name in ("probability", "at", "every", "match_key", "fuse"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        if self.once:
            doc["once"] = True
        if self.mode == "delay":
            doc["delay"] = self.delay
        if self.mode == "error" and self.error != "fault":
            doc["error"] = self.error
        if self.mode == "crash" and self.exit_code != 13:
            doc["exit_code"] = self.exit_code
        return doc


def _fraction(*parts: Any) -> float:
    """Deterministic uniform fraction in [0, 1) from hashable parts."""
    payload = "|".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule` (see module docstring)."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    #: Free-form label surfaced in telemetry (plan file name, test id).
    name: str = "faults"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", whole_number("fault plan seed", self.seed))
        text("fault plan name", self.name)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        mapping("fault plan", data, cls.__dataclass_fields__)
        rules = data.get("rules", ())
        if not isinstance(rules, (list, tuple)) or not all(
            isinstance(rule, Mapping) for rule in rules
        ):
            raise ConfigError(
                f"fault plan 'rules' must be a list of mappings, not {rules!r}"
            )
        return cls(**{**data, "rules": tuple(FaultRule.from_dict(rule) for rule in rules)})

    @classmethod
    def from_json(cls, text_or_path: str | Path) -> "FaultPlan":
        """Parse a plan from inline JSON or a JSON file path."""
        text = str(text_or_path)
        if text.lstrip().startswith("{"):
            name = "inline"
        else:
            name = Path(text).name
            try:
                text = Path(text).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(
                    f"cannot read fault plan {text_or_path}: {exc}"
                ) from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid fault plan JSON: {exc}") from exc
        plan = cls.from_dict(data)
        if plan.name == "faults":
            plan = FaultPlan(rules=plan.rules, seed=plan.seed, name=name)
        return plan

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "name": self.name,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def rules_for(self, point: str) -> list[tuple[int, FaultRule]]:
        """``(rule index, rule)`` pairs that can ever match ``point``."""
        return [
            (index, rule)
            for index, rule in enumerate(self.rules)
            if rule.point == point
        ]
