"""Command/tag indexing of profiles.

The paper stores profiles "using the application startup command and
custom tags as search index" (§4).  Tags disambiguate runs that share a
command line but differ in configuration files or environment — e.g. the
Gromacs experiments are tagged with the iteration count
(``tag_step=100000``).

This module normalises the many accepted tag spellings (``None``, a
single string, a list, or a mapping) into a canonical, hashable tuple so
stores and statistics can group profiles reliably.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["normalize_tags", "normalize_command", "profile_key", "tags_match"]


def normalize_tags(tags: object) -> tuple[str, ...]:
    """Normalise user-supplied tags into a sorted tuple of strings.

    Accepted forms::

        None                      -> ()
        "steps=1000"              -> ("steps=1000",)
        ["b", "a"]                -> ("a", "b")
        {"steps": 1000, "x": "y"} -> ("steps=1000", "x=y")
    """
    if tags is None:
        return ()
    if isinstance(tags, str):
        items = [tags]
    elif isinstance(tags, Mapping):
        items = [f"{key}={value}" for key, value in tags.items()]
    elif isinstance(tags, Sequence):
        items = [str(tag) for tag in tags]
    else:
        raise TypeError(f"unsupported tag specification: {type(tags).__name__}")
    cleaned = {item.strip() for item in items}
    cleaned.discard("")
    return tuple(sorted(cleaned))


def normalize_command(command: object) -> str:
    """Normalise a profiling target into its index string.

    Shell command lines are whitespace-normalised; Python callables are
    indexed by their qualified name (the paper profiles both).
    """
    if callable(command):
        module = getattr(command, "__module__", "") or ""
        name = getattr(command, "__qualname__", None) or getattr(command, "__name__", None)
        if name is None:
            name = repr(command)
        return f"python:{module}.{name}" if module else f"python:{name}"
    if isinstance(command, (list, tuple)):
        return " ".join(str(part) for part in command)
    return " ".join(str(command).split())


def profile_key(command: object, tags: object = None) -> tuple[str, tuple[str, ...]]:
    """The canonical ``(command, tags)`` search key for a profile."""
    return normalize_command(command), normalize_tags(tags)


def tags_match(stored: Sequence[str], query: object) -> bool:
    """True when every queried tag is present in the stored tag set.

    A query of ``None`` / empty matches anything: the paper's lookup only
    constrains the tags the caller specifies.
    """
    wanted = normalize_tags(query)
    return set(wanted).issubset(set(stored))
