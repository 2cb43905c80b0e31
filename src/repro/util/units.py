"""Parsing and formatting of byte sizes, frequencies and durations.

The CLI, the filesystem models and the benchmark harness all accept
human-friendly strings like ``"4KB"``, ``"2.7GHz"`` or ``"150ms"``.  The
parsers here are strict (unknown suffixes raise ``ValueError``) so that a
typo in an experiment configuration fails loudly instead of silently
producing a wrong workload.
"""

from __future__ import annotations

import functools
import math
import re

__all__ = [
    "parse_bytes",
    "format_bytes",
    "parse_frequency",
    "format_frequency",
    "parse_duration",
    "format_duration",
    "format_number",
]

# Binary multiples: profiles record raw byte counts, and the paper's block
# sizes (4KB ... 64MB) are conventional powers of two.
_BYTE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": 1 << 10,
    "kb": 1 << 10,
    "kib": 1 << 10,
    "m": 1 << 20,
    "mb": 1 << 20,
    "mib": 1 << 20,
    "g": 1 << 30,
    "gb": 1 << 30,
    "gib": 1 << 30,
    "t": 1 << 40,
    "tb": 1 << 40,
    "tib": 1 << 40,
}

_FREQ_SUFFIXES = {
    "hz": 1.0,
    "khz": 1e3,
    "mhz": 1e6,
    "ghz": 1e9,
}

_TIME_SUFFIXES = {
    "ns": 1e-9,
    "us": 1e-6,
    "ms": 1e-3,
    "s": 1.0,
    "sec": 1.0,
    "m": 60.0,
    "min": 60.0,
    "h": 3600.0,
    "hr": 3600.0,
}

_NUMBER_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def _split(text: str) -> tuple[float, str]:
    match = _NUMBER_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse quantity: {text!r}")
    return float(match.group(1)), match.group(2).lower()


@functools.lru_cache(maxsize=1024)  # every SynapseConfig parses the same few
def parse_bytes(value: str | int | float) -> int:
    """Parse a byte quantity (``"4KB"``, ``"1.5MiB"``, ``4096``) to bytes.

    Integers/floats pass through (rounded); suffixes are binary multiples.
    """
    if isinstance(value, (int, float)):
        if value < 0:
            raise ValueError("byte quantity must be non-negative")
        return int(round(value))
    number, suffix = _split(value)
    if suffix not in _BYTE_SUFFIXES:
        raise ValueError(f"unknown byte suffix {suffix!r} in {value!r}")
    result = number * _BYTE_SUFFIXES[suffix]
    if result < 0:
        raise ValueError("byte quantity must be non-negative")
    return int(round(result))


def format_bytes(num: float) -> str:
    """Render a byte count with a binary suffix (``4.0KB``, ``64.0MB``)."""
    num = float(num)
    sign = "-" if num < 0 else ""
    num = abs(num)
    for suffix, factor in (("TB", 1 << 40), ("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10)):
        if num >= factor:
            return f"{sign}{num / factor:.1f}{suffix}"
    return f"{sign}{num:.0f}B"


def parse_frequency(value: str | int | float) -> float:
    """Parse a frequency (``"2.7GHz"``, ``"10Hz"``, ``2.5e9``) to Hz."""
    if isinstance(value, (int, float)):
        if value <= 0:
            raise ValueError("frequency must be positive")
        return float(value)
    number, suffix = _split(value)
    if suffix not in _FREQ_SUFFIXES:
        raise ValueError(f"unknown frequency suffix {suffix!r} in {value!r}")
    result = number * _FREQ_SUFFIXES[suffix]
    if result <= 0:
        raise ValueError("frequency must be positive")
    return result


def format_frequency(hz: float) -> str:
    """Render a frequency in the largest convenient SI unit."""
    hz = float(hz)
    for suffix, factor in (("GHz", 1e9), ("MHz", 1e6), ("kHz", 1e3)):
        if abs(hz) >= factor:
            return f"{hz / factor:.2f}{suffix}"
    return f"{hz:.2f}Hz"


def parse_duration(value: str | int | float) -> float:
    """Parse a duration (``"150ms"``, ``"2min"``, ``1.5``) to seconds."""
    if isinstance(value, (int, float)):
        if value < 0:
            raise ValueError("duration must be non-negative")
        return float(value)
    number, suffix = _split(value)
    if suffix == "":
        suffix = "s"
    if suffix not in _TIME_SUFFIXES:
        raise ValueError(f"unknown duration suffix {suffix!r} in {value!r}")
    result = number * _TIME_SUFFIXES[suffix]
    if result < 0:
        raise ValueError("duration must be non-negative")
    return result


def format_duration(seconds: float) -> str:
    """Render a duration compactly (``1.50ms``, ``12.3s``, ``4.2min``)."""
    seconds = float(seconds)
    if not math.isfinite(seconds):
        return str(seconds)
    sign = "-" if seconds < 0 else ""
    seconds = abs(seconds)
    if seconds >= 120.0:
        return f"{sign}{seconds / 60.0:.1f}min"
    if seconds >= 1.0:
        return f"{sign}{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{sign}{seconds * 1e3:.2f}ms"
    if seconds >= 1e-6:
        return f"{sign}{seconds * 1e6:.2f}us"
    return f"{sign}{seconds * 1e9:.1f}ns"


def format_number(value: float) -> str:
    """Render a count in engineering notation (``1.10e+12`` style for big)."""
    value = float(value)
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 1e-3:
        return f"{value:.3g}"
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"
