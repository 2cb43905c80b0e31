"""Hand-written on-disk states for the FileStore tests.

Nothing here calls into the product's write or read path: the v3 record
coder is written from the format's description with ``struct`` (not
NumPy), a segment's index line can carry any version or be a bare list
(the v2 layout), and the damage helpers edit stored bytes the way bit
rot would.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from pathlib import Path

from repro.core.samples import Profile, Sample


def segment_files(root) -> list[Path]:
    """The segment files under a store root, oldest name first."""
    return sorted(Path(root).glob("*.seg"))


def read_segment(path) -> tuple[list[dict], list[bytes]]:
    """``(index rows, record bytes)`` of one segment, parsed by hand."""
    data = Path(path).read_bytes()
    lines = data.splitlines(keepends=True)
    footer, index_line = lines[-1], lines[-2]
    at = int(footer.rpartition(b"@")[2])
    assert data[at:at + len(index_line)] == index_line
    index = json.loads(index_line)
    assert index["version"] == 3
    rows = index["records"]
    return rows, [data[r["offset"]:r["offset"] + r["length"]] for r in rows]


def _pack(fmt: str, values) -> str:
    values = list(values)
    return base64.b64encode(struct.pack(f"<{len(values)}{fmt}", *values)).decode()


def _unpack(fmt: str, text: str) -> tuple:
    raw = base64.b64decode(text)
    return struct.unpack(f"<{len(raw) // struct.calcsize(fmt)}{fmt}", raw)


def encode_samples(samples: list[dict]) -> dict:
    """The v3 columns object of a list of ``Sample.to_dict`` documents,
    keys in the order the store writes them."""
    metrics = list(dict.fromkeys(name for s in samples for name in s["values"]))
    watchers = list(dict.fromkeys(name for s in samples for name in s["watcher_times"]))

    def cells(key, names):
        return _pack("d", (s[key].get(name, 0.0) for s in samples for name in names))

    def present(key, names):
        return [name in s[key] for s in samples for name in names]

    columns = {
        "metrics": metrics,
        "watchers": watchers,
        "index": _pack("q", (s["index"] for s in samples)),
        "t": _pack("d", (s["t"] for s in samples)),
        "dt": _pack("d", (s["dt"] for s in samples)),
        "values": cells("values", metrics),
        "times": cells("watcher_times", watchers),
    }
    for mask, key, names in (
        ("has_values", "values", metrics), ("has_times", "watcher_times", watchers),
    ):
        if not all(present(key, names)):
            columns[mask] = _pack("B", present(key, names))
    return columns


def decode_record(data: bytes) -> dict:
    """One stored record in its ``to_dict`` shape."""
    doc = json.loads(data)
    columns = doc["samples"]
    samples = [
        {"index": index, "t": t, "dt": dt, "values": {}, "watcher_times": {}}
        for index, t, dt in zip(
            _unpack("q", columns["index"]),
            _unpack("d", columns["t"]),
            _unpack("d", columns["dt"]),
        )
    ]
    for key, names_key, cells_key, mask_key in (
        ("values", "metrics", "values", "has_values"),
        ("watcher_times", "watchers", "times", "has_times"),
    ):
        names = columns[names_key]
        cells = iter(_unpack("d", columns[cells_key]))
        present = iter(
            _unpack("B", columns[mask_key]) if mask_key in columns
            else [1] * len(samples) * len(names)
        )
        for sample in samples:
            for name in names:
                value = next(cells)
                if next(present):
                    sample[key][name] = value
    doc["samples"] = samples
    return doc


def damage_record(root, pid: str, old: bytes, new: bytes) -> Path:
    """Swap ``old`` for same-length ``new`` inside one stored record.

    The record of id ``<segment>/<n>`` sits before the segment's index
    line, so the first occurrence is the record's.
    """
    assert len(old) == len(new)
    path = Path(root) / pid.rpartition("/")[0]
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    return path


def encode_record(profile) -> bytes:
    """The bytes a v3 segment stores ``profile`` as."""
    doc = profile.to_dict()
    doc["samples"] = encode_samples(doc["samples"])
    return json.dumps(doc).encode("utf-8")


def build_segment(profiles, version: int = 3, records=None) -> bytes:
    """The bytes of a complete segment holding ``profiles``, by hand
    (``records``: their bytes, if not :func:`encode_record`'s;
    ``version=2``: the index line a bare list of rows, as v2 wrote it)."""
    if records is None:
        records = [encode_record(profile) for profile in profiles]
    body, rows = b"", []
    for profile, data in zip(profiles, records):
        rows.append({
            "command": profile.command, "tags": list(profile.tags),
            "created": profile.created,
            "sum": hashlib.blake2b(data, digest_size=16).hexdigest(),
            "offset": len(body), "length": len(data),
        })
        body += data + b"\n"
    index = rows if version == 2 else {"version": version, "records": rows}
    index_line = json.dumps(index).encode("utf-8") + b"\n"
    return body + index_line + b"synapse-segment-index@%020d\n" % len(body)


def make_profile(command="app x", tags=("k=1",), n_samples=3, created=None):
    """A small profile: ``n_samples`` one-second samples whose
    ``cpu.cycles_used`` is the sample index (``created`` defaults to
    the profile's own clock)."""
    samples = [
        Sample(index=i, t=float(i), dt=1.0, values={"cpu.cycles_used": float(i)})
        for i in range(n_samples)
    ]
    kwargs = {} if created is None else {"created": created}
    return Profile(command=command, tags=tags, samples=samples, **kwargs)
