"""Hand-written on-disk states for the FileStore tests.

Nothing here calls into the product's write path: the v1 layout is what
stores written before segments look like, and the damage helpers edit
stored bytes the way bit rot would.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

V1_INDEX_NAME = "index.jsonl"


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
    rows = json.loads(index_line)
    return rows, [data[r["offset"]:r["offset"] + r["length"]] for r in rows]


def damage_record(root, pid: str, old: bytes, new: bytes) -> Path:
    """Swap ``old`` for same-length ``new`` inside one stored record.

    Works on both layouts: the record of a segment id ``<segment>/<n>``
    sits before the segment's index line (so the first occurrence is the
    record's), a v1 id ``<group>/<file>.json`` is the file itself.
    """
    assert len(old) == len(new)
    path = Path(root) / pid
    if not path.is_file():
        path = path.parent
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    return path


def write_v1(root, profiles, sums: bool = True, journal: bool = True) -> list[str]:
    """Store ``profiles`` in the v1 layout by hand; returns their ids.

    One directory per ``(command, tags)`` key, one ``*.json`` payload per
    profile, one ``index.jsonl`` line per profile (``sums=False``: the
    lines predate the ``sum`` field; ``journal=False``: no journal).
    """
    root = Path(root)
    ids = []
    for seq, profile in enumerate(profiles, 1):
        key = json.dumps([profile.command, list(profile.tags)]).encode("utf-8")
        group = root / hashlib.sha256(key).hexdigest()[:16]
        group.mkdir(parents=True, exist_ok=True)
        name = f"{int(profile.created * 1e9):020d}-v1writer-{seq:06d}.json"
        data = json.dumps(profile.to_dict()).encode("utf-8")
        (group / name).write_bytes(data)
        pid = f"{group.name}/{name}"
        row = {
            "id": pid, "command": profile.command,
            "tags": list(profile.tags), "created": profile.created,
        }
        if sums:
            row["sum"] = hashlib.blake2b(data, digest_size=16).hexdigest()
        if journal:
            with open(group / V1_INDEX_NAME, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(row) + "\n")
        ids.append(pid)
    return ids


def build_segment(profiles) -> bytes:
    """The bytes of a complete segment holding ``profiles``, by hand."""
    body, rows = b"", []
    for profile in profiles:
        data = json.dumps(profile.to_dict()).encode("utf-8")
        rows.append({
            "command": profile.command, "tags": list(profile.tags),
            "created": profile.created,
            "sum": hashlib.blake2b(data, digest_size=16).hexdigest(),
            "offset": len(body), "length": len(data),
        })
        body += data + b"\n"
    index_line = json.dumps(rows).encode("utf-8") + b"\n"
    return body + index_line + b"synapse-segment-index@%020d\n" % len(body)
