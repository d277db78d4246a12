"""Versioned binary wire format for client updates.

Little-endian layout:

    magic   "FCSP"      4 bytes
    version u16         (currently 1)
    client_id u32
    round   u32
    pack    u32
    entry_count u32
    per entry:
        package_index u32
        theta f32
        beta  f32
        len   u32
        payload len * f32

Total length is 22 + sum(16 + 4*len) over entries; the traffic metric is
defined as the sum of these encoded lengths, never an estimate.

Decoded payloads are read-only views of the received buffer, not copies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError

MAGIC = b"FCSP"
VERSION = 1
HEADER_LEN = 22
ENTRY_OVERHEAD = 16


@dataclass(frozen=True)
class UpdateEntry:
    package_index: int
    theta: float
    beta: float
    payload: np.ndarray  # float32

    def __eq__(self, other):
        return (
            self.package_index == other.package_index
            and np.float32(self.theta) == np.float32(other.theta)
            and np.float32(self.beta) == np.float32(other.beta)
            and np.array_equal(
                np.asarray(self.payload, dtype=np.float32),
                np.asarray(other.payload, dtype=np.float32),
            )
        )


@dataclass(frozen=True)
class PackedUpdate:
    client_id: int
    round: int
    pack: int
    entries: tuple[UpdateEntry, ...]

    def __post_init__(self):
        idx = [e.package_index for e in self.entries]
        if idx != sorted(set(idx)):
            raise ValueError("entries must be sorted by package_index without duplicates")

    def encoded_length(self) -> int:
        return HEADER_LEN + sum(ENTRY_OVERHEAD + 4 * len(e.payload) for e in self.entries)


def encode_update(u: PackedUpdate) -> bytes:
    parts = [
        MAGIC,
        struct.pack("<HIIII", VERSION, u.client_id, u.round, u.pack, len(u.entries)),
    ]
    for e in u.entries:
        payload = np.asarray(e.payload, dtype="<f4")
        parts.append(struct.pack("<IffI", e.package_index, e.theta, e.beta, len(payload)))
        parts.append(payload.tobytes())
    return b"".join(parts)


def decode_update(buf: bytes) -> PackedUpdate:
    if len(buf) < 4 or buf[:4] != MAGIC:
        raise DecodeError("bad magic", 0)
    if len(buf) < HEADER_LEN:
        raise DecodeError("truncated header", len(buf))
    version, client_id, round_, pack, entry_count = struct.unpack_from("<HIIII", buf, 4)
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}", 4)
    # payloads are slices of one read-only byte view of the blob: no copy,
    # and no buffer export per entry
    blob = np.frombuffer(buf, dtype=np.uint8)
    blob.flags.writeable = False
    off = HEADER_LEN
    entries = []
    prev_index = -1
    for _ in range(entry_count):
        if off + ENTRY_OVERHEAD > len(buf):
            raise DecodeError("truncated entry header", off)
        package_index, theta, beta, length = struct.unpack_from("<IffI", buf, off)
        off += ENTRY_OVERHEAD
        if off + 4 * length > len(buf):
            raise DecodeError("truncated payload", off)
        if package_index <= prev_index:
            raise DecodeError("unsorted entries", off - ENTRY_OVERHEAD)
        prev_index = package_index
        payload = blob[off : off + 4 * length].view("<f4")
        off += 4 * length
        entries.append(UpdateEntry(package_index, theta, beta, payload))
    if off != len(buf):
        raise DecodeError("trailing bytes", off)
    return PackedUpdate(client_id=client_id, round=round_, pack=pack, entries=tuple(entries))
