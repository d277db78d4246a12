"""Versioned binary wire format for client updates.

Little-endian layout, version 2 (the entry table as arrays, then one
payload block):

    magic   "FCSP"      4 bytes
    version u16         (currently 2)
    client_id u32
    round   u32
    pack    u32
    entry count n u32
    packages u32[n]     strictly ascending
    theta    f32[n]
    beta     f32[n]
    lengths  u32[n]
    payload  f32[sum(lengths)], entry after entry

Total length is 22 + 16*n + 4*sum(lengths), the same as version 1's
per-entry layout; the traffic metric is defined as the sum of these
encoded lengths, never an estimate.

Decoded arrays are read-only views of the received buffer, not copies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError

MAGIC = b"FCSP"
VERSION = 2
_HEADER = struct.Struct("<4sHIIII")
# the entry table, column by column, in wire order
_TABLE = (("packages", "<u4"), ("theta", "<f4"), ("beta", "<f4"), ("lengths", "<u4"))
HEADER_LEN = _HEADER.size
ENTRY_OVERHEAD = sum(np.dtype(dtype).itemsize for _, dtype in _TABLE)


@dataclass(frozen=True, eq=False)
class UpdateEntry:
    """One entry of a PackedUpdate, as `PackedUpdate.entries` returns it."""

    package_index: int
    theta: float
    beta: float
    payload: np.ndarray  # float32


@dataclass(frozen=True, eq=False)
class PackedUpdate:
    """One update as the codec writes and reads it: per entry a package
    index, theta, beta and payload length, and all payloads in one array,
    entry after entry."""

    client_id: int
    round: int
    pack: int
    packages: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    lengths: np.ndarray
    payload: np.ndarray

    def __post_init__(self):
        if (self.packages[1:] <= self.packages[:-1]).any():
            raise ValueError("packages must be strictly ascending")

    def encoded_length(self) -> int:
        return HEADER_LEN + ENTRY_OVERHEAD * len(self.packages) + 4 * len(self.payload)

    @property
    def entries(self) -> tuple[UpdateEntry, ...]:
        """Per-entry views of the update.  Kept only for perfbench/run.py,
        which reads `len(u.entries)` and `u.entries[0].payload`, until
        ROADMAP item 3 moves that harness onto the run's own record."""
        payloads = np.split(self.payload, np.cumsum(self.lengths)[:-1])
        columns = (self.packages.tolist(), self.theta.tolist(), self.beta.tolist(), payloads)
        return tuple(map(UpdateEntry, *columns))


def encode_update(u: PackedUpdate) -> bytearray:
    """The wire bytes of `u`, written as given: the payload is not checked
    against the lengths."""
    n = len(u.packages)
    buf = bytearray(u.encoded_length())
    _HEADER.pack_into(buf, 0, MAGIC, VERSION, u.client_id, u.round, u.pack, n)
    for k, (name, dtype) in enumerate(_TABLE):
        np.frombuffer(buf, dtype, n, HEADER_LEN + 4 * n * k)[:] = getattr(u, name)
    np.frombuffer(buf, "<f4", len(u.payload), HEADER_LEN + ENTRY_OVERHEAD * n)[:] = u.payload
    return buf


def decode_update(buf: bytes | bytearray) -> PackedUpdate:
    size = len(buf)
    if size < 4 or buf[:4] != MAGIC:
        raise DecodeError("bad magic", 0)
    if size < HEADER_LEN:
        raise DecodeError("truncated header", size)
    _, version, client_id, round_, pack, n = _HEADER.unpack_from(buf)
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}", 4)
    # checked before any view is made: n may be as large as 2**32 - 1
    if HEADER_LEN + ENTRY_OVERHEAD * n > size:
        raise DecodeError("truncated entry table", HEADER_LEN)
    # every array is a slice of one read-only byte view of the blob
    blob = np.frombuffer(buf, dtype=np.uint8)
    blob.flags.writeable = False
    off = HEADER_LEN + ENTRY_OVERHEAD * n
    columns = blob[HEADER_LEN:off].reshape(len(_TABLE), 4 * n)
    table = {name: column.view(dtype) for (name, dtype), column in zip(_TABLE, columns)}
    packages = table["packages"]
    if (packages[1:] <= packages[:-1]).any():
        raise DecodeError("unsorted packages", HEADER_LEN)
    end = off + 4 * int(table["lengths"].sum(dtype=np.int64))
    if end > size:
        raise DecodeError("truncated payload", off)
    if end != size:
        raise DecodeError("trailing bytes", end)
    return PackedUpdate(client_id, round_, pack, payload=blob[off:end].view("<f4"), **table)
