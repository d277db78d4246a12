import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcspack.errors import DecodeError
from fedcspack.wire import ENTRY_OVERHEAD, HEADER_LEN, PackedUpdate, decode_update, encode_update

FIELDS = ("packages", "theta", "beta", "lengths", "payload")


def assert_same_update(got, want):
    """Same header and, field by field, the same values as float32/u32 on
    the wire."""
    assert (got.client_id, got.round, got.pack) == (want.client_id, want.round, want.pack)
    for name, dtype in zip(FIELDS, ("<u4", "<f4", "<f4", "<u4", "<f4")):
        a = np.asarray(getattr(got, name)).astype(dtype)
        b = np.asarray(getattr(want, name)).astype(dtype)
        assert a.tobytes() == b.tobytes(), name


def make_update(client_id=3, round_=5, pack=8, payload_lens=(4,), seed=None):
    """Entries 0..n-1 with the given payload lengths; payloads count up
    from 0 per entry, or are seeded normal draws."""
    n = len(payload_lens)
    rng = np.random.default_rng(seed)
    if seed is None:
        theta, beta = 0.25 * np.arange(n), np.full(n, 0.1)
        parts = [np.arange(m, dtype=np.float32) for m in payload_lens]
    else:
        theta, beta = rng.uniform(-1, 1, size=n), rng.uniform(0, 5, size=n)
        parts = [rng.normal(size=m).astype(np.float32) for m in payload_lens]
    return PackedUpdate(
        client_id=client_id,
        round=round_,
        pack=pack,
        packages=np.arange(n),
        theta=theta.astype(np.float32),
        beta=beta.astype(np.float32),
        lengths=np.array(payload_lens, dtype=np.uint32),
        payload=np.concatenate([np.zeros(0, np.float32), *parts]),
    )


def test_header_only_is_22_bytes():
    u = make_update(payload_lens=())
    assert len(encode_update(u)) == 22


def test_one_entry_len4_is_54_bytes():
    u = make_update(payload_lens=(4,))
    assert len(encode_update(u)) == 22 + 16 + 16 == 54


def test_closed_form_length():
    u = make_update(payload_lens=(4, 7, 1))
    blob = encode_update(u)
    assert len(blob) == HEADER_LEN + sum(ENTRY_OVERHEAD + 4 * n for n in (4, 7, 1))
    assert len(blob) == u.encoded_length()


def test_roundtrip_simple():
    u = make_update(payload_lens=(3, 5))
    assert_same_update(decode_update(encode_update(u)), u)


def test_hand_assembled_blob():
    """The layout spelled out field by field: the header, the four columns
    of the entry table, then the payloads entry after entry."""
    u = PackedUpdate(
        client_id=7,
        round=2,
        pack=3,
        packages=np.array([1, 4]),
        theta=np.array([0.5, -0.25]),
        beta=np.array([0.125, 2.0]),
        lengths=np.array([3, 2]),
        payload=np.array([1.0, 2.0, 3.0, -1.5, 0.0], dtype=np.float32),
    )
    blob = (
        b"FCSP"
        + struct.pack("<HIIII", 2, 7, 2, 3, 2)
        + struct.pack("<II", 1, 4)
        + struct.pack("<ff", 0.5, -0.25)
        + struct.pack("<ff", 0.125, 2.0)
        + struct.pack("<II", 3, 2)
        + struct.pack("<5f", 1.0, 2.0, 3.0, -1.5, 0.0)
    )
    assert encode_update(u) == blob
    assert_same_update(decode_update(blob), u)


def test_version_1_rejected():
    # a version-1 blob: one entry of one value, its header inline
    blob = b"FCSP" + struct.pack("<HIIII", 1, 0, 0, 1, 1) + struct.pack("<IffIf", 0, 1.0, 0.0, 1, 2.0)
    with pytest.raises(DecodeError, match="unsupported version 1 at offset 4"):
        decode_update(blob)


def test_bad_magic():
    blob = bytearray(encode_update(make_update()))
    blob[0] = ord("X")
    with pytest.raises(DecodeError, match="bad magic at offset 0"):
        decode_update(bytes(blob))


def test_bad_version():
    blob = bytearray(encode_update(make_update()))
    blob[4] = 9
    with pytest.raises(DecodeError, match="version"):
        decode_update(bytes(blob))


def test_truncated_payload():
    blob = encode_update(make_update(payload_lens=(4,)))
    with pytest.raises(DecodeError, match="truncated"):
        decode_update(blob[:-5])


def test_short_payload_is_truncated():
    # the payload one value short of what the lengths announce
    u = make_update(payload_lens=(4, 2))
    short = dataclasses.replace(u, payload=u.payload[:-1])
    with pytest.raises(DecodeError, match="truncated payload at offset 54"):
        decode_update(encode_update(short))


def test_huge_entry_count():
    blob = bytearray(encode_update(make_update(payload_lens=(4,))))
    blob[18:22] = struct.pack("<I", 2**32 - 1)
    with pytest.raises(DecodeError, match="truncated entry table at offset 22"):
        decode_update(blob)


def test_unsorted_entries():
    # hand-assemble two entries with descending indices
    header = b"FCSP" + struct.pack("<HIIII", 2, 0, 0, 4, 2)
    table = struct.pack("<IIffffII", 5, 2, 0.0, 0.0, 0.0, 0.0, 0, 0)
    with pytest.raises(DecodeError, match="unsorted"):
        decode_update(header + table)


def test_duplicate_entries_rejected_on_build():
    with pytest.raises(ValueError, match="ascending"):
        PackedUpdate(
            client_id=0,
            round=0,
            pack=4,
            packages=np.array([1, 1]),
            theta=np.zeros(2),
            beta=np.zeros(2),
            lengths=np.array([1, 1]),
            payload=np.zeros(2, dtype=np.float32),
        )


def test_trailing_bytes():
    blob = encode_update(make_update())
    with pytest.raises(DecodeError, match="trailing"):
        decode_update(blob + b"\x00")


def test_entries_view_the_payload():
    u = decode_update(encode_update(make_update(payload_lens=(3, 0, 2))))
    entries = u.entries
    assert [e.package_index for e in entries] == [0, 1, 2]
    assert [e.theta for e in entries] == [0.0, 0.25, 0.5]
    assert [len(e.payload) for e in entries] == [3, 0, 2]
    assert np.array_equal(entries[2].payload, [0.0, 1.0])
    assert all(np.shares_memory(e.payload, u.payload) for e in entries if len(e.payload))


update_strategy = st.builds(
    lambda cid, rnd, pack, lens, seed: make_update(cid, rnd, pack, tuple(lens), seed),
    cid=st.integers(0, 2**32 - 1),
    rnd=st.integers(0, 10_000),
    pack=st.integers(1, 4096),
    lens=st.lists(st.integers(0, 32), max_size=12),
    seed=st.integers(0, 2**31 - 1),
)


@settings(max_examples=200)
@given(update_strategy)
def test_roundtrip_fuzz(u):
    blob = encode_update(u)
    assert len(blob) == u.encoded_length()
    assert_same_update(decode_update(blob), u)


@st.composite
def corrupted_blobs(draw):
    """A valid blob with one corruption: cut at any offset, 1-8 bytes
    appended, any one byte overwritten, or the entry count set to 2**32 - 1."""
    blob = bytearray(encode_update(draw(update_strategy)))
    kind = draw(st.sampled_from(["truncate", "append", "overwrite", "huge_count"]))
    if kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    elif kind == "append":
        blob += draw(st.binary(min_size=1, max_size=8))
    elif kind == "overwrite":
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    else:
        blob[18:22] = struct.pack("<I", 2**32 - 1)
    return bytes(blob)


@settings(max_examples=500)
@given(corrupted_blobs())
def test_corrupted_blob_fuzz(blob):
    """Either a DecodeError, or an update that encodes back to exactly the
    bytes received."""
    try:
        u = decode_update(blob)
    except DecodeError:
        return
    assert encode_update(u) == blob
