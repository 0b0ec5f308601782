import struct

import numpy as np
import pytest

from femba import container as ct


def sample_container():
    c = ct.Container()
    c.add("a.f32", ct.DT_F32, np.arange(12, dtype=np.float32).reshape(3, 4))
    c.add("b.i8", ct.DT_I8, np.arange(-5, 5, dtype=np.int8))
    c.add("c.i32", ct.DT_I32, np.array([2**30, -5], dtype=np.int32))
    c.add("d.q15", ct.DT_Q15, np.array([-32768, 0, 32767], dtype=np.int16))
    c.add("e.t2", ct.DT_T2, np.array([0x55555555, 0xA4], dtype=np.uint32),
          dims=(2, 10))
    return c


def test_round_trip_byte_identical(tmp_path):
    c = sample_container()
    blob = c.tobytes()
    c2 = ct.Container.frombytes(blob)
    assert c2.tobytes() == blob
    path = tmp_path / "x.fmbc"
    c2.save(path)
    assert ct.Container.load(path).tobytes() == blob


def test_entry_contents_preserved():
    c = ct.Container.frombytes(sample_container().tobytes())
    np.testing.assert_array_equal(c.array("a.f32"),
                                  np.arange(12, dtype=np.float32).reshape(3, 4))
    np.testing.assert_array_equal(c.array("b.i8"), np.arange(-5, 5))
    assert c.get("e.t2").dims == (2, 10)
    np.testing.assert_array_equal(c.get("e.t2").data, [0x55555555, 0xA4])


def test_bad_magic_rejected():
    blob = bytearray(sample_container().tobytes())
    blob[0] = ord("X")
    with pytest.raises(ct.FormatError, match="magic"):
        ct.Container.frombytes(bytes(blob))


def test_crc_detects_corruption():
    c = sample_container()
    blob = bytearray(c.tobytes())
    # flip one payload byte (past the table); CRC must catch it
    blob[-20] ^= 0xFF
    with pytest.raises(ct.FormatError, match="CRC"):
        ct.Container.frombytes(bytes(blob))


def test_truncated_rejected():
    blob = sample_container().tobytes()
    with pytest.raises(ct.FormatError):
        ct.Container.frombytes(blob[: len(blob) // 2])


def test_bad_entry_name_rejected():
    blob = bytearray(sample_container().tobytes())
    assert blob[12:17] == b"a.f32"  # first name, after the header and its length
    blob[12] = 0xFF  # never valid in UTF-8
    with pytest.raises(ct.FormatError, match="UTF-8"):
        ct.Container.frombytes(bytes(blob))


def test_duplicate_entry_name_rejected():
    """Two entries of one name would load as one, the later payload winning."""
    blob = sample_container().tobytes()
    assert blob.count(b"c.i32") == 1 and len(b"c.i32") == len(b"a.f32")
    with pytest.raises(ct.FormatError, match="duplicate name"):
        ct.Container.frombytes(blob.replace(b"c.i32", b"a.f32"))


@pytest.mark.parametrize("kind", [1, 2])
def test_scale_kind_rejected(kind):
    """Entries carry no scale block; the retired kinds 1 (per-channel f32)
    and 2 (power-of-two exponent) are format errors."""
    blob = bytearray(sample_container().tobytes())
    at = 10 + 2 + len("a.f32") + 2 + 4 * 2  # the first entry's scale-kind byte
    assert blob[at] == 0
    blob[at] = kind
    with pytest.raises(ct.FormatError, match="scale kind"):
        ct.Container.frombytes(bytes(blob))


def test_dims_payload_mismatch_rejected():
    c = ct.Container()
    with pytest.raises(ct.FormatError):
        c.add("x", ct.DT_F32, np.zeros(3, dtype=np.float32), dims=(4,))


def test_t2_word_count_checked_by_add():
    """20 ternary weights take two words; the parser rejects any other
    count, so the writer does too."""
    c = ct.Container()
    for words in (1, 3):
        with pytest.raises(ct.FormatError, match="imply 8 B"):
            c.add("t", ct.DT_T2, np.zeros(words, dtype=np.uint32), dims=(2, 10))
    c.add("t", ct.DT_T2, np.zeros(2, dtype=np.uint32), dims=(2, 10))


def test_payload_size_rule():
    assert ct.payload_size(ct.DT_F32, (3, 4)) == 48
    assert ct.payload_size(ct.DT_I8, (10,)) == 10
    assert ct.payload_size(ct.DT_Q15, (3,)) == 6
    assert ct.payload_size(ct.DT_I32, ()) == 4
    assert [ct.payload_size(ct.DT_T2, (n,)) for n in (0, 1, 16, 17, 32)] == [0, 4, 4, 8, 8]
    assert ct.payload_size(ct.DT_T2, (2, 10)) == ct.payload_size(ct.DT_T2, (20,))


def test_wrapped_dims_rejected():
    """The dims' product is 2^64, which an int64 product wraps to 0, the
    element count of an empty payload."""
    c = ct.Container()
    c.entries["w"] = ct.Entry("w", ct.DT_F32, (65536,) * 4, np.zeros(0, dtype=np.float32))
    with pytest.raises(ct.FormatError, match="imply"):
        ct.Container.frombytes(c.tobytes())


def test_stray_payload_byte_rejected():
    """A q15 payload of 7 bytes holds 3 elements and one stray byte; the
    region has room for it, as the next entry starts at an 8-byte boundary."""
    blob = bytearray(sample_container().tobytes())
    at = blob.index(b"d.q15") + len(b"d.q15") + 2 + 4 + 1 + 8  # its payload length
    assert struct.unpack_from("<Q", blob, at) == (6,)
    struct.pack_into("<Q", blob, at, 7)
    with pytest.raises(ct.FormatError, match="payload of 7 B"):
        ct.Container.frombytes(bytes(blob))


def test_missing_entry():
    c = sample_container()
    with pytest.raises(ct.FormatError):
        c.get("nope")


def test_recording_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.normal(0, 10, size=(22, 5000)).astype(np.float32)
    path = tmp_path / "rec.sig"
    ct.write_recording(path, samples, 512.0)
    back, rate = ct.read_recording(path)
    assert rate == 512.0
    np.testing.assert_allclose(back, samples, rtol=0, atol=0)


def test_recording_bad_magic(tmp_path):
    path = tmp_path / "bad.sig"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 100)
    with pytest.raises(ct.FormatError, match="at byte 0"):
        ct.read_recording(path)


def test_recording_truncated_payload(tmp_path):
    path = tmp_path / "trunc.sig"
    ct.write_recording(path, np.zeros((2, 100), dtype=np.float32), 256.0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(ct.FormatError):
        ct.read_recording(path)
