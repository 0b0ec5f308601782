"""Binary container formats: tensor containers (FMBC) and raw recordings (FEMB-SIG).

All fields little-endian. The tensor container holds named, typed payloads and
a trailing CRC32 over the payload region, so a write -> read -> write cycle is
byte-identical. Entry names are unique: the parser rejects a repeated name
rather than let one payload replace another. Each entry keeps a scale-kind
byte, always 0 (no scale block); the parser rejects any other value. An
entry's payload is exactly `payload_size(dtype, dims)` bytes, in both the
writer and the parser: `DTYPES` gives each dtype's bits per element and
storage word.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"FMBC"
VERSION = 1

# dtype tags
DT_F32 = 0
DT_I8 = 1
DT_T2 = 2  # ternary, 16 two-bit fields per 32-bit word
DT_Q15 = 3  # 16-bit fixed point
DT_I32 = 4


@dataclass(frozen=True)
class DType:
    """How a dtype tag is stored: ``bits`` per logical element, packed
    into little-endian words of numpy dtype ``np``."""
    np: np.dtype
    name: str
    bits: int


DTYPES = {
    DT_F32: DType(np.dtype("<f4"), "f32", 32),
    DT_I8: DType(np.dtype("i1"), "i8", 8),
    DT_T2: DType(np.dtype("<u4"), "t2", 2),
    DT_Q15: DType(np.dtype("<i2"), "q15", 16),
    DT_I32: DType(np.dtype("<i4"), "i32", 32),
}


def payload_size(dtype: int, dims) -> int:
    """Bytes of the payload of an entry of ``dtype`` and logical ``dims``:
    the elements' bits rounded up to whole words (exact in Python ints, so
    no product of dims wraps)."""
    dt = DTYPES[dtype]
    word_bits = 8 * dt.np.itemsize
    return -(-math.prod(dims) * dt.bits // word_bits) * dt.np.itemsize


_ALIGN = 8


class FormatError(Exception):
    """Malformed or corrupt container/recording input."""


@dataclass
class Entry:
    name: str
    dtype: int
    dims: tuple[int, ...]
    data: np.ndarray  # stored dtype, flat or shaped

    def payload_bytes(self) -> bytes:
        arr = np.ascontiguousarray(self.data, dtype=DTYPES[self.dtype].np)
        return arr.tobytes()


@dataclass
class Container:
    entries: dict[str, Entry] = field(default_factory=dict)

    def add(self, name, dtype, data, dims=None):
        """Add ``data``, the stored words (for t2 the packed words), under
        the logical ``dims`` (default: the array's shape)."""
        data = np.asarray(data)
        if dims is None:
            dims = data.shape if data.shape else (1,)
        dims = tuple(int(d) for d in dims)
        payload = np.ascontiguousarray(data, dtype=DTYPES[dtype].np)
        want = payload_size(dtype, dims)
        if payload.nbytes != want:
            raise FormatError(
                f"entry {name!r}: payload of {payload.nbytes} B, dims {dims} imply {want} B")
        e = Entry(name=name, dtype=dtype, dims=dims, data=payload)
        self.entries[name] = e
        return e

    def get(self, name) -> Entry:
        if name not in self.entries:
            raise FormatError(f"missing container entry {name!r}")
        return self.entries[name]

    def array(self, name) -> np.ndarray:
        """Entry payload reshaped to its dims (not valid for t2-packed entries)."""
        e = self.get(name)
        if e.dtype == DT_T2:
            raise FormatError(f"entry {name!r} is ternary-packed; use .data/.dims")
        return np.asarray(e.data).reshape(e.dims)

    def tobytes(self) -> bytes:
        names = list(self.entries)
        payloads = [self.entries[n].payload_bytes() for n in names]

        # lay out payload region with 8-byte alignment
        offsets, lengths = [], []
        pos = 0
        for p in payloads:
            pad = (-pos) % _ALIGN
            pos += pad
            offsets.append(pos)
            lengths.append(len(p))
            pos += len(p)

        table = bytearray()
        table += struct.pack("<4sHI", MAGIC, VERSION, len(names))
        for name, e, off, ln in zip(names, (self.entries[n] for n in names), offsets, lengths):
            nb = name.encode("utf-8")
            table += struct.pack("<H", len(nb)) + nb
            table += struct.pack("<BB", e.dtype, len(e.dims))
            table += struct.pack(f"<{len(e.dims)}I", *e.dims)
            table += struct.pack("<BQQ", 0, off, ln)  # scale kind 0, then the payload span

        region = bytearray(pos)
        for p, off in zip(payloads, offsets):
            region[off:off + len(p)] = p
        crc = zlib.crc32(bytes(region)) & 0xFFFFFFFF
        return bytes(table) + bytes(region) + struct.pack("<I", crc)

    @classmethod
    def frombytes(cls, blob: bytes) -> "Container":
        try:
            return cls._parse(blob)
        except struct.error as exc:
            raise FormatError(f"truncated container: {exc}") from exc

    @classmethod
    def _parse(cls, blob: bytes) -> "Container":
        if len(blob) < 10:
            raise FormatError("container too short for header (at byte 0)")
        magic, version, n = struct.unpack_from("<4sHI", blob, 0)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} (at byte 0)")
        if version != VERSION:
            raise FormatError(f"unsupported container version {version} (at byte 4)")
        pos = 10
        metas, names = [], set()
        for _ in range(n):
            (nlen,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            try:
                name = blob[pos:pos + nlen].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"entry name is not UTF-8: {exc} (at byte {pos})") from exc
            if name in names:
                raise FormatError(f"entry {name!r}: duplicate name (at byte {pos})")
            names.add(name)
            pos += nlen
            dtype, rank = struct.unpack_from("<BB", blob, pos)
            pos += 2
            dims = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            skind, off, ln = struct.unpack_from("<BQQ", blob, pos)
            if skind != 0:
                raise FormatError(f"entry {name!r}: scale kind {skind}, only 0 (none) "
                                  f"is supported (at byte {pos})")
            pos += 17
            if dtype not in DTYPES:
                raise FormatError(f"entry {name!r}: unknown dtype tag {dtype}")
            metas.append((name, dtype, dims, off, ln))

        region = blob[pos:len(blob) - 4]
        (crc_stored,) = struct.unpack_from("<I", blob, len(blob) - 4)
        if zlib.crc32(region) & 0xFFFFFFFF != crc_stored:
            raise FormatError(f"payload CRC mismatch (at byte {len(blob) - 4})")

        c = cls()
        seen = []
        for name, dtype, dims, off, ln in metas:
            if off + ln > len(region):
                raise FormatError(f"entry {name!r}: payload out of range (at byte {pos + off})")
            for o2, l2 in seen:
                if off < o2 + l2 and o2 < off + ln:
                    raise FormatError(f"entry {name!r}: overlapping payload")
            seen.append((off, ln))
            want = payload_size(dtype, dims)
            if ln != want:
                raise FormatError(
                    f"entry {name!r}: payload of {ln} B, dims {dims} imply {want} B")
            dt = DTYPES[dtype].np
            data = np.frombuffer(region, dtype=dt, count=ln // dt.itemsize, offset=off).copy()
            c.entries[name] = Entry(name=name, dtype=dtype, dims=tuple(dims), data=data)
        return c

    def save(self, path):
        with open(path, "wb") as f:
            f.write(self.tobytes())

    @classmethod
    def load(cls, path) -> "Container":
        with open(path, "rb") as f:
            return cls.frombytes(f.read())


# ---------------------------------------------------------------------------
# raw recording stream: "FEMB-SIG" header + channel-major float32 samples

SIG_MAGIC = b"FEMB-SIG"
SIG_VERSION = 1
_SIG_HDR = struct.Struct("<8sHHfQ")  # magic, version, channels, rate, samples/channel


def write_recording(path, samples: np.ndarray, sample_rate_hz: float):
    """samples: (channels, n) float array, written channel-major as float32."""
    samples = np.asarray(samples, dtype=np.float32)
    if samples.ndim != 2:
        raise FormatError("recording must be a (channels, samples) array")
    with open(path, "wb") as f:
        f.write(_SIG_HDR.pack(SIG_MAGIC, SIG_VERSION, samples.shape[0],
                              float(sample_rate_hz), samples.shape[1]))
        f.write(np.ascontiguousarray(samples, dtype="<f4").tobytes())


def read_recording(path) -> tuple[np.ndarray, float]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _SIG_HDR.size:
        raise FormatError("recording too short for header (at byte 0)")
    magic, version, channels, rate, length = _SIG_HDR.unpack_from(blob, 0)
    if magic != SIG_MAGIC:
        raise FormatError(f"bad recording magic {magic!r} (at byte 0)")
    if version != SIG_VERSION:
        raise FormatError(f"unsupported recording version {version} (at byte 8)")
    if channels < 1 or not 0 < rate < math.inf:
        raise FormatError("invalid recording header (at byte 10)")
    got, want = len(blob) - _SIG_HDR.size, 4 * channels * length
    if got != want:
        raise FormatError(f"recording payload has {got} bytes, header implies {want} "
                          f"(at byte {_SIG_HDR.size})")
    data = np.frombuffer(blob, dtype="<f4", offset=_SIG_HDR.size)
    return data.reshape(channels, length).astype(np.float64), float(rate)
