"""Binary container formats: tensor containers (FMBC) and raw recordings (FEMB-SIG).

All fields little-endian. The tensor container holds named, typed payloads with
optional per-channel scale metadata and a trailing CRC32 over the payload
region, so a write -> read -> write cycle is byte-identical.
"""

from __future__ import annotations

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

_DTYPE_NP = {
    DT_F32: np.dtype("<f4"),
    DT_I8: np.dtype("i1"),
    DT_T2: np.dtype("<u4"),
    DT_Q15: np.dtype("<i2"),
    DT_I32: np.dtype("<i4"),
}

# scale-block kinds
SCALE_NONE = 0
SCALE_PER_CHANNEL_F32 = 1
SCALE_POW2_EXP = 2

_ALIGN = 8


class FormatError(Exception):
    """Malformed or corrupt container/recording input."""


@dataclass
class Entry:
    name: str
    dtype: int
    dims: tuple[int, ...]
    data: np.ndarray  # stored dtype, flat or shaped
    scale_kind: int = SCALE_NONE
    scales: np.ndarray | None = None  # f32 array for per-channel, else None
    pow2_exp: int | None = None  # for SCALE_POW2_EXP

    def payload_bytes(self) -> bytes:
        arr = np.ascontiguousarray(self.data, dtype=_DTYPE_NP[self.dtype])
        return arr.tobytes()


@dataclass
class Container:
    entries: dict[str, Entry] = field(default_factory=dict)

    def add(self, name, dtype, data, dims=None, scale_kind=SCALE_NONE,
            scales=None, pow2_exp=None):
        data = np.asarray(data)
        if dims is None:
            dims = data.shape if data.shape else (1,)
        if dtype == DT_T2:
            # packed payload: dims describe the logical tensor, payload is words
            payload = np.ascontiguousarray(data, dtype=np.uint32)
        else:
            payload = np.ascontiguousarray(data, dtype=_DTYPE_NP[dtype])
            expected = int(np.prod(dims))
            if payload.size != expected:
                raise FormatError(
                    f"entry {name!r}: payload has {payload.size} elements, dims imply {expected}")
        e = Entry(name=name, dtype=dtype, dims=tuple(int(d) for d in dims),
                  data=payload, scale_kind=scale_kind,
                  scales=None if scales is None else np.asarray(scales, dtype=np.float32),
                  pow2_exp=pow2_exp)
        self.entries[name] = e
        return e

    def __contains__(self, name):
        return name in self.entries

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
            table += struct.pack("<B", e.scale_kind)
            if e.scale_kind == SCALE_PER_CHANNEL_F32:
                sc = np.ascontiguousarray(e.scales, dtype="<f4")
                table += struct.pack("<I", sc.size) + sc.tobytes()
            elif e.scale_kind == SCALE_POW2_EXP:
                table += struct.pack("<b", int(e.pow2_exp))
            table += struct.pack("<QQ", off, ln)

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
        metas = []
        for _ in range(n):
            (nlen,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            try:
                name = blob[pos:pos + nlen].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"entry name is not UTF-8: {exc} (at byte {pos})") from exc
            pos += nlen
            dtype, rank = struct.unpack_from("<BB", blob, pos)
            pos += 2
            dims = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            (skind,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            scales = None
            pow2 = None
            if skind == SCALE_PER_CHANNEL_F32:
                (cnt,) = struct.unpack_from("<I", blob, pos)
                pos += 4
                scales = np.frombuffer(blob, dtype="<f4", count=cnt, offset=pos).copy()
                pos += 4 * cnt
            elif skind == SCALE_POW2_EXP:
                (pow2,) = struct.unpack_from("<b", blob, pos)
                pos += 1
            elif skind != SCALE_NONE:
                raise FormatError(f"entry {name!r}: unknown scale kind {skind} (at byte {pos - 1})")
            off, ln = struct.unpack_from("<QQ", blob, pos)
            pos += 16
            if dtype not in _DTYPE_NP:
                raise FormatError(f"entry {name!r}: unknown dtype tag {dtype}")
            metas.append((name, dtype, dims, skind, scales, pow2, off, ln))

        region = blob[pos:len(blob) - 4]
        (crc_stored,) = struct.unpack_from("<I", blob, len(blob) - 4)
        if zlib.crc32(region) & 0xFFFFFFFF != crc_stored:
            raise FormatError(f"payload CRC mismatch (at byte {len(blob) - 4})")

        c = cls()
        seen = []
        for name, dtype, dims, skind, scales, pow2, off, ln in metas:
            if off + ln > len(region):
                raise FormatError(f"entry {name!r}: payload out of range (at byte {pos + off})")
            for o2, l2 in seen:
                if off < o2 + l2 and o2 < off + ln:
                    raise FormatError(f"entry {name!r}: overlapping payload")
            seen.append((off, ln))
            np_dt = _DTYPE_NP[dtype]
            count = ln // np_dt.itemsize
            logical = int(np.prod(dims)) if dims else 1
            if dtype == DT_T2:
                want_words = (logical + 15) // 16
                if count != want_words:
                    raise FormatError(
                        f"entry {name!r}: t2 payload {count} words, dims imply {want_words}")
            elif count != logical:
                raise FormatError(
                    f"entry {name!r}: payload {count} elements, dims imply {logical}")
            data = np.frombuffer(region, dtype=np_dt, count=count, offset=off).copy()
            c.entries[name] = Entry(name=name, dtype=dtype, dims=tuple(dims), data=data,
                                    scale_kind=skind, scales=scales, pow2_exp=pow2)
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
    if channels < 1 or rate <= 0:
        raise FormatError("invalid recording header (at byte 10)")
    want = channels * length
    data = np.frombuffer(blob, dtype="<f4", count=-1, offset=_SIG_HDR.size)
    if data.size != want:
        raise FormatError(
            f"recording payload has {data.size} samples, header implies {want} "
            f"(at byte {_SIG_HDR.size})")
    return data.reshape(channels, length).astype(np.float64), float(rate)
