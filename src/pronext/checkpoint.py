"""Binary checkpoint format.

Layout (version 2): magic "PNXT", u32 version, u32 record count, then per
record an index entry (u16 name length, UTF-8 name, u8 dtype code, u8 ndim,
ndim x u32 shape, u64 byte offset, u32 CRC32 of the record's bytes), then a
u32 CRC32 of every header byte before it, then the raw little-endian array
data. Offsets are relative to the start of the data section, and the records
follow each other in index order. Strings (config snapshots) ride along as
uint8 arrays. All integers are little-endian; the CRCs are `zlib.crc32`.

Version 1 is the same layout without the two kinds of CRC. It still loads,
through the same reader, with those checks skipped.

`load_arrays` checks the header CRC, then the file size against the index, so
a truncated file fails before any record is read. It reads only the records
it is asked for, each straight into a fresh array, and checks the CRC of each
record it reads: a damaged record that is not read does not stop the others
from loading.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .errors import DataError

MAGIC = b"PNXT"
VERSION = 2

_DTYPE_CODES = {
    np.dtype("float32"): 0,
    np.dtype("float64"): 1,
    np.dtype("int64"): 2,
    np.dtype("uint64"): 3,
    np.dtype("uint8"): 4,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def save_arrays(path, arrays):
    """Write a name -> ndarray mapping; keys must be unique strings."""
    header = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    payloads = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise DataError(f"checkpoint: unsupported dtype {arr.dtype} for '{name}'")
        # a flat byte view of the array: no copy on a little-endian machine
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        payload = little.reshape(-1).view(np.uint8)
        raw = name.encode("utf-8")
        header.append(struct.pack(f"<H{len(raw)}sBB{arr.ndim}IQI", len(raw), raw,
                                  _DTYPE_CODES[arr.dtype], arr.ndim, *arr.shape,
                                  offset, zlib.crc32(payload)))
        payloads.append(payload)
        offset += payload.nbytes
    header = b"".join(header)

    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<I", zlib.crc32(header)))
        for payload in payloads:
            fh.write(payload)


class _HeaderReader:
    """Reads header fields, keeping every byte for the header CRC."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.raw = bytearray()

    def read(self, n):
        raw = self.fh.read(n)
        if len(raw) != n:
            raise DataError(f"{self.path}: truncated checkpoint header")
        self.raw += raw
        return raw

    def unpack(self, fmt):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def _read_index(fh, path):
    """Parse and check the header. Returns [(name, dtype, shape, byte offset
    in the file, byte count, CRC or None)]."""
    hdr = _HeaderReader(fh, path)
    if fh.read(4) != MAGIC:
        raise DataError(f"{path}: not a PNXT checkpoint")
    hdr.raw += MAGIC
    version, count = hdr.unpack("<II")
    if version not in (1, VERSION):
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    checked = version >= 2
    index = []
    for _ in range(count):
        (name_len,) = hdr.unpack("<H")
        try:
            name = hdr.read(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: record name is not UTF-8") from None
        code, ndim = hdr.unpack("<BB")
        shape = hdr.unpack(f"<{ndim}I")
        (offset,) = hdr.unpack("<Q")
        crc = hdr.unpack("<I")[0] if checked else None
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise DataError(f"{path}: unknown dtype code {code} for '{name}'")
        index.append((name, dtype, shape, offset, math.prod(shape) * dtype.itemsize, crc))
    if checked:
        expected = zlib.crc32(hdr.raw)
        if hdr.unpack("<I")[0] != expected:
            raise DataError(f"{path}: checkpoint header checksum mismatch")

    data_start = len(hdr.raw)
    size = os.fstat(fh.fileno()).st_size
    if data_start + max((off + n for _, _, _, off, n, _ in index), default=0) > size:
        raise DataError(f"{path}: truncated checkpoint data")
    return [(name, dtype, shape, data_start + off, n, crc)
            for name, dtype, shape, off, n, crc in index]


def load_arrays(path, prefixes=None):
    """Read a checkpoint back into a name -> ndarray mapping.

    `prefixes` (a string or a tuple of strings) selects the records whose
    names start with one of them; the default reads every record. A missing,
    truncated or otherwise malformed file, or a read record whose checksum
    does not match, raises DataError.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot open checkpoint: {exc}") from None
    out = {}
    with fh:
        for name, dtype, shape, start, n_bytes, crc in _read_index(fh, path):
            if prefixes is not None and not name.startswith(prefixes):
                continue
            arr = np.empty(shape, dtype=dtype.newbyteorder("<"))
            buf = arr.reshape(-1).view(np.uint8)
            fh.seek(start)
            if fh.readinto(buf) != n_bytes:
                raise DataError(f"{path}: truncated data for '{name}'")
            if crc is not None and zlib.crc32(buf) != crc:
                raise DataError(f"{path}: checksum mismatch for '{name}'")
            out[name] = arr
    return out


def pack_rng_state(gen):
    """PCG64 generator state as a flat uint64 array."""
    st = gen.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise DataError("only PCG64 generators are checkpointable")
    mask = (1 << 64) - 1
    s, inc = st["state"]["state"], st["state"]["inc"]
    vals = [s & mask, (s >> 64) & mask, inc & mask, (inc >> 64) & mask,
            int(st["has_uint32"]), int(st["uinteger"])]
    return np.array(vals, dtype=np.uint64)


def unpack_rng_state(arr):
    if arr.size != 6:
        raise DataError(f"checkpoint rng state holds {arr.size} values, expected 6")
    vals = [int(v) for v in arr.reshape(-1)]
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": vals[0] | (vals[1] << 64), "inc": vals[2] | (vals[3] << 64)},
        "has_uint32": vals[4],
        "uinteger": vals[5],
    }
    return gen


def pack_text(s):
    return np.frombuffer(s.encode("utf-8"), dtype=np.uint8).copy()


def unpack_text(arr):
    try:
        return arr.tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise DataError("checkpoint text record is not UTF-8") from None
