"""Binary checkpoint format.

Layout: magic "PNXT", u32 version, u32 record count, then per record a
(name, dtype, shape, byte offset) index entry, then the raw little-endian
array data. Offsets are relative to the start of the data section. Strings
(config snapshots) ride along as uint8 arrays.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DataError

MAGIC = b"PNXT"
VERSION = 1

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
    index = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise DataError(f"checkpoint: unsupported dtype {arr.dtype} for '{name}'")
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        blob = little.tobytes()
        index.append((name, _DTYPE_CODES[arr.dtype], arr.shape, offset))
        blobs.append(blob)
        offset += len(blob)

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(index)))
        for name, code, shape, off in index:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", code, len(shape)))
            for dim in shape:
                fh.write(struct.pack("<I", dim))
            fh.write(struct.pack("<Q", off))
        for blob in blobs:
            fh.write(blob)


def _read(fh, n, path):
    raw = fh.read(n)
    if len(raw) != n:
        raise DataError(f"{path}: truncated checkpoint header")
    return raw


def _unpack(fh, fmt, path):
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt), path))


def load_arrays(path):
    """Read a checkpoint back into a name -> ndarray mapping. A missing,
    truncated or otherwise malformed file raises DataError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot open checkpoint: {exc}") from None
    with fh:
        if fh.read(4) != MAGIC:
            raise DataError(f"{path}: not a PNXT checkpoint")
        version, count = _unpack(fh, "<II", path)
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        index = []
        for _ in range(count):
            (name_len,) = _unpack(fh, "<H", path)
            try:
                name = _read(fh, name_len, path).decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: record name is not UTF-8") from None
            code, ndim = _unpack(fh, "<BB", path)
            shape = _unpack(fh, f"<{ndim}I", path)
            (offset,) = _unpack(fh, "<Q", path)
            index.append((name, code, shape, offset))
        data = fh.read()

    out = {}
    for name, code, shape, offset in index:
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise DataError(f"{path}: unknown dtype code {code} for '{name}'")
        n_bytes = math.prod(shape) * dtype.itemsize
        chunk = data[offset:offset + n_bytes]
        if len(chunk) != n_bytes:
            raise DataError(f"{path}: truncated data for '{name}'")
        arr = np.frombuffer(chunk, dtype=dtype.newbyteorder("<")).astype(dtype)
        out[name] = arr.reshape(shape)
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
