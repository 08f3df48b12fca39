"""Minimal netpbm I/O: binary PGM (P5) and PPM (P6) read and write, plain PGM
(P2) write only.

Covers exactly the formats the dataset layout and mask/score exports use.
All binary images are 8-bit (maxval 255); the plain-text P2 mask exports use
maxval 1, and no command reads them back.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DataError


def write_pgm_p2(path, img, maxval=1):
    """Plain-text grayscale image; img is a 2-D integer array in [0, maxval]."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise DataError("P2 image must be 2-D")
    h, w = img.shape
    lines = [f"P2", f"{w} {h}", str(maxval)]
    lines += [" ".join(str(int(v)) for v in row) for row in img]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _ints(tokens, path):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise DataError(f"{path}: malformed integer in netpbm file") from None


def _dims(fields, path):
    """(w, h, maxval) from the three header fields."""
    w, h, maxval = _ints(fields, path)
    if w < 0 or h < 0 or maxval < 1:
        raise DataError(f"{path}: bad header {w} x {h}, maxval {maxval}")
    return w, h, maxval


def open_binary(path):
    """`path` opened for binary reading, the one open rule for every dataset
    file: one that cannot be opened (missing, a directory, unreadable, a NUL
    byte in its name) is a DataError naming it."""
    try:
        return open(path, "rb")
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _read_header(fh, magic, path):
    got = fh.read(2)
    if got != magic:
        raise DataError(f"{path}: expected {magic.decode()} magic, got {got!r}")
    fields = []
    while len(fields) < 3:
        line = fh.readline()
        if not line:
            raise DataError(f"{path}: truncated header")
        line = line.split(b"#", 1)[0]
        fields.extend(line.split())
    w, h, maxval = _dims(fields[:3], path)
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    return w, h


def _read_pixels(fh, n, path):
    """The n pixel bytes after the header. The file size is checked first, so
    a huge declared size fails without allocating it."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{path}: truncated pixel data")
    return fh.read(n)


def write_pgm_p5(path, img):
    """Binary grayscale image; img is a 2-D uint8 array."""
    img = np.ascontiguousarray(np.asarray(img, dtype=np.uint8))
    if img.ndim != 2:
        raise DataError("P5 image must be 2-D")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm_p5(path):
    with open_binary(path) as fh:
        w, h = _read_header(fh, b"P5", path)
        raw = _read_pixels(fh, w * h, path)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w).copy()


def write_ppm_p6(path, img):
    """Binary RGB image; img is (H, W, 3) uint8."""
    img = np.ascontiguousarray(np.asarray(img, dtype=np.uint8))
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError("P6 image must be (H, W, 3)")
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_ppm_p6(path):
    with open_binary(path) as fh:
        w, h = _read_header(fh, b"P6", path)
        raw = _read_pixels(fh, w * h * 3, path)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).copy()
