"""Seeded mutation sweep over the netpbm readers, the config reader and a
dataset directory's text files.

Each case starts from a well-formed input and applies one mutation: a flipped
bit, a truncation, two whitespace-separated tokens swapped, or one token
replaced by a hostile one (zero, negative, huge, fractional, non-numeric,
non-ASCII, empty). The reader must either return or raise a ProNextError
subclass; any other exception is a failure. Binary netpbm files take token
mutations in their text header only.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from pronext import data
from pronext import model as M
from pronext import netpbm
from pronext import train as T
from pronext.errors import DataError, ProNextError

CASES_PER_TARGET = 400

HOSTILE_TOKENS = [b"0", b"-1", b"-0", b"1.5", b"nan", b"inf", b"1e400", b"0x10",
                  b"4294967296", b"99999999999999999999", b"", b"=", b"#", b"\xff\xfe",
                  b"P2", b"P5", b"P6", b"255", b"256", b"True", b"maybe", b"a = b = c"]

_SPLIT = re.compile(rb"(\s+)")


def _mutate_tokens(region, rng):
    parts = _SPLIT.split(region)
    slots = [i for i in range(0, len(parts), 2) if parts[i]]
    if rng.random() < 0.5 and len(slots) >= 2:
        a, b = rng.choice(slots, size=2, replace=False)
        parts[a], parts[b] = parts[b], parts[a]
    elif slots:
        parts[int(rng.choice(slots))] = HOSTILE_TOKENS[rng.integers(len(HOSTILE_TOKENS))]
    return b"".join(parts)


def mutate(blob, rng, text_len=None):
    """One seeded mutation of `blob`; token mutations touch only the first
    `text_len` bytes (the whole blob by default)."""
    kind = ("flip", "truncate", "token")[rng.integers(3)]
    if kind == "flip":
        out = bytearray(blob)
        out[rng.integers(len(out))] ^= 1 << int(rng.integers(8))
        return kind, bytes(out)
    if kind == "truncate":
        return kind, blob[:rng.integers(len(blob))]
    text_len = len(blob) if text_len is None else text_len
    return kind, _mutate_tokens(blob[:text_len], rng) + blob[text_len:]


def _sweep(blob, read, seed, text_len=None):
    """Apply CASES_PER_TARGET mutations; return the raw exceptions seen."""
    rng = np.random.default_rng(seed)
    raw = []
    for case in range(CASES_PER_TARGET):
        kind, mutated = mutate(blob, rng, text_len)
        try:
            read(mutated)
        except ProNextError:
            pass
        except Exception as exc:  # any other exception is a finding: report them all
            raw.append((case, kind, mutated[:80], f"{type(exc).__name__}: {exc}"))
    return raw


def _file_reader(tmp_path, reader):
    path = tmp_path / "fuzz.img"

    def read(blob):
        path.write_bytes(blob)
        reader(path)
    return read


def _netpbm_blob(tmp_path, writer, img):
    path = tmp_path / "seed.img"
    writer(path, img)
    return path.read_bytes()


class TestNetpbmFuzz:
    def test_p5(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, (5, 6), dtype=np.uint8)
        blob = _netpbm_blob(tmp_path, netpbm.write_pgm_p5, img)
        assert _sweep(blob, _file_reader(tmp_path, netpbm.read_pgm_p5), seed=2,
                      text_len=len(blob) - img.size) == []

    def test_p6(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, (5, 6, 3), dtype=np.uint8)
        blob = _netpbm_blob(tmp_path, netpbm.write_ppm_p6, img)
        assert _sweep(blob, _file_reader(tmp_path, netpbm.read_ppm_p6), seed=3,
                      text_len=len(blob) - img.size) == []

    def test_huge_declared_size_is_data_error(self, tmp_path):
        # 2^40 pixels declared, two present: fails on the file size, before
        # any allocation of the declared size
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n1048576 1048576\n255\n\x00\x00")
        with pytest.raises(ProNextError, match="truncated pixel data"):
            netpbm.read_pgm_p5(path)


@pytest.fixture()
def dataset_dir(tmp_path):
    ds = data.generate("structure", 3, np.random.default_rng(5), image_size=16)
    data.write_dataset(ds, str(tmp_path))
    return tmp_path


def _dataset_reader(data_dir, name):
    def read(blob):
        (data_dir / name).write_bytes(blob)
        data.load_dataset(str(data_dir))
    return read


class TestDatasetFuzz:
    @pytest.mark.parametrize("name,seed", [("index.csv", 6), ("meta.csv", 7)],
                             ids=["index", "meta"])
    def test_text_file(self, dataset_dir, name, seed):
        blob = (dataset_dir / name).read_bytes()
        assert _sweep(blob, _dataset_reader(dataset_dir, name), seed=seed) == []

    @pytest.mark.parametrize("name", ["img_00001.ppm", "img_00001_mask.pgm"],
                             ids=["image", "mask"])
    def test_directory_in_place_of_a_file_is_data_error(self, dataset_dir, name):
        (dataset_dir / name).unlink()
        (dataset_dir / name).mkdir()
        with pytest.raises(DataError, match=re.escape(f"{dataset_dir / name}: ")):
            data.load_dataset(str(dataset_dir))


def _config_reader(cls):
    def read(blob):
        M.parse_config(cls, blob.decode("utf-8", errors="replace"), "fuzz")
    return read


class TestConfigFuzz:
    @pytest.mark.parametrize("cls,seed", [(M.ModelConfig, 4), (T.TrainConfig, 5)],
                             ids=["model", "train"])
    def test_parse_config(self, cls, seed):
        blob = M.config_text(cls()).encode("utf-8")
        assert _sweep(blob, _config_reader(cls), seed=seed) == []

    def test_zero_heads_is_config_error(self):
        text = M.config_text(M.ModelConfig()).replace("ca_heads = 4", "ca_heads = 0")
        with pytest.raises(ProNextError, match="ca_heads must be >= 1"):
            M.parse_config(M.ModelConfig, text, "heads")
