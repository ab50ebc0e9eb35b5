"""The stdlib PCG64 normal stream against numpy, its oracle."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshave._pcg64 import FI_DOUBLE, KI_DOUBLE, WI_DOUBLE, Pcg64, seed_state

STREAM_SEEDS = [0, 1, 2, 42, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 63 + 5,
                2 ** 64 - 1, 2 ** 64, 2 ** 70 + 3, 2 ** 128 + 99, 2 ** 200 + 12345]
DRAWS_PER_SEED = 72_000   # 1,008,000 draws in all


class _RecordingPcg64(Pcg64):
    """Keeps the words each draw consumed, to tell the ziggurat's paths apart."""

    def __init__(self, seed):
        super().__init__(seed)
        self.words = []

    def next_uint64(self):
        word = super().next_uint64()
        self.words.append(word)
        return word


def test_standard_normal_matches_numpy_stream():
    tail = wedge_accepted = 0
    for seed in STREAM_SEEDS:
        rng = _RecordingPcg64(seed)
        mine = []
        for _ in range(DRAWS_PER_SEED):
            rng.words.clear()
            mine.append(rng.standard_normal())
            first, used = rng.words[0], len(rng.words)
            if used > 1 and first & 0xFF == 0:
                tail += 1            # strip 0's rejection: the tail beyond r
            elif used == 2:
                wedge_accepted += 1  # one word for the strip, one for the wedge test
        assert mine == np.random.default_rng(seed).standard_normal(DRAWS_PER_SEED).tolist(), seed
    assert tail > 0 and wedge_accepted > 0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 256), scale=st.floats(0.0, 10.0))
def test_seeding_and_normal_match_numpy(seed, scale):
    assert seed_state(seed) == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
    numpy_rng = np.random.default_rng(seed)
    rng = Pcg64(seed)
    assert [rng.next_uint64() for _ in range(4)] == numpy_rng.bit_generator.random_raw(4).tolist()
    assert rng.next_double() == numpy_rng.random()
    assert rng.normal(scale, 48) == numpy_rng.normal(0.0, scale, 48).tolist()


def _archive_member(path: str, name: str) -> bytes:
    """One member of a GNU `ar` archive, long names included."""
    with open(path, "rb") as f:
        data = f.read()
    assert data[:8] == b"!<arch>\n"
    pos, long_names = 8, b""
    while pos < len(data):
        header = data[pos:pos + 60]
        member, size = header[:16].decode().rstrip(), int(header[48:58])
        body = data[pos + 60:pos + 60 + size]
        if member == "//":
            long_names = body
        elif member[1:].isdigit():
            start = int(member[1:])
            member = long_names[start:long_names.index(b"/\n", start)].decode() + "/"
        if member == name + "/":
            return body
        pos += 60 + size + size % 2
    raise KeyError(name)


def _elf_symbols(elf: bytes, names: set) -> dict:
    """The bytes of the named symbols of a little-endian ELF64 object."""
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", elf, 0x3A)
    sections = [struct.unpack_from("<IIQQQQIIQQ", elf, shoff + i * shentsize)
                for i in range(shnum)]

    def string(section, offset):
        start = sections[section][4] + offset
        return elf[start:elf.index(b"\0", start)].decode()

    found = {}
    for _, kind, _, _, offset, size, link, *_ in sections:
        if kind != 2:   # SHT_SYMTAB
            continue
        for k in range(size // 24):
            name, _, _, shndx, value, length = struct.unpack_from("<IBBHQQ", elf, offset + 24 * k)
            if string(link, name) in names:
                start = sections[shndx][4] + value
                found[string(link, name)] = elf[start:start + length]
    return found


def test_ziggurat_tables_match_numpy_archive():
    archive = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
    if not os.path.exists(archive):
        pytest.skip("numpy's libnpyrandom.a is not installed")
    elf = _archive_member(archive, "src_distributions_distributions.c.o")
    tables = _elf_symbols(elf, {"ki_double", "wi_double", "fi_double"})
    assert list(struct.unpack("<256Q", tables["ki_double"])) == list(KI_DOUBLE)
    assert list(struct.unpack("<256d", tables["wi_double"])) == list(WI_DOUBLE)
    assert list(struct.unpack("<256d", tables["fi_double"])) == list(FI_DOUBLE)
