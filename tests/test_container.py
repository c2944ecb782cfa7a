from __future__ import annotations

import struct
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdh3d import (
    ContainerError,
    KeyMaterial,
    KeyRole,
    MarkedContainer,
    Mesh,
    analyze,
    embed,
    encrypt_mesh,
    quantize,
    read_container,
    write_container,
)
from rdh3d.container import MAGIC
from rdh3d.partition import partition

from conftest import grid_mesh, random_mesh


def make_container(seed: int, m: int = 4, payload_fill: float = 0.5) -> MarkedContainer:
    """A structurally valid container straight from mesh data."""
    rng = np.random.default_rng(seed)
    mesh = random_mesh(seed, n_max=40)
    q = quantize(mesh, m)
    part = partition(mesh.n_vertices, mesh.faces)
    k = part.n_embedded
    n = int(rng.integers(1, q.l + 1))
    excluded = rng.integers(0, 2, size=k).astype(np.uint8)
    capacity = 3 * n * int((excluded == 0).sum())
    payload_bits = int(capacity * payload_fill)
    mags = rng.integers(0, 2**q.l, size=(mesh.n_vertices, 3)).astype(np.uint64)
    return MarkedContainer(
        m=m, n=n, payload_bits=payload_bits, signs=q.signs,
        excluded=excluded, magnitudes=mags, faces=mesh.faces,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(30))
    def test_object_and_byte_identity(self, seed):
        c = make_container(seed, m=2 + seed % 8)
        data = write_container(c)
        back = read_container(data)
        assert back == c
        assert write_container(back) == data

    def test_empty_payload_container_valid(self):
        c = make_container(3, payload_fill=0.0)
        assert c.payload_bits == 0
        assert read_container(write_container(c)) == c

    def test_empty_mesh_container(self):
        c = MarkedContainer(
            m=4, n=1, payload_bits=0,
            signs=np.empty((0, 3), dtype=np.uint8),
            excluded=np.empty(0, dtype=np.uint8),
            magnitudes=np.empty((0, 3), dtype=np.uint64),
            faces=np.empty((0, 3), dtype=np.int64),
        )
        assert read_container(write_container(c)) == c


class TestRejection:
    def test_bad_magic(self):
        data = bytearray(write_container(make_container(0)))
        data[:4] = b"JUNK"
        with pytest.raises(ContainerError, match="magic"):
            read_container(bytes(data))

    def test_version_mismatch(self):
        data = bytearray(write_container(make_container(0)))
        data[4] = 9
        with pytest.raises(ContainerError, match="version"):
            read_container(bytes(data))

    def test_inconsistent_m_l(self):
        data = bytearray(write_container(make_container(0, m=4)))
        data[6] = 32  # l byte contradicts m=4
        with pytest.raises(ContainerError, match="inconsistent"):
            read_container(bytes(data))

    def test_m_out_of_supported_range(self):
        data = bytearray(write_container(make_container(0, m=4)))
        data[5] = 12  # would imply 64-bit words; pipeline supports m in [2, 9]
        with pytest.raises(ContainerError, match="precision"):
            read_container(bytes(data))

    def test_n_zero_rejected(self):
        data = bytearray(write_container(make_container(0)))
        data[7] = 0
        with pytest.raises(ContainerError, match="embedding length"):
            read_container(bytes(data))

    def test_n_above_l_rejected(self):
        c = make_container(0, m=4)
        data = bytearray(write_container(c))
        data[7] = c.l + 1
        with pytest.raises(ContainerError, match="embedding length"):
            read_container(bytes(data))

    @pytest.mark.parametrize("l", [24, 64])
    def test_l_outside_table_rejected(self, l):
        data = bytearray(write_container(make_container(0, m=4)))
        data[6] = l  # no word width of the table, whatever m
        with pytest.raises(ContainerError, match="inconsistent"):
            read_container(bytes(data))

    @pytest.mark.parametrize("offset,size,match", [
        (8, 4, "length mismatch"), (12, 4, "length mismatch"), (16, 8, "capacity"),
    ], ids=["N", "M", "payload_bits"])
    def test_huge_header_count_rejected_without_allocation(self, offset, size, match):
        data = bytearray(write_container(make_container(0)))
        data[offset:offset + size] = b"\xff" * size
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match=match):
                read_container(bytes(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_every_truncation_rejected(self):
        data = write_container(make_container(1))
        for cut in range(len(data)):
            with pytest.raises(ContainerError):
                read_container(data[:cut])

    def test_trailing_bytes_rejected(self):
        data = write_container(make_container(2))
        with pytest.raises(ContainerError):
            read_container(data + b"\x00")

    def test_nonzero_bitmap_padding_rejected(self):
        c = make_container(4)
        if (3 * c.n_vertices) % 8 == 0:
            c.signs = c.signs[:-1]  # force padding to exist (breaks N anyway)
        data = bytearray(write_container(make_container(4)))
        # sign bitmap starts at byte 24; flip a padding bit if there is one
        n_sign_bits = 3 * read_container(bytes(data)).n_vertices
        if n_sign_bits % 8:
            pad_byte = 24 + n_sign_bits // 8
            data[pad_byte] |= 1
            with pytest.raises(ContainerError, match="padding"):
                read_container(bytes(data))

    def test_payload_over_capacity_rejected(self):
        c = make_container(5)
        with pytest.raises(ContainerError, match="exceeds capacity"):
            replace(c, payload_bits=c.capacity_bits() + 1)
        data = bytearray(write_container(c))
        struct.pack_into("<Q", data, 16, c.capacity_bits() + 1)
        with pytest.raises(ContainerError, match="capacity"):
            read_container(bytes(data))

    def test_excluded_bitmap_length_mismatch(self):
        c = make_container(6)
        with pytest.raises(ContainerError, match="embedded"):
            replace(c, excluded=np.zeros(c.excluded.size + 8, dtype=np.uint8))
        data = write_container(c)
        at = 24 + (3 * c.n_vertices + 7) // 8  # the excluded bitmap
        with pytest.raises(ContainerError, match="embedded"):
            read_container(data[:at] + bytes(1) + data[at:])

    def test_face_index_out_of_range(self):
        c = make_container(7)
        data = bytearray(write_container(c))
        struct.pack_into("<I", data, len(data) - 12 * c.n_faces, c.n_vertices + 5)
        with pytest.raises(ContainerError, match="face index"):
            read_container(bytes(data))

    @pytest.mark.parametrize("bad_id", [0, -1, "N+1"])
    def test_face_index_out_of_range_at_construction(self, bad_id):
        c = make_container(7)
        faces = c.faces.copy()
        bad = c.n_vertices + 1 if bad_id == "N+1" else bad_id
        faces[0, 1] = bad
        error = rf"^face index out of range: {bad} \(valid range 1\.\.{c.n_vertices}\)$"
        with pytest.raises(ContainerError, match=error):
            MarkedContainer(c.m, c.n, c.payload_bits, c.signs, c.excluded, c.magnitudes, faces)
        with pytest.raises(ContainerError, match=error):
            replace(c, faces=faces)  # face ids are checked before the partition is kept

    def test_sign_rows_must_match_magnitude_rows(self):
        c = make_container(9)
        with pytest.raises(ContainerError, match=f"{c.n_vertices + 5} sign rows"):
            replace(c, signs=np.zeros((c.n_vertices + 5, 3), dtype=np.uint8))

    @pytest.mark.parametrize("sign", [2, 255])
    def test_sign_other_than_0_or_1_rejected(self, sign):
        c = make_container(9)
        signs = c.signs.copy()
        signs[0, 0] = sign
        with pytest.raises(ContainerError, match="sign bits must be 0 or 1"):
            replace(c, signs=signs)

    def test_magnitude_too_wide_refused_on_write(self):
        c = make_container(8)
        mags = c.magnitudes.copy()
        mags[0, 0] = 2**c.l
        with pytest.raises(ContainerError, match="word length"):
            write_container(replace(c, magnitudes=mags))


    def test_negative_magnitude_refused_on_write(self):
        c = make_container(8)
        mags = c.magnitudes.copy()
        mags[0, 0] = -1
        with pytest.raises(ContainerError, match="word length"):
            write_container(replace(c, magnitudes=mags))

    def test_face_ids_checked_before_sign_padding(self):
        c = next(c for c in map(make_container, range(20))
                 if (3 * c.n_vertices) % 8 and c.n_faces)
        data = bytearray(write_container(c))
        data[24 + (3 * c.n_vertices) // 8] |= 1  # a sign padding bit
        struct.pack_into("<I", data, len(data) - 12 * c.n_faces, c.n_vertices + 1)
        with pytest.raises(ContainerError, match="^face index out of range"):
            read_container(bytes(data))

    def test_excluded_size_checked_before_its_padding(self):
        c = make_container(6)
        data = write_container(c)
        end = 24 + (3 * c.n_vertices + 7) // 8 + (c.excluded.size + 7) // 8
        # one more bitmap byte, all ones: the size is wrong and its bits,
        # past |C|, are nonzero padding
        with pytest.raises(ContainerError, match="^excluded bitmap holds .* embedded"):
            read_container(data[:end] + b"\xff" + data[end:])


class TestNewFacesNewSplit:
    """A container's split is always the one of its own faces, however
    they were swapped in."""

    @pytest.fixture
    def enc(self, ke):
        return encrypt_mesh(quantize(grid_mesh(10), 4), ke)

    def test_split_of_another_size_rejected(self, enc):
        rotated = enc.faces[:, [1, 2, 0]]
        assert partition(enc.n_vertices, rotated).n_embedded == 29
        with pytest.raises(ContainerError, match="covers 30 vertices .* implies 29"):
            replace(enc, faces=rotated)

    def test_split_of_the_same_size_derived_anew(self, enc):
        rolled = np.roll(enc.faces, 18, axis=0)
        c = replace(enc, faces=rolled)
        assert c.partition == partition(enc.n_vertices, rolled)
        assert c.partition.n_embedded == enc.partition.n_embedded
        assert set(c.partition.embedded) != set(enc.partition.embedded)
        back = read_container(write_container(c))
        assert back == c and back.partition == c.partition


class TestOnlyValidContainersExist:
    """The header rules hold for every container that can be built, so
    write_container has nothing left to reject."""

    @pytest.fixture
    def enc(self, ke):
        return encrypt_mesh(quantize(grid_mesh(10), 4), ke)

    @pytest.mark.parametrize("change, error", [
        ({"n": 17}, r"^embedding length n=17 outside \[1, 16\]$"),
        ({"n": 20}, r"^embedding length n=20 outside \[1, 16\]$"),
        ({"n": 0}, r"^embedding length n=0 outside \[1, 16\]$"),
        ({"m": 12}, r"^precision m=12 outside supported range \[2, 9\]$"),
        ({"m": 2}, r"^magnitude does not fit the declared word length$"),
    ], ids=["n=l+1", "n=20", "n=0", "m=12", "m=2"])
    def test_header_rule_broken_at_construction(self, enc, change, error):
        with pytest.raises(ContainerError, match=error):
            replace(enc, **change)

    @pytest.mark.parametrize("word", [2**16, 2**40, -1])
    def test_word_outside_the_word_length(self, enc, word):
        mags = enc.magnitudes.copy()
        mags[7, 2] = word
        with pytest.raises(ContainerError, match="^magnitude does not fit the declared word length$"):
            replace(enc, magnitudes=mags)


_KE = KeyMaterial.from_passphrase("owner", KeyRole.ENCRYPT)
_KW = KeyMaterial.from_passphrase("hider", KeyRole.HIDE)


def test_read_container_memory_is_bounded():
    # grid_mesh(300) at m=6: 90,000 vertices, 178,802 faces. Measured
    # peaks: 14.2 MiB with the word and face sections read in place,
    # 17.3 MiB when each section was sliced out before its conversion.
    data = write_container(encrypt_mesh(quantize(grid_mesh(300), 6), _KE))
    tracemalloc.start()
    try:
        read_container(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.integers(2, 9), data=st.data())
def test_every_built_container_round_trips(seed, m, data):
    q = quantize(random_mesh(seed, n_max=60), m)
    rep = analyze(q)
    n = data.draw(st.integers(1, q.l), label="n")
    size = data.draw(st.integers(0, rep.capacity(n)), label="payload bits")
    payload = np.random.default_rng(seed).integers(0, 2, size=size)
    enc = encrypt_mesh(q, _KE)
    for c in (enc, embed(enc, rep, n, payload, _KW)):
        assert read_container(write_container(c)) == c


def test_arrays_are_read_only():
    c = make_container(11)
    assert c.excluded.size > 0
    for name in ("signs", "excluded", "magnitudes", "faces"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(c, name)[0] = 0
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, getattr(c, name)[:1])
    back = read_container(write_container(c))
    assert all(not getattr(back, name).flags.writeable
               for name in ("signs", "excluded", "magnitudes", "faces"))


def test_header_layout():
    c = make_container(9)
    data = write_container(c)
    assert data[:4] == MAGIC
    assert data[4] == 1
    assert data[5] == c.m
    assert data[6] == c.l
    assert data[7] == c.n
    assert int.from_bytes(data[8:12], "little") == c.n_vertices
    assert int.from_bytes(data[12:16], "little") == c.n_faces
    assert int.from_bytes(data[16:24], "little") == c.payload_bits
    expected_len = (
        24
        + (3 * c.n_vertices + 7) // 8
        + (c.excluded.size + 7) // 8
        + 3 * c.n_vertices * (c.l // 8)
        + 12 * c.n_faces
    )
    assert len(data) == expected_len


def test_magnitudes_packed_big_endian():
    mesh = Mesh(np.array([[0.1, 0.2, 0.3]]), np.empty((0, 3)))
    q = quantize(mesh, 4)
    c = MarkedContainer(
        m=4, n=1, payload_bits=0, signs=q.signs,
        excluded=np.empty(0, dtype=np.uint8),
        magnitudes=np.array([[0x0B48, 0x0001, 0xFFFF]], dtype=np.uint64),
        faces=np.empty((0, 3), dtype=np.int64),
    )
    data = write_container(c)
    body = data[24 + 1:]  # header + 1 sign byte
    assert body[:6] == bytes.fromhex("0b48" "0001" "ffff")


def test_container_coordinates_are_signed_integers():
    c = make_container(10)
    exported = c.coordinates()
    signed = np.where(c.signs == 1, -1.0, 1.0) * c.magnitudes.astype(np.float64)
    assert np.array_equal(exported.vertices, signed)
    assert np.array_equal(exported.faces, c.faces)
