from __future__ import annotations

import hashlib

import numpy as np
import pytest

from rdh3d import (
    KeyMaterial,
    KeyRole,
    analyze,
    choose_n,
    embed,
    encrypt_mesh,
    extract,
    quantize,
)
from rdh3d.cipher import decrypt_mesh, stream_words
from rdh3d.errors import ConfigError

from conftest import ZeroKey, grid_mesh, random_mesh
from oracles import chacha20_block, chacha20_keystream, keystream_bits

RFC7539_KEY = bytes(range(32))
RFC7539_NONCE = bytes.fromhex("000000090000004a00000000")
RFC7539_BLOCK1 = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4"
    "c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2"
    "b5129cd1de164eb9cbd083e8a2503c4e"
)

# first eight stream bytes for passphrase "k", computed with the
# independent RFC implementation above
FROZEN_ENCRYPT_STREAM = bytes.fromhex("0f428f9c31135810")
FROZEN_HIDE_STREAM = bytes.fromhex("590ea3a2bc5738aa")


class TestReferenceImplementation:
    def test_rfc_block_vector(self):
        assert chacha20_block(RFC7539_KEY, 1, RFC7539_NONCE) == RFC7539_BLOCK1

    def test_multi_block_stream(self):
        one = chacha20_keystream(RFC7539_KEY, RFC7539_NONCE, 1, 64)
        assert one == RFC7539_BLOCK1
        two = chacha20_keystream(RFC7539_KEY, RFC7539_NONCE, 1, 100)
        assert two[:64] == RFC7539_BLOCK1


class TestKeystream:
    def test_zero_count(self, ke):
        assert ke.keystream_bits(0).size == 0

    def test_deterministic(self):
        a = KeyMaterial.from_passphrase("same", KeyRole.ENCRYPT)
        b = KeyMaterial.from_passphrase("same", KeyRole.ENCRYPT)
        assert np.array_equal(a.keystream_bits(999), b.keystream_bits(999))

    def test_passphrase_k_matches_reference(self):
        ke = KeyMaterial.from_passphrase("k", KeyRole.ENCRYPT)
        kw = KeyMaterial.from_passphrase("k", KeyRole.HIDE)
        assert ke.keystream_bytes(8) == FROZEN_ENCRYPT_STREAM
        assert kw.keystream_bytes(8) == FROZEN_HIDE_STREAM
        key = hashlib.sha256(b"k").digest()
        for key_material, label in ((ke, "encrypt"), (kw, "hide")):
            nonce = hashlib.sha256(label.encode()).digest()[:12]
            assert key_material.keystream_bytes(64) == chacha20_keystream(
                key, nonce, 0, 64
            )
            assert key_material.keystream_bits(64).tolist() == keystream_bits(
                key, nonce, 64
            )

    def test_roles_are_independent(self):
        ke = KeyMaterial.from_passphrase("p", KeyRole.ENCRYPT)
        kw = KeyMaterial.from_passphrase("p", KeyRole.HIDE)
        assert ke.keystream_bytes(32) != kw.keystream_bytes(32)

    def test_random_access_equals_streaming(self, ke):
        # the bit for (vertex i, axis j, plane u) is a pure function of
        # the address: word view and bit view must agree everywhere
        l = 16
        words = stream_words(ke, 12, l)
        bits = ke.keystream_bits(12 * l)
        for w in range(12):
            for k in range(l):
                u = l - 1 - k
                assert (int(words[w]) >> u) & 1 == bits[w * l + k]

    def test_key_must_be_32_bytes(self):
        with pytest.raises(ConfigError):
            KeyMaterial(b"short", KeyRole.ENCRYPT)

    def test_repr_hides_key_bytes(self):
        key = KeyMaterial.from_passphrase("x", KeyRole.ENCRYPT)
        text = repr(key)
        assert key.key_bytes.hex() not in text
        assert repr(key.key_bytes) not in text
        assert "ENCRYPT" in text


class TestMeshEncryption:
    def test_zero_stream_is_identity(self, tetra_mesh):
        q = quantize(tetra_mesh, 4)
        enc = encrypt_mesh(q, ZeroKey())
        assert np.array_equal(enc.magnitudes, q.magnitudes)
        assert decrypt_mesh(enc, ZeroKey()) == q

    def test_involution(self, tetra_mesh, ke):
        q = quantize(tetra_mesh, 4)
        enc = encrypt_mesh(q, ke)
        assert decrypt_mesh(enc, ke) == q
        assert encrypt_mesh(decrypt_mesh(enc, ke), ke) == enc

    def test_owner_container_carries_no_payload(self, ke):
        q = quantize(grid_mesh(12), 4)
        enc = encrypt_mesh(q, ke)
        assert (enc.n, enc.payload_bits, enc.capacity_bits()) == (1, 0, 0)
        assert enc.excluded.size == q.partition.n_embedded > 0
        assert (enc.excluded == 1).all()
        assert enc.partition is q.partition

    def test_tetrahedron_against_reference_stream(self, tetra_mesh):
        q = quantize(tetra_mesh, 4)
        ke = KeyMaterial.from_passphrase("k", KeyRole.ENCRYPT)
        enc = encrypt_mesh(q, ke)
        key = hashlib.sha256(b"k").digest()
        nonce = hashlib.sha256(b"encrypt").digest()[:12]
        raw = chacha20_keystream(key, nonce, 0, 3 * q.n_vertices * (q.l // 8))
        for i in range(q.n_vertices):
            for j in range(3):
                word_index = i * 3 + j
                chunk = raw[word_index * 2:word_index * 2 + 2]
                expected = int(q.magnitudes[i, j]) ^ int.from_bytes(chunk, "big")
                assert int(enc.magnitudes[i, j]) == expected

    def test_does_not_touch_signs_faces_or_input(self, ke):
        mesh = random_mesh(3, n_max=50)
        q = quantize(mesh, 5)
        before = [q.magnitudes.copy(), q.signs.copy(), q.faces.copy()]
        enc = encrypt_mesh(q, ke)
        assert all(np.array_equal(a, b) for a, b in
                   zip(before, [q.magnitudes, q.signs, q.faces]))
        assert (enc.m, enc.l) == (q.m, q.l)
        dec = decrypt_mesh(enc, ke)
        # signs and faces are shared, read-only; only the magnitudes are new
        for a, b in ((enc, q), (dec, enc)):
            assert np.shares_memory(a.signs, b.signs)
            assert np.shares_memory(a.faces, b.faces)
            assert a.partition is b.partition
            assert not np.shares_memory(a.magnitudes, b.magnitudes)
            for arr in (a.magnitudes, a.signs, a.faces):
                assert not arr.flags.writeable

    def test_ciphertext_fits_word_length(self, ke):
        mesh = random_mesh(8, n_max=50)
        for m in (2, 4, 9):
            q = quantize(mesh, m)
            enc = encrypt_mesh(q, ke)
            assert int(enc.magnitudes.max()) < 2**q.l

    def test_wrong_key_differs_statistically(self, tetra_mesh):
        q = quantize(tetra_mesh, 5)  # 4 * 3 * 32 = 384 magnitude bits
        right = KeyMaterial.from_passphrase("right", KeyRole.ENCRYPT)
        wrong = KeyMaterial.from_passphrase("wrong", KeyRole.ENCRYPT)
        enc = encrypt_mesh(q, right)
        dec = decrypt_mesh(enc, wrong)
        xor = dec.magnitudes ^ q.magnitudes
        flipped = sum(int(w).bit_count() for w in xor.ravel())
        assert flipped > 384 // 4  # ~half expected, far from zero

    def test_role_checks(self, tetra_mesh, ke, kw):
        q = quantize(tetra_mesh, 4)
        with pytest.raises(ConfigError, match="role"):
            encrypt_mesh(q, kw)
        with pytest.raises(ConfigError, match="role"):
            decrypt_mesh(encrypt_mesh(q, ke), kw)


def embed_payload(bits, key):
    """Embed `bits` into a smooth grid mesh at m=4 with the capacity-optimal n,
    under an all-zero encryption stream."""
    q = quantize(grid_mesh(20), 4)
    rep = analyze(q)
    return embed(encrypt_mesh(q, ZeroKey()), rep, choose_n(rep), bits, key)


def raw_slots(c):
    """The n-MSB slot bits of a marked container, read back with plain
    integer shifts: included embedded vertices in C order, x/y/z, MSB first."""
    emb = c.partition.embedded.tolist()
    out = []
    for v, excluded in zip(emb, c.excluded.tolist()):
        if not excluded:
            for axis in range(3):
                word = int(c.magnitudes[v - 1, axis])
                out += [(word >> (c.l - k)) & 1 for k in range(1, c.n + 1)]
    return out


class TestPayloadCrypt:
    """The payload is XORed with the Kw stream inside embed and extract."""

    def test_empty(self, kw):
        c = embed_payload(np.empty(0, dtype=np.uint8), kw)
        assert extract(c, kw).size == 0
        assert raw_slots(c) == kw.keystream_bits(c.capacity_bits()).tolist()

    def test_self_inverse(self, kw):
        bits = np.random.default_rng(0).integers(0, 2, 777).astype(np.uint8)
        c = embed_payload(bits, kw)
        assert c.capacity_bits() > bits.size
        assert np.array_equal(extract(c, kw), bits)

    def test_24_bits_against_reference(self):
        kw = KeyMaterial.from_passphrase("k", KeyRole.HIDE)
        bits = np.array([1, 0] * 12, dtype=np.uint8)
        key = hashlib.sha256(b"k").digest()
        nonce = hashlib.sha256(b"hide").digest()[:12]
        ref = keystream_bits(key, nonce, 24)
        expected = [b ^ r for b, r in zip(bits.tolist(), ref)]
        assert raw_slots(embed_payload(bits, kw))[:24] == expected

    def test_role_check(self, ke, kw):
        with pytest.raises(ConfigError, match="role"):
            embed_payload(np.zeros(8, dtype=np.uint8), ke)
        with pytest.raises(ConfigError, match="role"):
            extract(embed_payload(np.zeros(8, dtype=np.uint8), kw), ke)
