from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdh3d import (
    CapacityError,
    ConfigError,
    ContainerError,
    KeyMaterial,
    KeyRole,
    Mesh,
    analyze,
    choose_n,
    dequantize,
    embed,
    encrypt_mesh,
    extract,
    parse_mesh,
    quantize,
    read_container,
    recover,
    write_container,
)
from rdh3d.cipher import decrypt_mesh
from rdh3d.codec import bits_to_payload, default_payload, payload_to_bits
from rdh3d.mesh_io import write_mesh

from conftest import ZeroKey, empty_ring_mesh, fan_mesh, grid_mesh, random_mesh
from oracles import (
    brute_analyze,
    brute_partition,
    model_container,
    model_crypt,
    model_embed,
    model_extract,
    model_recover,
    model_stream_bits,
)


def pipeline_parts(mesh, m, ke, kw):
    q = quantize(mesh, m)
    rep = analyze(q)
    enc = encrypt_mesh(q, ke)
    return q, q.partition, rep, enc


def rand_bits(count, seed=0):
    return np.random.default_rng(seed).integers(0, 2, count).astype(np.uint8)


class TestEmbed:
    def test_n_zero_rejected(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        with pytest.raises(ConfigError):
            embed(enc, rep, 0, rand_bits(0), kw)

    def test_n_above_l_rejected(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        with pytest.raises(ConfigError):
            embed(enc, rep, q.l + 1, rand_bits(0), kw)

    def test_single_vertex_capacity_is_three_bits(self, tetra_mesh, ke, kw):
        # tetrahedron: |C| = 1, so n=1 embeds exactly 3 bits
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        assert rep.capacity(1) == 3
        c = embed(enc, rep, 1, rand_bits(3), kw)
        assert c.payload_bits == 3
        with pytest.raises(CapacityError) as err:
            embed(enc, rep, 1, rand_bits(4), kw)
        assert err.value.capacity_bits == 3

    def test_msb_substitution_worked_example(self, tetra_mesh, kw):
        # l=16, n=4: old word 0x0B48 with payload nibble 1010 becomes
        # (0xA << 12) | (0x0B48 mod 2^12) = 0xAB48
        from rdh3d.predictor import PredictionReport

        q = quantize(tetra_mesh, 4)
        part = q.partition
        enc = encrypt_mesh(q, ZeroKey())
        mags = enc.magnitudes.copy()
        mags[0] = [0x0B48, 0x0B48, 0x0B48]
        enc = replace(enc, magnitudes=mags)
        rep = PredictionReport(ts=np.array([16]), m=4, embedded=part.embedded)
        assert int(part.embedded[0]) == 1 and rep.capacity(4) == 12
        payload = np.array([1, 0, 1, 0] * 3, dtype=np.uint8)
        marked = embed(enc, rep, 4, payload, ZeroKey(KeyRole.HIDE))
        assert [hex(int(w)) for w in marked.magnitudes[0]] == ["0xab48"] * 3
        assert int(marked.magnitudes[0, 0]) == (0xA << 12) | (0x0B48 % 2**12)

    def test_low_bits_survive(self, ke, kw):
        mesh = random_mesh(12, n_max=60, smooth=True)
        q, part, rep, enc = pipeline_parts(mesh, 4, ke, kw)
        n = min(4, int(rep.ts.max())) if rep.ts.size else 0
        if n < 1:
            pytest.skip("no embeddable vertex in this mesh")
        cap = rep.capacity(n)
        marked = embed(enc, rep, n, rand_bits(cap), kw)
        low = (1 << (q.l - n)) - 1
        included = (part.embedded - 1)[~(rep.ts < n)]
        assert np.array_equal(
            marked.magnitudes[included] & low,
            enc.magnitudes[included] & low,
        )

    def test_reference_vertices_untouched(self, ke, kw):
        mesh = random_mesh(14, n_max=80)
        q, part, rep, enc = pipeline_parts(mesh, 5, ke, kw)
        n = 2
        marked = embed(enc, rep, n, rand_bits(min(6, rep.capacity(n))), kw)
        ref0 = part.reference - 1
        una0 = part.unassigned - 1
        for idx in (ref0, una0):
            assert np.array_equal(marked.magnitudes[idx], enc.magnitudes[idx])

    def test_sub_capacity_payload_padded_with_stream(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        n = int(rep.ts[0])
        if n < 1:
            pytest.skip("tetrahedron vertex not embeddable at this m")
        short = rand_bits(2)
        c = embed(enc, rep, n, short, kw)
        assert c.payload_bits == 2
        got = extract(c, kw)
        assert np.array_equal(got, short)
        # slots past the payload carry pure keystream
        full = embed(enc, rep, n, np.empty(0, dtype=np.uint8), kw)
        assert full.payload_bits == 0

    def test_mismatched_report_rejected(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        q5 = quantize(tetra_mesh, 5)
        with pytest.raises(ConfigError):
            embed(encrypt_mesh(q5, ke), rep, 1, rand_bits(0), kw)

    def test_role_check(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        with pytest.raises(ConfigError, match="role"):
            embed(enc, rep, 1, rand_bits(3), ke)

    def test_marked_container_rejected(self, ke, kw):
        # a second payload at another n would overwrite slots of the
        # first and make recovery inexact; the same n is refused too
        q, part, rep, enc = pipeline_parts(grid_mesh(40), 4, ke, kw)
        marked = embed(enc, rep, 6, rand_bits(rep.capacity(6)), kw)
        assert marked.capacity_bits() > 0
        for n in (2, 6):
            with pytest.raises(ConfigError, match="already carries a payload"):
                embed(marked, rep, n, rand_bits(rep.capacity(n)), kw)
        assert recover(marked, ke) == q

    def test_container_without_written_slots_accepted(self, ke, kw):
        # every embedded vertex excluded: no slot was written, so the
        # container is as good as the owner's
        q, part, rep, enc = pipeline_parts(grid_mesh(12), 4, ke, kw)
        n_none = int(rep.ts.max()) + 1
        blank = read_container(write_container(embed(enc, rep, n_none, rand_bits(0), kw)))
        assert (blank.excluded == 1).all() and blank.n == n_none
        n = choose_n(rep)
        payload = rand_bits(rep.capacity(n), 1)
        c = embed(blank, rep, n, payload, kw)
        assert c == embed(enc, rep, n, payload, kw)
        assert np.array_equal(extract(c, kw), payload)
        assert recover(c, ke) == q

    @pytest.mark.parametrize("bad", [[0, 1, 2], [1, -1], [0.5], [256]],
                             ids=["two", "minus one", "half", "256"])
    def test_non_bit_payload_rejected(self, tetra_mesh, ke, kw, bad):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        with pytest.raises(ConfigError, match="0 or 1"):
            embed(enc, rep, 1, np.array(bad), kw)

    def test_bool_payload_same_as_bits(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        bits = np.array([1, 0, 1], dtype=np.uint8)
        assert embed(enc, rep, 1, bits.astype(bool), kw) == embed(enc, rep, 1, bits, kw)


class TestExtract:
    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_all_n(self, seed, ke, kw):
        mesh = random_mesh(seed, n_max=50, smooth=bool(seed % 3))
        q, part, rep, enc = pipeline_parts(mesh, 2 + seed % 8, ke, kw)
        for n in range(1, q.l + 1):
            cap = rep.capacity(n)
            payload = rand_bits(cap, seed=seed + n)
            c = embed(enc, rep, n, payload, kw)
            assert np.array_equal(extract(c, kw), payload)

    def test_no_decryption_needed(self, tetra_mesh, ke, kw, partition_calls):
        # extraction must work on the container alone with Kw; a re-read
        # container derives its split once, for its checks, extraction
        # and recovery alike
        for mesh in (tetra_mesh, random_mesh(21, n_max=60, smooth=True)):
            q, part, rep, enc = pipeline_parts(mesh, 4, ke, kw)
            n = max(1, int(rep.ts[0]))
            payload = rand_bits(rep.capacity(n), seed=5)
            c = embed(enc, rep, n, payload, kw)
            partition_calls.clear()
            read = read_container(write_container(c))
            assert read == c and read.partition == part
            assert np.array_equal(extract(read, kw), payload)
            assert recover(read, ke) == recover(c, ke) == q
            assert len(partition_calls) == 1

    def test_three_bit_hand_trace(self, tetra_mesh, kw):
        # n=1 with zero hiding stream: extracted bit k is
        # floor(word / 2^(l-1)) mod 2 of each marked axis word
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ZeroKey(), kw)
        zero_kw = ZeroKey(KeyRole.HIDE)
        payload = np.array([1, 0, 1], dtype=np.uint8)
        c = embed(enc, rep, 1, payload, zero_kw)
        v = c.magnitudes[int(part.embedded[0]) - 1]
        hand = [(int(w) >> (q.l - 1)) & 1 for w in v]
        assert hand == [1, 0, 1]
        assert extract(c, zero_kw).tolist() == [1, 0, 1]

    def test_wrong_role(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        c = embed(enc, rep, 1, rand_bits(3), kw)
        with pytest.raises(ConfigError, match="role"):
            extract(c, ke)

    def test_corrupt_excluded_bitmap_detected(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        c = embed(enc, rep, 1, rand_bits(3), kw)
        # checked once, at construction: wrong size for |C|=1
        with pytest.raises(ContainerError, match="excluded bitmap covers 5"):
            replace(c, excluded=np.zeros(5, dtype=np.uint8))

    def test_report_for_another_mesh_rejected(self, tetra_mesh, ke, kw):
        # relabeling 1 <-> 2 keeps N and |C| = 1 but embeds vertex 2
        swap = np.array([0, 2, 1, 3, 4])
        other = Mesh(tetra_mesh.vertices, swap[tetra_mesh.faces])
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        _, other_part, other_rep, _ = pipeline_parts(other, 4, ke, kw)
        assert other_part.n_embedded == part.n_embedded
        assert other_rep.embedded.tolist() != rep.embedded.tolist()
        with pytest.raises(ConfigError, match="another mesh"):
            embed(enc, other_rep, 1, rand_bits(0), kw)


class TestRecover:
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_exact(self, seed, ke, kw):
        mesh = random_mesh(seed, n_max=60, smooth=bool(seed % 2))
        m = 2 + seed % 8
        q, part, rep, enc = pipeline_parts(mesh, m, ke, kw)
        n = max(1, int(rep.ts.max())) if rep.ts.size else 1
        c = embed(enc, rep, n, rand_bits(rep.capacity(n), seed), kw)
        rec = recover(c, ke)
        assert rec == q
        err = np.abs(dequantize(rec).vertices - mesh.vertices).max()
        assert err < 10.0**-m

    @pytest.mark.parametrize("mesh", [fan_mesh(300), empty_ring_mesh()],
                             ids=["300-spoke-fan", "empty-rings"])
    @pytest.mark.parametrize("m", [2, 6])
    def test_exact_at_every_n(self, mesh, m, ke, kw):
        q, part, rep, enc = pipeline_parts(mesh, m, ke, kw)
        for n in range(1, q.l + 1):
            c = embed(enc, rep, n, rand_bits(rep.capacity(n), n), kw)
            assert recover(c, ke) == q

    def test_corrupt_excluded_bitmap_detected(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        c = embed(enc, rep, 1, rand_bits(3), kw)
        # checked once, at construction: wrong size for |C|=1
        with pytest.raises(ContainerError, match="excluded bitmap covers 0"):
            replace(c, excluded=np.zeros(0, dtype=np.uint8))

    def test_all_excluded_is_plain_decryption(self, ke, kw):
        mesh = random_mesh(33, n_max=60, smooth=False)
        q, part, rep, enc = pipeline_parts(mesh, 4, ke, kw)
        n = int(rep.ts.max()) + 1 if rep.ts.size else 1
        if n > q.l:
            pytest.skip("every vertex predicts perfectly; cannot exclude all")
        c = embed(enc, rep, n, np.empty(0, dtype=np.uint8), kw)
        assert (c.excluded == 1).all()
        rec = recover(c, ke)
        assert rec == decrypt_mesh(c, ke)
        assert rec == q

    def test_marked_r_vertices_decrypt_exactly(self, ke, kw):
        mesh = random_mesh(7, n_max=60, smooth=True)
        q, part, rep, enc = pipeline_parts(mesh, 4, ke, kw)
        n = max(1, int(rep.ts.max()))
        c = embed(enc, rep, n, rand_bits(rep.capacity(n), 3), kw)
        # R-vertex words in the marked container differ from the purely
        # encrypted mesh in zero bits
        ref0 = part.reference - 1
        assert np.array_equal(c.magnitudes[ref0], enc.magnitudes[ref0])
        rec = recover(c, ke)
        assert np.array_equal(rec.magnitudes[ref0], q.magnitudes[ref0])

    def test_tetrahedron_hand_trace(self, tetra_mesh, kw):
        # zero encryption stream + zero hiding stream: after embedding,
        # recovery must rebuild the overwritten planes by ring majority
        zero_ke = ZeroKey(KeyRole.ENCRYPT)
        zero_kw = ZeroKey(KeyRole.HIDE)
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, zero_ke, zero_kw)
        n = int(rep.ts[0])
        if n < 1:
            pytest.skip("tetrahedron vertex not embeddable at this m")
        payload = rand_bits(rep.capacity(n), 9)
        c = embed(enc, rep, n, payload, zero_kw)
        rec = recover(c, zero_ke)
        # by hand: every prediction plane k <= t of vertex 1 is the
        # majority bit of words of vertices 2, 3, 4
        ring_words = q.magnitudes[1:4]
        for axis in range(3):
            column = [int(w) for w in ring_words[:, axis]]
            for k in range(1, n + 1):
                u = q.l - k
                ones = sum((w >> u) & 1 for w in column)
                expected = 1 if ones * 2 > len(column) else 0
                assert (int(rec.magnitudes[0, axis]) >> u) & 1 == expected
        assert rec == q

    def test_wrong_role(self, tetra_mesh, ke, kw):
        q, part, rep, enc = pipeline_parts(tetra_mesh, 4, ke, kw)
        c = embed(enc, rep, 1, rand_bits(3), kw)
        with pytest.raises(ConfigError, match="role"):
            recover(c, kw)


class TestSeparability:
    def test_both_cases_on_one_container(self, ke, kw):
        mesh = random_mesh(20, n_max=80, smooth=True)
        q, part, rep, enc = pipeline_parts(mesh, 4, ke, kw)
        n = max(1, int(rep.ts.max()))
        payload = rand_bits(rep.capacity(n), 2)
        data = write_container(embed(enc, rep, n, payload, kw))
        # case 1: Kw alone extracts
        assert np.array_equal(extract(read_container(data), kw), payload)
        # case 2: Ke alone recovers
        assert recover(read_container(data), ke) == q

    def test_wrong_keys_learn_nothing(self, ke, kw):
        mesh = random_mesh(22, n_max=80, smooth=True)
        q, part, rep, enc = pipeline_parts(mesh, 5, ke, kw)
        n = max(1, int(rep.ts.max()))
        payload = rand_bits(max(128, rep.capacity(n) // 2), 4)[: rep.capacity(n)]
        assert payload.size >= 128
        c = embed(enc, rep, n, payload, kw)

        # hiding key used as encryption key: garbage mesh
        kw_as_ke = KeyMaterial(kw.key_bytes, KeyRole.ENCRYPT)
        bogus = recover(c, kw_as_ke)
        xor = bogus.magnitudes ^ q.magnitudes
        flipped = sum(int(w).bit_count() for w in xor.ravel())
        total = 3 * q.n_vertices * q.l
        assert flipped / total > 0.25

        # encryption key used as hiding key: garbage payload
        ke_as_kw = KeyMaterial(ke.key_bytes, KeyRole.HIDE)
        bogus_bits = extract(c, ke_as_kw)
        mismatch = int((bogus_bits != payload).sum()) / payload.size
        assert mismatch > 0.25


class TestPayloadBytes:
    def test_round_trip(self):
        data = bytes(range(37))
        bits = payload_to_bits(data)
        assert bits.size == 8 * len(data)
        assert bits_to_payload(bits) == data

    def test_msb_first(self):
        assert payload_to_bits(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        assert payload_to_bits(b"\x01").tolist() == [0, 0, 0, 0, 0, 0, 0, 1]


def test_pipeline_shares_the_parsed_faces_read_only(ke, kw):
    """parse -> quantize -> encrypt -> embed -> recover -> dequantize copies
    no face list, and every array of every form is read-only."""
    mesh = parse_mesh(write_mesh(grid_mesh(12), "off"), "off")
    q = quantize(mesh, 4)
    rep = analyze(q)
    enc = encrypt_mesh(q, ke)
    n = choose_n(rep)
    marked = embed(enc, rep, n, rand_bits(rep.capacity(n)), kw)
    rec = recover(marked, ke)
    assert rec == q
    out = dequantize(rec)
    for form in (q, enc, marked, rec, out):
        assert np.shares_memory(form.faces, mesh.faces)
    for form in (q, enc, marked, rec):
        assert form.partition is mesh.partition
    arrays = [mesh.vertices, mesh.faces, out.vertices, out.faces,
              rep.ts, rep.embedded, rep.capacity_curve,
              *(getattr(f, a) for f in (q, enc, marked, rec)
                for a in ("magnitudes", "signs", "faces")),
              enc.excluded, marked.excluded,
              *(getattr(mesh.partition, a) for a in ("embedded", "ring_flat", "ring_offsets"))]
    assert not any(arr.flags.writeable for arr in arrays)


class TestHidingFormatModel:
    """The library against the model of the v1 hiding format in
    oracles.py, on soups of at most 50 vertices, at every m and every n."""

    KE_PASS, KW_PASS = "model-owner", "model-hider"

    @pytest.mark.parametrize("m", range(2, 10))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quarters=st.integers(0, 4))
    def test_library_matches_model(self, m, seed, quarters):
        ke = KeyMaterial.from_passphrase(self.KE_PASS, KeyRole.ENCRYPT)
        kw = KeyMaterial.from_passphrase(self.KW_PASS, KeyRole.HIDE)
        q = quantize(random_mesh(seed, n_max=50), m)
        l, words, faces = q.l, q.magnitudes.tolist(), q.faces.tolist()
        embedded, _, rings, _ = brute_partition(q.n_vertices, faces)
        ts = brute_analyze(words, embedded, rings, l)[0]
        enc = encrypt_mesh(q, ke)
        enc_words = model_crypt(words, self.KE_PASS, l)
        assert enc.magnitudes.tolist() == enc_words
        rep = analyze(q)
        for n in range(1, l + 1):
            # an empty, a short (padded) or a full payload
            capacity = 3 * n * sum(t >= n for t in ts)
            payload = rand_bits(capacity * quarters // 4, seed)
            marked = embed(enc, rep, n, payload, kw)
            assert marked.magnitudes.tolist() == model_embed(
                enc_words, faces, ts, n, l, payload.tolist(), self.KW_PASS)
            assert marked.excluded.tolist() == [int(t < n) for t in ts]
            assert extract(marked, kw).tolist() == model_extract(
                marked.magnitudes.tolist(), faces, ts, n, l, payload.size, self.KW_PASS
            ) == payload.tolist()
            assert recover(marked, ke).magnitudes.tolist() == model_recover(
                marked.magnitudes.tolist(), faces, ts, n, l, self.KE_PASS) == words

    @pytest.mark.parametrize("m", range(2, 10))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quarters=st.integers(0, 4))
    def test_container_bytes_match_model(self, m, seed, quarters):
        """The owner's and every marked container, byte for byte."""
        ke = KeyMaterial.from_passphrase(self.KE_PASS, KeyRole.ENCRYPT)
        kw = KeyMaterial.from_passphrase(self.KW_PASS, KeyRole.HIDE)
        q = quantize(random_mesh(seed, n_max=50), m)
        l, words, faces, signs = q.l, q.magnitudes.tolist(), q.faces.tolist(), q.signs.tolist()
        embedded, _, rings, _ = brute_partition(q.n_vertices, faces)
        ts = brute_analyze(words, embedded, rings, l)[0]
        enc = encrypt_mesh(q, ke)
        enc_words = model_crypt(words, self.KE_PASS, l)
        assert write_container(enc) == model_container(
            m, l, 1, 0, signs, [1] * len(embedded), enc_words, faces)
        rep = analyze(q)
        for n in range(1, l + 1):
            payload = rand_bits(3 * n * sum(t >= n for t in ts) * quarters // 4, seed)
            marked_words = model_embed(enc_words, faces, ts, n, l, payload.tolist(),
                                       self.KW_PASS)
            assert write_container(embed(enc, rep, n, payload, kw)) == model_container(
                m, l, n, payload.size, signs, [int(t < n) for t in ts], marked_words, faces)

    def test_default_payload_is_the_payload_stream(self):
        kw = KeyMaterial.from_passphrase(self.KW_PASS, KeyRole.HIDE)
        assert default_payload(kw, 77).tolist() == model_stream_bits(
            self.KW_PASS, "payload", 77)
