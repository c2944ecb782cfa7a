from __future__ import annotations

import numpy as np
import pytest

from rdh3d import (
    Mesh,
    KeyMaterial,
    KeyRole,
    analyze,
    choose_n,
    encrypt_mesh,
    max_prefix_len,
    predict_bit,
    quantize,
)
from rdh3d.errors import ConfigError
from rdh3d.partition import partition
from rdh3d.predictor import PredictionReport

from conftest import random_mesh
from oracles import brute_analyze, brute_choose_n, brute_max_prefix_len, brute_partition


class TestPredictBit:
    def test_strict_majority(self):
        # ring MSBs {0, 0, 1} at the top plane
        l = 8
        ring = [0b0000_0000, 0b0000_0001, 0b1000_0000]
        assert predict_bit(l - 1, ring, l) == 0

    def test_tie_goes_to_zero(self):
        ring = [0b0000_0000, 0b1000_0000]
        assert predict_bit(7, ring, 8) == 0

    def test_majority_of_ones(self):
        ring = [0b1000_0000, 0b1000_0000, 0b0000_0000]
        assert predict_bit(7, ring, 8) == 1

    def test_cow_ring_msb_is_zero(self, cow_mesh):
        # at m=6 every magnitude is far below 2^31, so the top plane of
        # the x words around vertex 1 must tally all zeros
        q = quantize(cow_mesh, 6)
        part = partition(cow_mesh.n_vertices, cow_mesh.faces)
        ring = part.rings()[1]
        assert ring.tolist() == [2, 3, 4, 5, 7, 8]
        ring_words = [int(q.magnitudes[v - 1, 0]) for v in ring]
        assert predict_bit(q.l - 1, ring_words, q.l) == 0

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError, match="empty ring"):
            predict_bit(0, [], 8)


class TestMaxPrefixLen:
    def test_identical_ring_gives_full_length(self):
        assert max_prefix_len(2888, [2888, 2888, 2888], 16) == 16

    def test_worked_example_value_16(self, cow_mesh):
        # reconstruction of the m=6 worked example: the x word of vertex 1
        # with a ring agreeing on exactly the top 16 planes gives t1 = 16
        q = quantize(cow_mesh, 6)
        target = int(q.magnitudes[0, 0])
        assert target == 180757
        ring_word = target ^ (1 << 15)
        ring = [ring_word, ring_word, ring_word]
        assert brute_max_prefix_len(target, ring, 32) == 16
        assert max_prefix_len(target, ring, 32) == 16

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_plane_by_plane_oracle(self, seed):
        rng = np.random.default_rng(seed)
        l = int(rng.choice([8, 16, 32]))
        target = int(rng.integers(0, 2**l))
        ring = [int(w) for w in rng.integers(0, 2**l, size=rng.integers(1, 9))]
        assert max_prefix_len(target, ring, l) == brute_max_prefix_len(target, ring, l)

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError, match="empty ring"):
            max_prefix_len(1, [], 8)


class TestAnalyze:
    def test_identical_magnitudes_full_capacity(self):
        n_verts = 9
        verts = np.full((n_verts, 3), 0.123456)
        rng = np.random.default_rng(1)
        faces = rng.integers(1, n_verts + 1, size=(12, 3))
        mesh = Mesh(verts, faces)
        q = quantize(mesh, 4)
        part = partition(mesh.n_vertices, mesh.faces)
        rep = analyze(q, part)
        k = part.n_embedded
        degenerate = {f[0] for f in mesh.faces.tolist() if len(set(f)) == 1}
        if not degenerate & set(part.embedded.tolist()):
            assert (rep.ts == q.l).all()
            expected = [3 * n * k for n in range(1, q.l + 1)]
            assert rep.capacity_curve.tolist() == expected

    def test_excluded_monotone_and_formula(self):
        mesh = random_mesh(5, n_max=100)
        q = quantize(mesh, 5)
        part = partition(mesh.n_vertices, mesh.faces)
        rep = analyze(q, part)
        k = part.n_embedded
        prev = -1
        for n in range(1, q.l + 1):
            exc = int(rep.excluded_mask(n).sum())
            assert exc >= prev
            prev = exc
            assert rep.capacity_curve[n - 1] == 3 * n * (k - exc)

    def test_curve_zero_past_max_t(self):
        mesh = random_mesh(9, n_max=100)
        q = quantize(mesh, 4)
        rep = analyze(q, partition(mesh.n_vertices, mesh.faces))
        if rep.ts.size:
            t_max = int(rep.ts.max())
            assert (rep.capacity_curve[t_max:] == 0).all()

    def test_unchanged_by_encryption(self, ke):
        mesh = random_mesh(2, n_max=60)
        q = quantize(mesh, 4)
        part = partition(mesh.n_vertices, mesh.faces)
        before = analyze(q, part)
        encrypt_mesh(q, ke)  # must not mutate q
        after = analyze(q, part)
        assert np.array_equal(before.ts, after.ts)
        assert np.array_equal(before.capacity_curve, after.capacity_curve)

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_matches_brute_force(self, seed, m):
        mesh = random_mesh(seed, n_min=4, n_max=30)
        q = quantize(mesh, m)
        part = partition(mesh.n_vertices, mesh.faces)
        rep = analyze(q, part)
        emb, _, rings, _ = brute_partition(mesh.n_vertices, mesh.faces)
        ts, curve = brute_analyze(q.magnitudes.tolist(), emb, rings, q.l)
        assert rep.ts.tolist() == ts
        assert rep.capacity_curve.tolist() == curve

    def test_json_round_trip(self):
        mesh = random_mesh(4, n_max=40)
        q = quantize(mesh, 3)
        rep = analyze(q, partition(mesh.n_vertices, mesh.faces))
        back = PredictionReport.from_json_dict(rep.to_json_dict())
        assert np.array_equal(back.ts, rep.ts)
        assert np.array_equal(back.capacity_curve, rep.capacity_curve)
        assert (back.m, back.l) == (rep.m, rep.l)


class TestChooseN:
    def test_single_peak(self):
        rep = PredictionReport(
            ts=np.array([16] * 10), capacity_curve=np.zeros(32, dtype=np.int64),
            m=5, l=32, embedded=np.arange(1, 11),
        )
        rep.capacity_curve[15] = 100
        assert choose_n(rep) == 16

    def test_all_equal_tie_breaks_small(self):
        rep = PredictionReport(
            ts=np.array([8]), capacity_curve=np.full(16, 5, dtype=np.int64),
            m=4, l=16, embedded=np.array([1]),
        )
        assert choose_n(rep) == 1

    def test_requested_passthrough_and_validation(self):
        mesh = random_mesh(1, n_max=40)
        q = quantize(mesh, 4)
        rep = analyze(q, partition(mesh.n_vertices, mesh.faces))
        assert choose_n(rep, 7) == 7
        with pytest.raises(ConfigError):
            choose_n(rep, 0)
        with pytest.raises(ConfigError):
            choose_n(rep, q.l + 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_linear_scan(self, seed):
        mesh = random_mesh(seed, n_max=60)
        q = quantize(mesh, 5)
        rep = analyze(q, partition(mesh.n_vertices, mesh.faces))
        assert choose_n(rep) == brute_choose_n(rep.capacity_curve.tolist())


def test_recoverability_guarantee():
    # for every embedded vertex and every k <= t, re-predicting plane
    # l-k from the ring reproduces the true bit
    mesh = random_mesh(21, n_max=80, smooth=True)
    q = quantize(mesh, 4)
    part = partition(mesh.n_vertices, mesh.faces)
    rep = analyze(q, part)
    rings = part.rings()
    for i, cv in enumerate(part.embedded.tolist()):
        t = int(rep.ts[i])
        ring = rings[cv]
        if ring.size == 0:
            assert t == 0
            continue
        for axis in range(3):
            words = [int(q.magnitudes[v - 1, axis]) for v in ring]
            target = int(q.magnitudes[cv - 1, axis])
            for k in range(1, t + 1):
                u = q.l - k
                assert predict_bit(u, words, q.l) == (target >> u) & 1
