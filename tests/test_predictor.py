from __future__ import annotations

import json

import numpy as np
import pytest

from rdh3d import (
    Mesh,
    analyze,
    choose_n,
    encrypt_mesh,
    quantize,
)
from rdh3d.errors import ConfigError
from rdh3d.partition import partition
from rdh3d.predictor import PredictionReport

from conftest import empty_ring_mesh, fan_mesh, random_mesh, rings_of
from oracles import (
    brute_analyze,
    brute_choose_n,
    brute_max_prefix_len,
    brute_partition,
    brute_predict_bit,
)


def one_ring_t(target, ring, m):
    """t of vertex 1 from analyze() on a fan mesh whose only embedded
    vertex is 1, with ring 2..k+1 carrying the x words `ring`.

    Every vertex shares one y and one z, so only x limits t. Words are
    placed half a unit above w / 10^m so quantize maps them back exactly.
    """
    verts = [[(w + 0.5) / 10**m, 0.5, 0.5] for w in [target, *ring]]
    k = len(ring)
    if k == 0:
        faces = [[1, 1, 1]]  # degenerate: vertex 1 embedded with an empty ring
    elif k == 1:
        faces = [[1, 2, 2]]
    else:
        faces = [[1, i, i + 1] for i in range(2, k + 1)]
    mesh = Mesh(np.array(verts), np.array(faces))
    q = quantize(mesh, m)
    assert q.magnitudes[:, 0].tolist() == [target, *ring]
    part = partition(mesh.n_vertices, mesh.faces)
    assert part.embedded.tolist() == [1]
    return int(analyze(q, part).ts[0])


class TestPredictBit:
    # m=4: words are below 10^4 < 2^14, so plane 13 (k = 3) is the top
    # plane that can hold a 1 and planes 15, 14 always agree.
    def test_strict_majority(self):
        # ring bits {0, 0, 1} at plane 13 predict 0
        ring = [0, 0, 8192]
        assert one_ring_t(0, ring, 4) == 16
        assert one_ring_t(8192, ring, 4) == 2
        assert brute_predict_bit(13, ring) == 0

    def test_tie_goes_to_zero(self):
        ring = [0, 8192]
        assert one_ring_t(0, ring, 4) == 16
        assert one_ring_t(8192, ring, 4) == 2
        assert brute_predict_bit(13, ring) == 0

    def test_majority_of_ones(self):
        ring = [8192, 8192, 0]
        assert one_ring_t(8192, ring, 4) == 16
        assert one_ring_t(0, ring, 4) == 2
        assert brute_predict_bit(13, ring) == 1

    def test_cow_ring_msb_is_zero(self, cow_mesh):
        # at m=6 every magnitude is far below 2^31, so the top plane of
        # the x words around vertex 1 must tally all zeros
        q = quantize(cow_mesh, 6)
        part = partition(cow_mesh.n_vertices, cow_mesh.faces)
        ring = rings_of(part)[1]
        assert ring.tolist() == [2, 3, 4, 5, 7, 8]
        ring_words = [int(q.magnitudes[v - 1, 0]) for v in ring]
        assert brute_predict_bit(q.l - 1, ring_words) == 0

    def test_all_zero_ring_runs_no_plane(self):
        # every ring word is 0, so no plane is counted and the prediction
        # is 0: t is l minus the bit length of the target, 16 - 3
        assert one_ring_t(5, [0, 0], 4) == 13
        assert brute_max_prefix_len(5, [0, 0], 16) == 13

    def test_300_member_ring(self):
        # one ring of 300 members at a fan apex; ties still go to 0
        tie = [8192] * 150 + [0] * 150
        assert one_ring_t(0, tie, 4) == 16
        assert one_ring_t(8192, tie, 4) == 2
        ones = [8192] * 151 + [0] * 149
        assert one_ring_t(8192, ones, 4) == 16
        assert one_ring_t(0, ones, 4) == 2
        ring = [int(w) for w in np.random.default_rng(3).integers(4000, 4400, 300)]
        for target in (4100, 4200, 4300, 8191):
            assert one_ring_t(target, ring, 4) == brute_max_prefix_len(target, ring, 16)


class TestMaxPrefixLen:
    def test_identical_ring_gives_full_length(self):
        assert one_ring_t(2888, [2888, 2888, 2888], 4) == 16

    def test_empty_ring_gives_zero(self):
        assert one_ring_t(0, [], 4) == 0
        assert one_ring_t(8192, [], 4) == 0

    def test_worked_example_value_16(self, cow_mesh):
        # reconstruction of the m=6 worked example: the x word of vertex 1
        # with a ring agreeing on exactly the top 16 planes gives t1 = 16
        q = quantize(cow_mesh, 6)
        target = int(q.magnitudes[0, 0])
        assert target == 180757
        ring_word = target ^ (1 << 15)
        ring = [ring_word, ring_word, ring_word]
        assert brute_max_prefix_len(target, ring, 32) == 16
        assert one_ring_t(target, ring, 6) == 16

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_plane_by_plane_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.choice([2, 4, 6]))
        l = {2: 8, 4: 16, 6: 32}[m]
        target = int(rng.integers(0, 10**m))
        ring = [int(w) for w in rng.integers(0, 10**m, size=rng.integers(1, 9))]
        assert one_ring_t(target, ring, m) == brute_max_prefix_len(target, ring, l)


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
        encrypt_mesh(q, part, ke)  # must not mutate q
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

    @pytest.mark.parametrize("mesh", [fan_mesh(300), empty_ring_mesh()],
                             ids=["300-spoke-fan", "empty-rings"])
    @pytest.mark.parametrize("m", [2, 4, 6, 9])
    def test_edge_meshes_match_brute_force(self, mesh, m):
        q = quantize(mesh, m)
        part = partition(mesh.n_vertices, mesh.faces)
        emb, _, rings, _ = brute_partition(mesh.n_vertices, mesh.faces)
        ts, curve = brute_analyze(q.magnitudes.tolist(), emb, rings, q.l)
        rep = analyze(q, part)
        assert rep.ts.tolist() == ts
        assert rep.capacity_curve.tolist() == curve

    def test_partition_of_another_mesh_rejected(self):
        # embedded vertex 4 does not exist in a 3-vertex mesh
        q = quantize(Mesh(np.full((3, 3), 0.25), np.array([[1, 2, 3]])), 4)
        with pytest.raises(ConfigError, match="another mesh"):
            analyze(q, partition(4, [[4, 1, 2]]))

    def test_partition_with_foreign_ring_ids_rejected(self):
        # embedded vertices 1 and 2 exist, but their rings name 4, 5, 6
        q = quantize(Mesh(np.full((3, 3), 0.25), np.array([[1, 2, 3]])), 4)
        part = partition(6, [[1, 4, 5], [2, 3, 6]])
        assert int(part.embedded.max()) <= 3 < int(part.ring_flat.max())
        with pytest.raises(ConfigError, match="another mesh"):
            analyze(q, part)

    def test_json_round_trip(self):
        mesh = random_mesh(4, n_max=40)
        q = quantize(mesh, 3)
        rep = analyze(q, partition(mesh.n_vertices, mesh.faces))
        back = PredictionReport.from_json_dict(rep.to_json_dict())
        assert np.array_equal(back.ts, rep.ts)
        assert np.array_equal(back.capacity_curve, rep.capacity_curve)
        assert (back.m, back.l) == (rep.m, rep.l)

    def test_json_round_trip_without_faces(self):
        mesh = Mesh(np.full((3, 3), 0.25), np.empty((0, 3)))
        doc = json.loads(json.dumps(analyze(quantize(mesh, 4), mesh.partition).to_json_dict()))
        assert doc["embedded"] == doc["max_prefix_lengths"] == []
        back = PredictionReport.from_json_dict(doc)
        assert (back.ts.size, back.embedded.size, back.m) == (0, 0, 4)

    @pytest.mark.parametrize("key, value", [
        ("m", 4.0), ("m", "4"), ("l", 16.0), ("l", True),
        ("max_prefix_lengths", "tamper"), ("embedded", "tamper"),
        ("capacity_curve", "tamper"),
    ])
    def test_json_non_integer_rejected(self, key, value):
        mesh = random_mesh(4, n_max=40, smooth=True)
        doc = analyze(quantize(mesh, 4), mesh.partition).to_json_dict()
        if value == "tamper":
            value = [float(doc[key][0]), *doc[key][1:]]
        doc[key] = value
        with pytest.raises(ConfigError, match=f"{key} must hold JSON integers"):
            PredictionReport.from_json_dict(doc)

    @pytest.mark.parametrize("tamper", ["inflated", "zeroed", "raised_first",
                                        "short", "nested"])
    def test_json_curve_contradicting_ts_rejected(self, tamper):
        mesh = random_mesh(4, n_max=40, smooth=True)
        doc = analyze(quantize(mesh, 4), partition(mesh.n_vertices, mesh.faces)).to_json_dict()
        curve = doc["capacity_curve"]
        assert max(curve) > 0
        doc["capacity_curve"] = {
            "inflated": [10 * c for c in curve],
            "zeroed": [0] * len(curve),
            "raised_first": [max(curve) + 1] + curve[1:],
            "short": curve[:-1],
            "nested": [curve],
        }[tamper]
        with pytest.raises(ConfigError, match="capacity_curve contradicts"):
            PredictionReport.from_json_dict(doc)

    @pytest.mark.parametrize("t", [-1, 17])
    def test_json_t_outside_word_rejected(self, t):
        mesh = random_mesh(4, n_max=40, smooth=True)
        doc = analyze(quantize(mesh, 4), partition(mesh.n_vertices, mesh.faces)).to_json_dict()
        doc["max_prefix_lengths"][0] = t
        with pytest.raises(ConfigError, match="in 0..16"):
            PredictionReport.from_json_dict(doc)

    @pytest.mark.parametrize("l", [8, 32, 64])
    def test_json_l_contradicting_m_rejected(self, l):
        mesh = random_mesh(4, n_max=40)
        doc = analyze(quantize(mesh, 4), partition(mesh.n_vertices, mesh.faces)).to_json_dict()
        assert doc["l"] == 16
        doc["l"] = l
        with pytest.raises(ConfigError, match="contradicts m=4"):
            PredictionReport.from_json_dict(doc)


class TestChooseN:
    def test_single_peak(self):
        rep = PredictionReport(ts=np.array([16] * 10), m=5, embedded=np.arange(1, 11))
        assert rep.capacity_curve.argmax() == 15
        assert choose_n(rep) == 16

    def test_all_equal_tie_breaks_small(self):
        # an all-zero curve, and a curve whose maximum 6 sits at n=1 and n=2
        for ts in ([0], [1, 2]):
            rep = PredictionReport(ts=np.array(ts), m=4, embedded=np.arange(1, len(ts) + 1))
            assert rep.capacity_curve[0] == rep.capacity_curve.max()
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
    rings = rings_of(part)
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
                assert brute_predict_bit(u, words) == (target >> u) & 1
