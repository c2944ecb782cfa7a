from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from rdh3d import (
    Mesh,
    analyze,
    choose_n,
    dequantize,
    embedding_rate,
    encrypt_mesh,
    hausdorff,
    quantize,
    snr,
)
from rdh3d import metrics
from rdh3d.errors import DomainError

from conftest import grid_mesh, random_mesh, signed_ints
from oracles import brute_hausdorff, kdtree_hausdorff, snr_db


class TestHausdorff:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 3))
        assert hausdorff(pts, pts) == 0.0

    def test_single_pair(self):
        assert hausdorff([[0, 0, 0]], [[3, 4, 0]]) == 5.0

    def test_symmetric(self):
        a = np.random.default_rng(1).uniform(-1, 1, size=(20, 3))
        b = np.random.default_rng(2).uniform(-1, 1, size=(35, 3))
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_subset_is_one_directional(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        b = np.array([[0.0, 0, 0]])
        # h(a,b) = 1, h(b,a) = 0
        assert hausdorff(a, b) == 1.0

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=(rng.integers(1, 30), 3))
        b = rng.uniform(-1, 1, size=(rng.integers(1, 30), 3))
        expected = brute_hausdorff(a.tolist(), b.tolist())
        assert hausdorff(a, b) == pytest.approx(expected, rel=1e-12)
        assert hausdorff(a, b, method="kdtree") == pytest.approx(expected, rel=1e-12)

    def test_kdtree_equals_brute(self):
        a = np.random.default_rng(5).uniform(-1, 1, size=(400, 3))
        b = a + 1e-4
        assert hausdorff(a, b, method="kdtree") == pytest.approx(
            brute_hausdorff(a.tolist(), b.tolist()), rel=1e-12
        )

    def test_kdtree_is_the_only_method(self):
        with pytest.raises(ValueError, match="unknown hausdorff method 'brute'"):
            hausdorff([[0, 0, 0]], [[1, 0, 0]], method="brute")

    def test_pipeline_distance_bound(self, ke, kw):
        # float-level distance between original and recovered mesh is
        # bounded by the quantization cell diagonal sqrt(3) * 10^-m
        from rdh3d import embed, extract, recover

        mesh = random_mesh(17, n_max=120, smooth=True)
        m = 4
        q = quantize(mesh, m)
        rep = analyze(q)
        n = choose_n(rep)
        payload = np.random.default_rng(0).integers(0, 2, rep.capacity(n)).astype(np.uint8)
        c = embed(encrypt_mesh(q, ke), rep, n, payload, kw)
        rec = recover(c, ke)
        assert rec == q
        # integer level: exactly zero
        assert hausdorff(signed_ints(rec), signed_ints(q)) == 0.0
        # float level
        d = hausdorff(mesh.vertices, dequantize(rec).vertices)
        assert d <= math.sqrt(3) * 10.0**-m

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            hausdorff(np.empty((0, 3)), [[0, 0, 0]])

    def test_takes_meshes(self, tetra_mesh):
        assert hausdorff(tetra_mesh, tetra_mesh) == 0.0

    @pytest.mark.parametrize("method", ["kdtree"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, method, bad):
        a = np.zeros((3, 3))
        b = a + 0.5
        b[1, 2] = bad
        with pytest.raises(DomainError, match="finite"):
            hausdorff(a, b, method=method)


def quantized_pair(mesh, m):
    return mesh.vertices, dequantize(quantize(mesh, m)).vertices


def coarse_grid_pair(side, m=2):
    """A grid finer than the quantization cell: many vertices land
    nearer another vertex's copy than their own."""
    return quantized_pair(grid_mesh(side, scale=0.05), m)


@st.composite
def equal_size_pairs(draw):
    """Two (n, 3) point sets of one size, of the kinds where the pairing
    bound is loose, tight or tied."""
    kind = draw(st.sampled_from(["unrelated", "duplicated", "ties", "coarse", "single"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    if kind == "unrelated":
        return rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 3))
    if kind == "duplicated":
        # repeated points in both sets, partners a short step apart
        a = rng.uniform(-1, 1, (n, 3))[rng.integers(0, max(1, n // 4), n)]
        return a, a[rng.permutation(n)] + rng.normal(0, 1e-3, (n, 3))
    if kind == "ties":
        # lattice points moved by one shared vector: every pair distance
        # equals the maximum, and so do many nearest-neighbour distances
        a = rng.integers(-4, 5, (n, 3)) / 8.0
        return a, a + rng.integers(-2, 3, 3) / 16.0
    if kind == "coarse":
        return coarse_grid_pair(draw(st.integers(3, 12)))
    return rng.uniform(-1, 1, (1, 3)), rng.uniform(-1, 1, (1, 3))


class TestPairedHausdorff:
    """hausdorff(a, b) with |a| = |b| bounds every query by the partner
    distance |a_i - b_i| and must still equal two full kd-tree queries."""

    @pytest.mark.parametrize("m", range(2, 10))
    @pytest.mark.parametrize("mesh", [grid_mesh(40), random_mesh(3, n_max=400)],
                             ids=["grid", "random"])
    def test_quantized_pairs_equal_two_trees(self, mesh, m):
        a, b = quantized_pair(mesh, m)
        assert hausdorff(a, b) == kdtree_hausdorff(a, b)
        assert hausdorff(b, a) == kdtree_hausdorff(b, a)

    @settings(max_examples=300, deadline=None)
    @given(equal_size_pairs())
    def test_equal_size_pairs_equal_two_trees(self, pair):
        a, b = pair
        assert hausdorff(a, b) == kdtree_hausdorff(a, b)
        assert hausdorff(a, b) == pytest.approx(brute_hausdorff(a.tolist(), b.tolist()),
                                                rel=1e-12)

    def test_nearest_neighbour_not_the_partner(self):
        a, b = coarse_grid_pair(30)
        nearest = cKDTree(b).query(a, k=1)[1]
        assert (nearest != np.arange(len(a))).mean() > 0.5
        assert hausdorff(a, b) == kdtree_hausdorff(a, b)

    def test_candidate_just_above_the_best(self):
        # a0's partner is far but b2 lies 0.05 away, so the first search
        # finds 0.05; a1's partner distance exceeds that by 1e-9 and is
        # its nearest distance, so a1 must still be searched.
        a = np.array([[0.0, 0, 0], [0.5, 0.5, 0.5], [0.05, 0, 0]])
        b = np.array([[0.9, 0, 0], [0.55 + 1e-9, 0.5, 0.5], [0.05, 0, 0]])
        directed = metrics._directed_paired(a, b, metrics._sq_dist(a, b))
        assert directed == cKDTree(b).query(a, k=1)[0].max()
        assert directed > 0.05

    def test_unequal_sizes_take_the_two_tree_path(self, monkeypatch):
        def no_pairing(*args):
            raise AssertionError("unequal point sets have no pairing")

        monkeypatch.setattr(metrics, "_directed_paired", no_pairing)
        a, b = quantized_pair(grid_mesh(20), 4)
        assert hausdorff(a, b[:-1]) == kdtree_hausdorff(a, b[:-1])
        assert hausdorff(a[5:], b) == kdtree_hausdorff(a[5:], b)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_quantized_pair_builds_no_tree(self, monkeypatch, m):
        a, b = quantized_pair(grid_mesh(40), m)
        expected = kdtree_hausdorff(a, b)

        def no_tree(*args, **kwargs):
            raise AssertionError("the pairing bound settles a quantized pair")

        monkeypatch.setattr(metrics, "cKDTree", no_tree)
        assert hausdorff(a, b) == expected

    def test_loose_bound_falls_back_to_one_tree(self, monkeypatch):
        built = []

        def counting_tree(points):
            built.append(len(points))
            return cKDTree(points)

        monkeypatch.setattr(metrics, "cKDTree", counting_tree)
        rng = np.random.default_rng(4)
        a, b = rng.uniform(-1, 1, (500, 3)), rng.uniform(-1, 1, (500, 3))
        assert hausdorff(a, b) == kdtree_hausdorff(a, b)
        assert built == [500, 500]

    @pytest.mark.parametrize("pair", ["quantized", "offset"])
    def test_distance_routines_agree(self, pair):
        # The pruning compares pair distances from metrics._sq_dist with
        # nearest distances from the same routine; the bit-identical
        # result also needs cKDTree to round every distance the same
        # way. Here each b_i is the nearest point of a_i, so the
        # tree reports the pair distance itself.
        rng = np.random.default_rng(9)
        if pair == "quantized":
            a, b = quantized_pair(grid_mesh(64), 6)
        else:
            a = rng.uniform(-1, 1, (4096, 3))
            b = a + rng.normal(0, 1e-6, a.shape)
        paired = np.sqrt(metrics._sq_dist(a, b))
        tree_d, tree_i = cKDTree(b).query(a, k=1)
        assert np.array_equal(tree_i, np.arange(len(a)))
        assert np.array_equal(tree_d, paired)


class TestSnr:
    def test_identical_returns_inf(self, tetra_mesh):
        assert snr(tetra_mesh, tetra_mesh) == math.inf

    def test_two_vertex_hand_computation(self):
        v = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
        g = v.copy()
        g[0, 0] += 0.01
        original = Mesh(v, np.empty((0, 3)))
        modified = Mesh(g, np.empty((0, 3)))
        center = v.mean(axis=0)
        signal = ((v - center) ** 2).sum()
        assert snr(original, modified) == pytest.approx(
            10 * math.log10(signal / 0.01**2)
        )

    def test_recovered_snr_grows_with_m(self, ke):
        mesh = grid_mesh(12)
        values = []
        for m in range(2, 10):
            rec = dequantize(quantize(mesh, m))
            values.append(snr(mesh, rec))
            assert values[-1] == pytest.approx(
                snr_db(mesh.vertices, rec.vertices), rel=1e-9)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_vertex_count_mismatch(self):
        with pytest.raises(DomainError, match="mismatch"):
            snr(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_zero_variance_rejected(self):
        flat = np.full((4, 3), 0.25)
        with pytest.raises(DomainError, match="variance"):
            snr(flat, flat + 0.01)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            snr(np.empty((0, 3)), np.empty((0, 3)))


class TestEmbeddingRate:
    def test_reference_ratio(self):
        # 16312 bits over 988 vertices is within a hundredth of 16.51 bpv
        assert embedding_rate(16312, 988) == pytest.approx(16.51, abs=0.01)

    def test_zero_bits(self):
        assert embedding_rate(0, 100) == 0.0

    def test_tetrahedron(self):
        assert embedding_rate(3, 4) == 0.75

    def test_zero_vertices_rejected(self):
        with pytest.raises(DomainError):
            embedding_rate(1, 0)
