from __future__ import annotations

import math

import numpy as np
import pytest

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
from rdh3d.errors import DomainError
from rdh3d.partition import partition

from conftest import grid_mesh, random_mesh, signed_ints
from oracles import brute_hausdorff


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
            hausdorff(a, b, method="brute"), rel=1e-12
        )

    def test_pipeline_distance_bound(self, ke, kw):
        # float-level distance between original and recovered mesh is
        # bounded by the quantization cell diagonal sqrt(3) * 10^-m
        from rdh3d import embed, extract, recover

        mesh = random_mesh(17, n_max=120, smooth=True)
        m = 4
        q = quantize(mesh, m)
        part = partition(mesh.n_vertices, mesh.faces)
        rep = analyze(q, part)
        n = choose_n(rep)
        payload = np.random.default_rng(0).integers(0, 2, rep.capacity(n)).astype(np.uint8)
        c = embed(encrypt_mesh(q, part, ke), rep, n, payload, kw)
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


class TestSnr:
    def test_identical_returns_inf(self, tetra_mesh):
        assert snr(tetra_mesh, tetra_mesh) == math.inf
        assert snr(tetra_mesh, tetra_mesh, noise_ref="original") == math.inf

    def test_two_vertex_hand_computation(self):
        v = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
        g = v.copy()
        g[0, 0] += 0.01
        original = Mesh(v, np.empty((0, 3)))
        modified = Mesh(g, np.empty((0, 3)))
        center = v.mean(axis=0)
        signal = ((v - center) ** 2).sum()
        assert snr(original, modified) == pytest.approx(
            10 * math.log10(signal / ((g - center) ** 2).sum())
        )
        assert snr(original, modified, noise_ref="original") == pytest.approx(
            10 * math.log10(signal / 0.01**2)
        )

    def test_recovered_snr_grows_with_m(self, ke):
        mesh = grid_mesh(12)
        values = []
        for m in range(2, 10):
            rec = dequantize(quantize(mesh, m))
            values.append(snr(mesh, rec, noise_ref="original"))
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
