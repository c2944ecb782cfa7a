from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdh3d import MarkedContainer, Mesh, QuantizedMesh, bit_length, dequantize, quantize
from rdh3d.quantize import embedding_length
from rdh3d.errors import ConfigError, DomainError

from conftest import grid_mesh, signed_ints
from oracles import floor_scaled


def one_vertex_mesh(x, y=0.0, z=0.0):
    return Mesh(np.array([[x, y, z]]), np.empty((0, 3)))


class TestQuantize:
    def test_worked_example(self):
        mesh = one_vertex_mesh(-0.202018, -0.0740184, 0.288808)
        q = quantize(mesh, 4)
        assert q.magnitudes[0].tolist() == [2020, 740, 2888]
        assert q.signs[0].tolist() == [1, 1, 0]
        assert q.l == 16
        assert signed_ints(q)[0].tolist() == [-2020, -740, 2888]

    def test_zero(self):
        for m in range(2, 10):
            q = quantize(one_vertex_mesh(0.0, 0.0, 0.0), m)
            assert q.magnitudes[0].tolist() == [0, 0, 0]
            assert q.signs[0].tolist() == [0, 0, 0]

    def test_negative_zero_has_positive_sign(self):
        q = quantize(one_vertex_mesh(-0.0), 4)
        assert q.signs[0, 0] == 0

    def test_near_one(self):
        q = quantize(one_vertex_mesh(0.999999), 2)
        assert q.magnitudes[0, 0] == 99

    def test_decimal_boundary_is_exact(self):
        # The double 0.03 is just below 3/100 yet 0.03 * 100 rounds up to
        # exactly 3.0; flooring the float product would overshoot to 3.
        assert Fraction(0.03) < Fraction(3, 100) and 0.03 * 100 >= 3
        q = quantize(one_vertex_mesh(0.03, -0.999, 0.0007), 3)
        assert q.magnitudes[0].tolist() == [29, 998, 0]
        q2 = quantize(one_vertex_mesh(0.03), 2)
        assert q2.magnitudes[0, 0] == 2

    def test_sign_rows_must_match_magnitude_rows(self, tetra_mesh):
        q = quantize(tetra_mesh, 4)
        with pytest.raises(ValueError, match="3 sign rows for 4 vertices"):
            QuantizedMesh(q.magnitudes, q.signs[:3], q.m, q.faces)

    def test_m_checked_at_construction(self):
        q = quantize(grid_mesh(10), 4)
        assert q.magnitudes.max() > 2**8  # too wide for the 8-bit words of m=2
        with pytest.raises(ValueError, match="does not fit the declared word length"):
            replace(q, m=2)
        with pytest.raises(ValueError, match=r"precision m=12 outside"):
            replace(q, m=12)

    @pytest.mark.parametrize("sign", [2, 255])
    def test_sign_other_than_0_or_1_rejected(self, tetra_mesh, sign):
        # a sign of 2 would read as positive, yet pack as 1 in a container
        q = quantize(tetra_mesh, 4)
        signs = q.signs.copy()
        signs[1, 2] = sign
        with pytest.raises(ValueError, match="sign bits must be 0 or 1"):
            replace(q, signs=signs)

    def test_faces_copied(self, tetra_mesh):
        q = quantize(tetra_mesh, 4)
        assert np.array_equal(q.faces, tetra_mesh.faces)

    def test_out_of_domain_names_vertex(self):
        mesh = Mesh(np.array([[0.1, 0, 0], [0.2, 1.5, 0]]), np.empty((0, 3)))
        with pytest.raises(DomainError, match="vertex 2"):
            quantize(mesh, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="vertex 1"):
            quantize(one_vertex_mesh(float("nan")), 4)

    @pytest.mark.parametrize("m", [0, 1, 10, -3])
    def test_m_out_of_range(self, m):
        with pytest.raises(ConfigError):
            quantize(one_vertex_mesh(0.1), m)

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.floats(-1, 1, exclude_min=True, exclude_max=True,
                    allow_nan=False, width=64),
        m=st.integers(2, 9),
    )
    def test_floor_is_exact_property(self, v, m):
        q = quantize(one_vertex_mesh(v), m)
        mag = int(q.magnitudes[0, 0])
        exact = Fraction(abs(v))
        assert Fraction(mag, 10**m) <= exact < Fraction(mag + 1, 10**m)
        assert (q.signs[0, 0] == 1) == (v < 0)


@st.composite
def decimal_printed(draw):
    """k / 10^d as a file printed with d decimals holds it, or one of its
    one-ulp neighbours; either sign."""
    d = draw(st.integers(1, 12))
    v = draw(st.integers(0, 10**d - 1)) / 10**d
    v = draw(st.sampled_from([v, math.nextafter(v, -1.0), math.nextafter(v, 1.0)]))
    return -v if draw(st.booleans()) else v


class TestExactFloor:
    """quantize's vectorized floor against Fraction and the integer oracle."""

    @pytest.mark.parametrize("m", range(2, 10))
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(
        st.one_of(
            decimal_printed(),
            st.floats(-1, 1, exclude_min=True, exclude_max=True,
                      allow_nan=False, width=64),
        ),
        min_size=3, max_size=30,
    ))
    def test_property(self, m, values):
        values = values[: len(values) // 3 * 3]
        q = quantize(Mesh(np.array(values).reshape(-1, 3), np.empty((0, 3))), m)
        for v, mag in zip(values, q.magnitudes.ravel().tolist()):
            assert mag == floor_scaled(v, m)
            assert Fraction(mag, 10**m) <= Fraction(abs(v)) < Fraction(mag + 1, 10**m)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_decimal_grid(self, m):
        """Every d in 2..9: k / 10^d and its one-ulp neighbours."""
        rng = np.random.default_rng(m)
        for d in range(2, 10):
            k = np.concatenate([[0, 1, 10**d - 1], rng.integers(0, 10**d, 300)])
            v = k / float(10**d)
            v = np.concatenate([v, np.nextafter(v, -1.0), np.nextafter(v, 1.0)])
            q = quantize(Mesh(v.reshape(-1, 3), np.empty((0, 3))), m)
            expected = [floor_scaled(x, m) for x in v.tolist()]
            assert q.magnitudes.ravel().tolist() == expected


class TestDequantize:
    def test_worked_example_reversed(self):
        q = quantize(one_vertex_mesh(-0.202018), 4)
        assert dequantize(q).vertices[0, 0] == -0.2020

    def test_zero_magnitude(self):
        q = quantize(one_vertex_mesh(0.0), 4)
        assert dequantize(q).vertices[0, 0] == 0.0

    @pytest.mark.parametrize("m", range(2, 10))
    def test_round_trip_error_bound(self, m):
        rng = np.random.default_rng(m)
        verts = rng.uniform(-1, 1, size=(10_000, 3)) * 0.9999999
        mesh = Mesh(verts, np.empty((0, 3)))
        back = dequantize(quantize(mesh, m))
        assert np.abs(back.vertices - verts).max() < 10.0**-m

    def test_faces_survive(self, tetra_mesh):
        back = dequantize(quantize(tetra_mesh, 4))
        assert np.array_equal(back.faces, tetra_mesh.faces)

    def test_coordinates_at_unit_scale_are_signed_words(self):
        """A container's words have no decimals, a QuantizedMesh's m."""
        q = quantize(one_vertex_mesh(-0.202018, 0.5, -0.00001), 4)
        c = MarkedContainer(4, 1, 0, q.signs, np.empty(0, np.uint8), q.magnitudes, q.faces)
        for value, coords in ((c, [-2020.0, 5000.0, -0.0]), (q, [-0.202, 0.5, -0.0])):
            got = value.coordinates().vertices[0]
            assert got.tolist() == coords
            assert np.signbit(got[2])


@pytest.mark.parametrize("bad_id", [0, 5])
def test_quantized_mesh_face_id_outside_the_vertices_rejected(tetra_mesh, bad_id):
    q = quantize(tetra_mesh, 4)
    faces = q.faces.copy()
    faces[0, 0] = bad_id
    with pytest.raises(ValueError, match=r"face ids must lie in 1\.\.4"):
        QuantizedMesh(q.magnitudes, q.signs, q.m, faces)


class TestEmbeddingLength:
    @pytest.mark.parametrize("n,l", [(1, 8), (8, 8), (16, 16), (32, 32)])
    def test_in_range(self, n, l):
        assert embedding_length(n, l) == n

    @pytest.mark.parametrize("n,l", [(0, 8), (9, 8), (17, 16), (-1, 32)])
    def test_out_of_range(self, n, l):
        with pytest.raises(ConfigError, match=rf"^embedding length n={n} outside \[1, {l}\]$"):
            embedding_length(n, l)


class TestBitLength:
    @pytest.mark.parametrize("m,l", [
        (2, 8), (3, 16), (4, 16), (5, 32), (9, 32),
    ])
    def test_table(self, m, l):
        assert bit_length(m) == l

    @pytest.mark.parametrize("m", [0, 1, 10, 33, 34, -1])
    def test_out_of_range(self, m):
        with pytest.raises(ConfigError):
            bit_length(m)

    def test_magnitudes_fit(self):
        for m in range(2, 10):
            assert 10**m - 1 < 2 ** bit_length(m)
