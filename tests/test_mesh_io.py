from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdh3d import Mesh, parse_mesh, write_mesh
from rdh3d.errors import (
    CoordinateSyntaxError,
    FaceIndexError,
    MalformedHeaderError,
    MeshParseError,
    NonTriangleFaceError,
)

from conftest import random_mesh


class TestParseOff:
    def test_cow_fragment(self, cow_off):
        mesh = parse_mesh(cow_off, "off")
        assert mesh.vertices[0].tolist() == [0.180757, 0.034214, 0.193897]
        assert mesh.faces[0].tolist() == [1, 2, 8]
        assert cow_off.splitlines()[10] == "3 0 1 7"

    def test_minimal(self):
        mesh = parse_mesh("OFF\n1 0 0\n0 0 0\n", "off")
        assert mesh.n_vertices == 1
        assert mesh.n_faces == 0
        assert mesh.vertices[0].tolist() == [0.0, 0.0, 0.0]

    def test_comments_and_blank_lines(self):
        text = "# hello\nOFF\n\n# counts\n1 0 0\n0.5 0.25 -0.125\n"
        mesh = parse_mesh(text, "off")
        assert mesh.vertices[0].tolist() == [0.5, 0.25, -0.125]

    def test_bytes_input(self, cow_off):
        assert parse_mesh(cow_off.encode(), "off") == parse_mesh(cow_off, "off")

    def test_bad_header(self):
        with pytest.raises(MalformedHeaderError, match="line 1"):
            parse_mesh("PFF\n1 0 0\n0 0 0\n", "off")

    def test_bad_counts(self):
        with pytest.raises(MalformedHeaderError, match="line 2"):
            parse_mesh("OFF\n1 0\n0 0 0\n", "off")

    def test_non_numeric_coordinate(self):
        with pytest.raises(CoordinateSyntaxError, match="line 3"):
            parse_mesh("OFF\n1 0 0\n0 zero 0\n", "off")

    def test_face_index_out_of_range(self):
        with pytest.raises(FaceIndexError, match="line 6"):
            parse_mesh("OFF\n3 1 0\n0 0 0\n0.1 0 0\n0 0.1 0\n3 0 1 3\n", "off")

    def test_non_triangle_face(self):
        text = "OFF\n4 1 0\n0 0 0\n0.1 0 0\n0 0.1 0\n0 0 0.1\n4 0 1 2 3\n"
        with pytest.raises(NonTriangleFaceError, match="line 7"):
            parse_mesh(text, "off")

    def test_truncated_vertex_block(self):
        with pytest.raises(MeshParseError, match="end of file"):
            parse_mesh("OFF\n2 0 0\n0 0 0\n", "off")

    def test_trailing_garbage(self):
        with pytest.raises(MeshParseError, match="trailing"):
            parse_mesh("OFF\n1 0 0\n0 0 0\n0 0 0\n", "off")


class TestParseObj:
    def test_basic(self):
        text = "v 0.1 0.2 0.3\nv -0.1 0 0\nv 0 0.5 0\nf 1 2 3\n"
        mesh = parse_mesh(text, "obj")
        assert mesh.n_vertices == 3
        assert mesh.faces[0].tolist() == [1, 2, 3]

    def test_slash_references(self):
        text = "v 0 0 0\nv 0.1 0 0\nv 0 0.1 0\nvt 0 0\nvn 0 0 1\nf 1/1/1 2/1/1 3//1\n"
        mesh = parse_mesh(text, "obj")
        assert mesh.faces[0].tolist() == [1, 2, 3]

    def test_non_triangle(self):
        text = "v 0 0 0\nv 0.1 0 0\nv 0 0.1 0\nv 0 0 0.1\nf 1 2 3 4\n"
        with pytest.raises(NonTriangleFaceError, match="line 5"):
            parse_mesh(text, "obj")

    def test_index_out_of_range(self):
        with pytest.raises(FaceIndexError):
            parse_mesh("v 0 0 0\nv 0.1 0 0\nv 0 0.1 0\nf 1 2 9\n", "obj")

    def test_negative_index_rejected(self):
        with pytest.raises(FaceIndexError, match="line 4"):
            parse_mesh("v 0 0 0\nv 0.1 0 0\nv 0 0.1 0\nf -1 2 3\n", "obj")

    def test_unknown_keyword(self):
        with pytest.raises(MeshParseError, match="line 1"):
            parse_mesh("q 1 2 3\n", "obj")


PLY_SMALL = """ply
format ascii 1.0
comment tiny
element vertex 3
property double x
property double y
property double z
element face 1
property list uchar int vertex_indices
end_header
0 0 0
0.1 0 0
0 0.1 0
3 0 1 2
"""


class TestParsePly:
    def test_basic(self):
        mesh = parse_mesh(PLY_SMALL, "ply")
        assert mesh.n_vertices == 3
        assert mesh.faces[0].tolist() == [1, 2, 3]

    def test_binary_rejected(self):
        text = PLY_SMALL.replace("format ascii 1.0", "format binary_little_endian 1.0")
        with pytest.raises(MalformedHeaderError, match="binary"):
            parse_mesh(text, "ply")

    def test_unknown_element_rejected(self):
        text = PLY_SMALL.replace(
            "element face 1", "element edge 1\nproperty int a\nelement face 1"
        )
        with pytest.raises(MalformedHeaderError, match="edge"):
            parse_mesh(text, "ply")

    def test_extra_vertex_property_rejected(self):
        text = PLY_SMALL.replace(
            "property double z", "property double z\nproperty double nx"
        )
        with pytest.raises(MalformedHeaderError):
            parse_mesh(text, "ply")

    def test_face_index_range(self):
        text = PLY_SMALL.replace("3 0 1 2", "3 0 1 5")
        with pytest.raises(FaceIndexError):
            parse_mesh(text, "ply")

    def test_missing_magic(self):
        with pytest.raises(MalformedHeaderError, match="line 1"):
            parse_mesh("plyx\n", "ply")

    def test_face_element_declared_first(self):
        text = "\n".join([
            "ply", "format ascii 1.0",
            "element face 1", "property list uchar int vertex_indices",
            "element vertex 3",
            "property double x", "property double y", "property double z",
            "end_header",
            "3 0 1 2",
            "0 0 0", "0.1 0 0", "0 0.1 0",
        ]) + "\n"
        assert parse_mesh(text, "ply") == parse_mesh(PLY_SMALL, "ply")

    def test_truncated_vertex_block(self):
        text = PLY_SMALL.replace("0 0.1 0\n3 0 1 2\n", "")
        with pytest.raises(MeshParseError, match="end of file: expected 3 vertex rows, got 2"):
            parse_mesh(text, "ply")

    def test_truncated_face_block(self):
        text = PLY_SMALL.replace("3 0 1 2\n", "")
        with pytest.raises(MeshParseError, match="end of file: expected 1 face rows, got 0"):
            parse_mesh(text, "ply")

    def test_trailing_content(self):
        with pytest.raises(MeshParseError, match="line 15: unexpected trailing"):
            parse_mesh(PLY_SMALL + "3 0 1 2\n", "ply")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["off", "obj", "ply"])
    def test_tetrahedron(self, tetra_mesh, fmt):
        assert parse_mesh(write_mesh(tetra_mesh, fmt), fmt) == tetra_mesh

    @pytest.mark.parametrize("fmt", ["off", "obj", "ply"])
    def test_random_meshes(self, fmt):
        for seed in range(25):
            mesh = random_mesh(seed, n_max=60)
            assert parse_mesh(write_mesh(mesh, fmt), fmt) == mesh

    def test_empty_faces(self):
        mesh = Mesh(np.array([[0.5, -0.25, 0.125]]), np.empty((0, 3)))
        for fmt in ("off", "obj", "ply"):
            assert parse_mesh(write_mesh(mesh, fmt), fmt) == mesh

    def test_cow_face_section_starts_at_origin_index(self, cow_mesh):
        text = write_mesh(cow_mesh, "off")
        face_lines = text.splitlines()[2 + cow_mesh.n_vertices:]
        assert face_lines[0] == "3 0 1 7"

    @settings(max_examples=80, deadline=None)
    @given(
        coords=st.lists(
            st.tuples(
                st.floats(-1, 1, exclude_min=True, exclude_max=True,
                          allow_nan=False, width=64),
                st.floats(-1, 1, exclude_min=True, exclude_max=True,
                          allow_nan=False, width=64),
                st.floats(-1, 1, exclude_min=True, exclude_max=True,
                          allow_nan=False, width=64),
            ),
            min_size=1, max_size=8,
        ),
        fmt=st.sampled_from(["off", "obj", "ply"]),
    )
    def test_coordinate_roundtrip_property(self, coords, fmt):
        mesh = Mesh(np.array(coords, dtype=np.float64), np.empty((0, 3)))
        assert parse_mesh(write_mesh(mesh, fmt), fmt) == mesh


class TestOrderPreservation:
    def test_vertex_and_face_order(self):
        # index-tagged coordinates: vertex i has x = i / 1000
        n = 40
        verts = np.column_stack([
            np.arange(n) / 1000.0,
            np.zeros(n),
            np.zeros(n),
        ])
        rng = np.random.default_rng(7)
        faces = rng.integers(1, n + 1, size=(30, 3))
        mesh = Mesh(verts, faces)
        for fmt in ("off", "obj", "ply"):
            back = parse_mesh(write_mesh(mesh, fmt), fmt)
            assert np.array_equal(back.vertices, verts)
            assert np.array_equal(back.faces, faces)

    def test_duplicate_faces_preserved(self):
        mesh = Mesh(
            np.array([[0.0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]]),
            np.array([[1, 2, 3], [1, 2, 3], [3, 2, 1]]),
        )
        back = parse_mesh(write_mesh(mesh, "off"), "off")
        assert np.array_equal(back.faces, mesh.faces)

    def test_isolated_vertices_preserved(self):
        mesh = Mesh(
            np.array([[0.0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0.9, 0.9, 0.9]]),
            np.array([[1, 2, 3]]),
        )
        back = parse_mesh(write_mesh(mesh, "ply"), "ply")
        assert back == mesh


def test_unknown_format_rejected(tetra_mesh):
    with pytest.raises(ValueError, match="unknown mesh format"):
        write_mesh(tetra_mesh, "stl")
    with pytest.raises(ValueError, match="unknown mesh format"):
        parse_mesh("", "stl")
