from __future__ import annotations

import gc
import tracemalloc
import warnings
import weakref
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdh3d import (
    MarkedContainer,
    Mesh,
    QuantizedMesh,
    bit_length,
    dequantize,
    encrypt_mesh,
    mesh_io,
    parse_mesh,
    quantize,
    recover,
)
from rdh3d.cipher import decrypt_mesh
from rdh3d.errors import (
    CoordinateSyntaxError,
    FaceIndexError,
    MalformedHeaderError,
    MeshParseError,
    NonTriangleFaceError,
)
from rdh3d.mesh_io import write_mesh
from rdh3d.partition import partition

from conftest import grid_mesh, random_mesh


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

    @pytest.mark.parametrize("text", [
        "OFF\n-1 0 0\n",
        "OFF\n3 -2 0\n0 0 0\n0.1 0 0\n0 0.1 0\n",
        "OFF\n3 1 -5\n0 0 0\n0.1 0 0\n0 0.1 0\n3 0 1 2\n",
    ], ids=["-1 0 0", "3 -2 0", "3 1 -5"])
    def test_negative_counts(self, text):
        with pytest.raises(MalformedHeaderError, match="line 2: negative counts"):
            parse_mesh(text, "off")

    def test_non_numeric_coordinate(self):
        with pytest.raises(CoordinateSyntaxError, match="line 3"):
            parse_mesh("OFF\n1 0 0\n0 zero 0\n", "off")

    def test_face_index_out_of_range(self):
        # OFF ids count from 0, and the message writes them so
        error = r"^line 6: face index out of range: 3 \(valid range 0\.\.2\)$"
        with pytest.raises(FaceIndexError, match=error):
            parse_mesh("OFF\n3 1 0\n0 0 0\n0.1 0 0\n0 0.1 0\n3 0 1 3\n", "off")

    def test_first_bad_face_row_is_named(self):
        text = "OFF\n3 3 0\n0 0 0\n0.1 0 0\n0 0.1 0\n3 0 1 2\n3 0 7 1\n3 -1 1 2\n"
        error = r"^line 7: face index out of range: 7 \(valid range 0\.\.2\)$"
        with pytest.raises(FaceIndexError, match=error):
            parse_mesh(text, "off")

    def test_face_index_beyond_int64(self):
        huge = 10**20
        error = rf"^line 6: face index out of range: {huge} \(valid range 0\.\.2\)$"
        with pytest.raises(FaceIndexError, match=error):
            parse_mesh(f"OFF\n3 1 0\n0 0 0\n0.1 0 0\n0 0.1 0\n3 0 1 {huge}\n", "off")

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

    @pytest.mark.parametrize("face, bad_id", [
        ("f 1 2 9", 9), ("f 0 2 3", 0), ("f -1 2 3", -1), ("f 1/1 2 9", 9),
    ])
    def test_face_index_named_as_written(self, face, bad_id):
        # OBJ ids count from 1, and the message writes them so
        error = rf"^line 4: face index out of range: {bad_id} \(valid range 1\.\.3\)$"
        with pytest.raises(FaceIndexError, match=error):
            parse_mesh(f"v 0 0 0\nv 0.1 0 0\nv 0 0.1 0\n{face}\n", "obj")

    def test_face_ids_are_checked_after_the_whole_file(self):
        # a bad id is found once every line is read, so a later syntax
        # error is the one reported
        text = "v 0 0 0\nv 0.1 0 0\nv 0 0.1 0\nf 0 2 3\nq 1 2 3\n"
        with pytest.raises(MeshParseError, match="^line 5: unsupported OBJ keyword 'q'$"):
            parse_mesh(text, "obj")

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

OBJ_SMALL = "v 0.5 -0.25 1e-05\nv 0 0.1 0\nv -0.1 0 0\nf 1 2 3\nf 3 2 1\n"


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

    @pytest.mark.parametrize("first_property", [
        "property double x", "property list uchar int vertex_indices",
    ], ids=["vertex", "face"])
    def test_bare_property_line(self, first_property):
        text = PLY_SMALL.replace(first_property, f"property\n{first_property}")
        lineno = text.splitlines().index("property") + 1
        with pytest.raises(MalformedHeaderError, match=f"line {lineno}: unsupported"):
            parse_mesh(text, "ply")

    @pytest.mark.parametrize("face_property", [
        "property list vertex_indices",
        "property list int vertex_indices",
    ], ids=["no types", "one type"])
    def test_face_list_property_needs_both_types(self, face_property):
        text = PLY_SMALL.replace("property list uchar int vertex_indices", face_property)
        lineno = text.splitlines().index(face_property) + 1
        with pytest.raises(MalformedHeaderError,
                           match=f"line {lineno}: unsupported face property"):
            parse_mesh(text, "ply")

    def test_negative_element_count(self):
        text = PLY_SMALL.replace("element vertex 3", "element vertex -3")
        with pytest.raises(MalformedHeaderError, match="line 4: negative element count"):
            parse_mesh(text, "ply")

    def test_repeated_element(self):
        # a second vertex element with its own row, which would otherwise
        # be read as a fourth vertex
        text = PLY_SMALL.replace("element face 1", "element vertex 1\nelement face 1")
        text = text.replace("0 0.1 0\n", "0 0.1 0\n0.2 0 0\n")
        with pytest.raises(MalformedHeaderError, match="line 8: repeated element 'vertex'"):
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


def _sign_magnitude(words, signs, faces, m, decimals):
    """A QuantizedMesh at m (decimals m), or a MarkedContainer at m
    (decimals 0) with every embedded vertex excluded."""
    words = np.array(words, np.int64).reshape(-1, 3)
    signs = np.array(signs, np.uint8).reshape(-1, 3)
    faces = np.array(faces, np.int64).reshape(-1, 3)
    if decimals:
        return QuantizedMesh(words, signs, m, faces)
    excluded = np.ones(partition(len(words), faces).n_embedded, np.uint8)
    return MarkedContainer(m, 1, 0, signs, excluded, words, faces)


@st.composite
def sign_magnitude_values(draw):
    """A sign-magnitude value with d = 0 or 2..9 decimals, whose words
    come from every branch of the integer writer: zero (with sign 1,
    -0.0), repr's exponent form (0 < k < 10^(d-4)), an integer part
    (10^d <= k < 2^l) and any word below 2^l."""
    d = draw(st.sampled_from([0, 2, 3, 4, 5, 6, 7, 8, 9]))
    m = d or draw(st.integers(2, 9))
    top = (1 << bit_length(m)) - 1
    word = [st.just(0), st.integers(0, top), st.integers(10**d, top)]
    if d > 4:
        word.append(st.integers(1, 10 ** (d - 4) - 1))
    n = draw(st.integers(0, 6))
    words = draw(st.lists(st.one_of(word), min_size=3 * n, max_size=3 * n))
    signs = draw(st.lists(st.integers(0, 1), min_size=3 * n, max_size=3 * n))
    faces = draw(st.lists(st.tuples(*[st.integers(1, n)] * 3), max_size=4)) if n else []
    return _sign_magnitude(words, signs, faces, m, d)


class TestIntegerWriter:
    """A sign-magnitude value is written from its words; the float
    writer (repr of each coordinate) is the reference."""

    @settings(max_examples=400, deadline=None)
    @given(value=sign_magnitude_values(), fmt=st.sampled_from(["off", "obj", "ply"]))
    @example(value=_sign_magnitude([0, 12345, 10**9, 99999, 2**32 - 1, 1],
                                   [1, 1, 0, 0, 1, 1], [[1, 2, 2]], 9, 9), fmt="off")
    @example(value=_sign_magnitude([0, 2**32 - 1, 7], [1, 0, 1], [[1, 1, 1]], 9, 0),
             fmt="obj")
    @example(value=_sign_magnitude([], [], [], 4, 4), fmt="ply")
    @example(value=_sign_magnitude([], [], [], 4, 0), fmt="obj")
    def test_words_print_as_their_coordinates(self, value, fmt):
        assert write_mesh(value, fmt) == write_mesh(value.coordinates(), fmt)

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(st.tuples(*[st.integers(0, 2**32 - 1)] * 3), max_size=6),
           lead=st.sampled_from(["3 ", "f "]))
    def test_face_rows_match_format_strings(self, ids, lead):
        expected = "".join(f"{lead}{i} {j} {k}\n" for i, j, k in ids)
        got = mesh_io._rows(lead, np.array(ids, np.int64).reshape(-1, 3))
        assert got.decode("ascii") == expected

    def test_file_matches_text(self, tmp_path, monkeypatch):
        """write_mesh_file writes write_mesh's text, a chunk at a time."""
        monkeypatch.setattr(mesh_io, "_CHUNK", 7)
        value = quantize(grid_mesh(6), 9)
        for fmt in ("off", "obj", "ply"):
            mesh_io.write_mesh_file(tmp_path / f"q.{fmt}", value)
            assert (tmp_path / f"q.{fmt}").read_text() == write_mesh(value, fmt)


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


class TestMeshPartition:
    def test_fields_cannot_be_reassigned(self, tetra_mesh):
        with pytest.raises(FrozenInstanceError):
            tetra_mesh.faces = tetra_mesh.faces[:1]
        with pytest.raises(FrozenInstanceError):
            tetra_mesh.vertices = tetra_mesh.vertices[:1]

    def test_arrays_are_read_only(self):
        mesh = grid_mesh(10)
        embedded = mesh.partition.embedded.copy()
        with pytest.raises(ValueError, match="read-only"):
            mesh.faces[:] = mesh.faces[::-1]
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[0, 0] = 0.5
        assert np.array_equal(mesh.partition.embedded, embedded)
        assert np.array_equal(embedded, partition(mesh.n_vertices, mesh.faces).embedded)

    def test_partition_arrays_are_read_only(self):
        # an edit would silently change the next analyze
        mesh = grid_mesh(20)
        part = mesh.partition
        for arr in (part.embedded, part.reference, part.unassigned,
                    part.ring_flat, part.ring_offsets):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            part.embedded[0] = 5
        with pytest.raises(FrozenInstanceError):
            part.embedded = part.embedded[:1]
        assert np.array_equal(part.embedded, partition(mesh.n_vertices, mesh.faces).embedded)

    def test_caller_arrays_stay_writable_and_apart(self):
        verts = np.full((3, 3), 0.25)
        faces = np.array([[1, 2, 3]])
        mesh = Mesh(verts, faces)
        assert verts.flags.writeable and faces.flags.writeable
        verts[0, 0] = 0.5
        faces[0] = [3, 2, 1]
        assert mesh.vertices[0, 0] == 0.25
        assert mesh.faces.tolist() == [[1, 2, 3]]

    def test_read_only_arrays_are_kept(self):
        verts = np.full((3, 3), 0.25)
        faces = np.array([[1, 2, 3]])
        verts.flags.writeable = faces.flags.writeable = False
        mesh = Mesh(verts, faces)
        assert np.shares_memory(mesh.vertices, verts)
        assert np.shares_memory(mesh.faces, faces)

    @pytest.mark.parametrize("make", ["bulk", "lines", "dequantize", "coordinates"])
    def test_package_meshes_are_read_only(self, make, tetra_mesh, ke):
        if make == "bulk":
            mesh = parse_mesh(write_mesh(tetra_mesh, "off"), "off")
        elif make == "lines":
            mesh = parse_mesh("# comment\n" + write_mesh(tetra_mesh, "off"), "off")
        elif make == "dequantize":
            mesh = dequantize(quantize(tetra_mesh, 4))
        else:
            mesh = encrypt_mesh(quantize(tetra_mesh, 4), ke).coordinates()
        assert not mesh.vertices.flags.writeable
        assert not mesh.faces.flags.writeable

    def test_partition_derived_once(self, cow_mesh, partition_calls):
        part = cow_mesh.partition
        assert cow_mesh.partition is part
        assert len(partition_calls) == 1
        assert np.array_equal(
            part.embedded, partition(cow_mesh.n_vertices, cow_mesh.faces).embedded
        )

    def test_one_split_per_face_array_while_it_lives(self, ke):
        mesh = parse_mesh(write_mesh(grid_mesh(12), "off"), "off")
        q = quantize(mesh, 4)
        enc = encrypt_mesh(q, ke)
        forms = [q, enc, decrypt_mesh(enc, ke), recover(enc, ke), dequantize(q),
                 enc.coordinates()]
        assert all(form.partition is mesh.partition for form in forms)
        faces, key = weakref.ref(mesh.faces), (id(mesh.faces), mesh.n_vertices)
        assert key in mesh_io._splits
        del mesh, q, enc, forms
        gc.collect()
        assert faces() is None and key not in mesh_io._splits


@pytest.mark.parametrize("bad_id", [0, -2, 5])
def test_face_id_outside_the_vertices_rejected_at_construction(tetra_mesh, bad_id):
    faces = tetra_mesh.faces.copy()
    faces[2, 1] = bad_id
    error = rf"^face index out of range: {bad_id} \(valid range 1\.\.4\)$"
    with pytest.raises(FaceIndexError, match=error):
        Mesh(tetra_mesh.vertices, faces)


def test_unknown_format_rejected(tetra_mesh):
    with pytest.raises(ValueError, match="unknown mesh format"):
        write_mesh(tetra_mesh, "stl")
    with pytest.raises(ValueError, match="unknown mesh format"):
        parse_mesh("", "stl")


def _bulk_declines(*args):
    return None


def _no_line_reader(*args):
    raise AssertionError("a well-formed body went to the line reader")


# The line reader of each format, which parse_mesh calls when the bulk
# reader declines a body.
_LINE_READERS = {"off": "_read_body", "ply": "_read_body", "obj": "_parse_obj"}


def _format_of(text):
    """A case's format: OFF and PLY texts open with their magic word,
    any other text is OBJ."""
    word = text.split(None, 1)[:1]
    return word[0].lower() if word and word[0].lower() in ("off", "ply") else "obj"


def _outcome(text, fmt):
    """What parse_mesh makes of text: the arrays' bytes, or the error.
    A warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mesh = parse_mesh(text, fmt)
        except MeshParseError as exc:
            return type(exc), str(exc), exc.line
    return mesh.vertices.shape, mesh.vertices.tobytes(), mesh.faces.tobytes()


def _line_reader_outcome(text, fmt):
    with mock.patch.object(mesh_io, "_bulk_body", _bulk_declines):
        return _outcome(text, fmt)


_COORD = st.one_of(
    st.floats(-1, 1, exclude_min=True, exclude_max=True, allow_nan=False,
              width=64).map(repr),
    st.decimals(-1, 1, places=4, allow_nan=False,
                allow_infinity=False).map(str),
    st.integers(-9, 9).map(str),
)

# Lines an edit inserts into a text, and tokens it puts in place of one.
_INSERTED_LINES = ["", "   ", "# note", "comment note", "0 0 0", "3 0 0 0", "3 0 1", "x"]
_ODD_TOKENS = [
    "1_0", "+3", "-0", "nan", "inf", "1e400", "3.0", "1e0", "03", ".5", "5.",
    "-1", "", "0 0", "x", "99999999999999999999", "0\t1", "0\u00a01", "0\x0c1",
]
_EDITS = [None, "insert", "token", "count", "index", "columns", "drop", "pad",
          "tabs", "crlf", "append"]


@st.composite
def body_texts(draw):
    """(format, text, read in bulk): a well-formed OFF or PLY text, or
    that text after one edit."""
    fmt = draw(st.sampled_from(["off", "ply"]))
    n = draw(st.integers(0, 4))
    rows = [" ".join(draw(st.tuples(_COORD, _COORD, _COORD))) for _ in range(n)]
    index = st.integers(0, n - 1) if n else st.just(0)
    faces = draw(st.lists(st.tuples(index, index, index), max_size=4 if n else 0))
    face_rows = [f"3 {i} {j} {k}" for i, j, k in faces]
    face_first = False
    if fmt == "off":
        header = ["OFF", f"{n} {len(faces)} 0"]
    else:
        vertex = [f"element vertex {n}", "property double x",
                  "property double y", "property double z"]
        face = [f"element face {len(faces)}",
                "property list uchar int vertex_indices"]
        face_first = draw(st.booleans())
        header = ["ply", "format ascii 1.0"]
        header += face + vertex if face_first else vertex + face
        header.append("end_header")
    blocks = [face_rows, rows] if face_first else [rows, face_rows]
    edit = draw(st.sampled_from(_EDITS))
    targets = [face_rows] if edit in ("count", "index") else blocks
    targets = [b for b in targets if b]
    if not targets and edit not in (None, "crlf", "append"):
        edit, targets = "insert", blocks
    block = draw(st.sampled_from(targets)) if targets else []
    at = draw(st.integers(0, max(0, len(block) - 1)))
    if edit == "insert":
        block.insert(at, draw(st.sampled_from(_INSERTED_LINES)))
    elif edit == "token":
        tokens = block[at].split(" ")
        odd = st.sampled_from(_ODD_TOKENS + [str(n)])
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(odd)
        block[at] = " ".join(tokens)
    elif edit in ("count", "index"):
        tokens = block[at].split(" ")
        if edit == "count":
            tokens[0] = draw(st.sampled_from(["2", "4"]))
        else:
            tokens[draw(st.integers(1, 3))] = draw(st.sampled_from([str(n), "-1"]))
        block[at] = " ".join(tokens)
    elif edit == "columns":
        # every row of the block one token wider or narrower
        wider = draw(st.booleans())
        block[:] = [row + " 0" if wider else row.rsplit(" ", 1)[0] for row in block]
    elif edit == "drop":
        del block[at:]
    elif edit == "pad":
        block[at] = f"  {block[at].replace(' ', '  ')} "
    elif edit == "tabs":
        block[at] = block[at].replace(" ", "\t")
    lines = header + blocks[0] + blocks[1]
    if edit == "append":
        lines.append(draw(st.sampled_from(_INSERTED_LINES[2:])))
    text = "\n".join(lines) + "\n"
    if edit == "crlf":
        text = text.replace("\n", "\r\n")
    bulk = edit in (None, "crlf", "pad") and not face_first
    return fmt, text, bulk


_OBJ_INSERTED_LINES = ["", "   ", "# note", "vn 0 0 1", "vt 0.5 0.5", "o part", "g group",
                       "s 1", "x", "v 0 0 0", "f 1 1 1"]
_OBJ_EDITS = [None, "insert", "token", "ref", "columns", "pad", "tabs", "crlf",
              "no final newline", "v after f", "append"]


@st.composite
def obj_texts(draw):
    """("obj", text, read in bulk): a well-formed OBJ text of v lines
    and then f lines, or that text after one edit."""
    n = draw(st.integers(0, 4))
    rows = ["v " + " ".join(draw(st.tuples(_COORD, _COORD, _COORD))) for _ in range(n)]
    index = st.integers(1, n) if n else st.just(1)
    face_rows = [f"f {i} {j} {k}" for i, j, k in draw(
        st.lists(st.tuples(index, index, index), max_size=4 if n else 0))]
    edit = draw(st.sampled_from(_OBJ_EDITS))
    blocks = [rows, face_rows]
    targets = [b for b in ([face_rows] if edit in ("ref", "v after f") else blocks) if b]
    if not targets and edit not in (None, "crlf", "no final newline", "append"):
        edit, targets = "insert", blocks
    block = draw(st.sampled_from(targets)) if targets else []
    at = draw(st.integers(0, max(0, len(block) - 1)))
    if edit == "insert":
        block.insert(at, draw(st.sampled_from(_OBJ_INSERTED_LINES)))
    elif edit == "token":
        tokens = block[at].split(" ")
        odd = st.sampled_from(_ODD_TOKENS + ["0", str(n), str(n + 1)])
        tokens[draw(st.integers(1, 3))] = draw(odd)
        block[at] = " ".join(tokens)
    elif edit == "ref":
        tokens = block[at].split(" ")
        i = draw(st.integers(1, 3))
        ref = tokens[i]
        tokens[i] = draw(st.sampled_from([f"{ref}/1", f"{ref}//1", f"{ref}/1/1",
                                          f"-{ref}", "-1", "+1", "0", str(n + 1)]))
        block[at] = " ".join(tokens)
    elif edit == "columns":
        wider = draw(st.booleans())
        block[:] = [row + " 0" if wider else row.rsplit(" ", 1)[0] for row in block]
    elif edit == "pad":
        block[at] = f"  {block[at].replace(' ', '  ')} "
    elif edit == "tabs":
        block[at] = block[at].replace(" ", "\t")
    elif edit == "v after f":
        face_rows.insert(draw(st.integers(1, len(face_rows))), "v 0.5 0 0")
    lines = rows + face_rows
    if edit == "append":
        lines.append(draw(st.sampled_from(_OBJ_INSERTED_LINES[2:])))
    text = "\n".join(lines) + "\n" if lines else ""
    if edit == "crlf":
        text = text.replace("\n", "\r\n")
    elif edit == "no final newline":
        text = text.rstrip("\n")
    return "obj", text, edit in (None, "crlf", "no final newline")


_ANY_BODY = st.one_of(body_texts(), obj_texts())


class TestBulkBody:
    """parse_mesh reads a well-formed OFF/PLY/OBJ body in bulk and sends
    any other to the line reader; either way it gives the line reader's
    mesh or error."""

    @pytest.mark.parametrize("fmt", ["off", "ply", "obj"])
    def test_well_formed_body_is_read_in_bulk(self, fmt, monkeypatch):
        mesh = random_mesh(11, n_min=300, n_max=300)
        text = write_mesh(mesh, fmt)
        monkeypatch.setattr(mesh_io, _LINE_READERS[fmt], _no_line_reader)
        assert parse_mesh(text, fmt) == mesh
        assert parse_mesh(text.replace("\n", "\r\n").encode(), fmt) == mesh

    # (text, read in bulk); the format is _format_of(text).
    CASES = {
        "well formed": ("OFF\n3 1 0\n0.5 -0.25 1e-05\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", True),
        "crlf": ("OFF\r\n3 1 0\r\n0.5 -0.25 1e-05\r\n0 0.1 0\r\n-0.1 0 0\r\n3 0 1 2\r\n", True),
        "spaces": ("OFF\n3 1 0\n 0.5  -0.25 1e-05 \n0 0.1 0\n-0.1 0 0\n3 0 1 2  \n", True),
        "signs and zeros": ("OFF\n3 1 0\n+0.5 -0 .5\n0 0.1 0\n-0.1 0 0\n+3 -0 01 2\n", True),
        "blank line after body": ("OFF\n3 1 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n\n  \n", True),
        "empty vertex block": ("OFF\n0 0 0\n", True),
        "empty face block": ("OFF\n1 0 0\n0.5 0 0\n", True),
        "blank line in vertex block": ("OFF\n3 1 0\n0.5 0 0\n\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "blank line in face block": ("OFF\n3 2 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n   \n3 2 1 0\n", False),
        "blank vertex block": ("OFF\n1 0 0\n\n", False),
        "blank face block": ("OFF\n3 1 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n   \n", False),
        "comment in body": ("OFF\n3 1 0\n0.5 0 0\n# note\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "tab": ("OFF\n3 1 0\n0.5\t0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "underscore": ("OFF\n3 1 0\n1_0 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "nan": ("OFF\n3 1 0\nnan 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "hex float": ("OFF\n3 1 0\n0x1p3 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "non-ASCII space": ("OFF\n3 1 0\n0.5\u00a00 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "2-token and 4-token rows": ("OFF\n3 1 0\n0.5 0\n0 0.1 0 0\n-0.1 0 0\n3 0 1 2\n", False),
        "4-token vertex rows": ("OFF\n1 0 0\n0.5 0 0 0\n", False),
        "count 4, three indices": ("OFF\n3 1 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n4 0 1 2\n", False),
        "count 4": ("OFF\n4 1 0\n0 0 0\n0.1 0 0\n0 0.1 0\n0 0 0.1\n4 0 1 2 3\n", False),
        "count 3.0": ("OFF\n3 1 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n3.0 0 1 2\n", False),
        "index 1e0": ("OFF\n3 1 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1e0 2\n", False),
        "index equal to N": ("OFF\n3 1 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 3\n", False),
        "negative index": ("OFF\n3 1 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n3 0 -1 2\n", False),
        "huge index": ("OFF\n3 1 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 99999999999999999999\n", False),
        "lone cr at a row's start": ("OFF\n3 1 0\n0.5 0 0\n\r0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "truncated vertex block": ("OFF\n3 0 0\n0.5 0 0\n0 0.1 0\n", False),
        "truncated face block": ("OFF\n3 2 0\n0.5 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n", False),
        "trailing text": ("OFF\n1 0 0\n0.5 0 0\nx\n", False),
        "ply": (PLY_SMALL, True),
        "ply vertex only": (PLY_SMALL.replace("element face 1\nproperty list uchar int vertex_indices\n", "").replace("3 0 1 2\n", ""), True),
        "ply comment in body": (PLY_SMALL.replace("0 0.1 0\n", "comment x\n0 0.1 0\n"), False),
        "ply face first": ("\n".join([
            "ply", "format ascii 1.0",
            "element face 1", "property list uchar int vertex_indices",
            "element vertex 3",
            "property double x", "property double y", "property double z",
            "end_header", "3 0 1 2", "0 0 0", "0.1 0 0", "0 0.1 0",
        ]) + "\n", False),
        "ply face first, rows fit the other element": ("\n".join([
            "ply", "format ascii 1.0",
            "element face 1", "property list uchar int vertex_indices",
            "element vertex 1",
            "property double x", "property double y", "property double z",
            "end_header", "0 0 0", "3 0 0 0",
        ]) + "\n", False),
        "obj": (OBJ_SMALL, True),
        "obj crlf": (OBJ_SMALL.replace("\n", "\r\n"), True),
        "obj no final newline": (OBJ_SMALL.rstrip("\n"), True),
        "obj spaces": (OBJ_SMALL.replace("v 0 0.1 0", "v  0  0.1 0 ").replace("f 1 2 3", "f 1  2 03 "), True),
        "obj vertices only": ("v 0.5 0 0\nv 0 0.1 0\n", True),
        "obj empty": ("", True),
        "obj comment": ("# made by hand\n" + OBJ_SMALL, False),
        "obj blank line": (OBJ_SMALL.replace("f 1", "\nf 1"), False),
        "obj trailing blank line": (OBJ_SMALL + "\n", False),
        "obj leading space": (OBJ_SMALL.replace("v 0 0.1", " v 0 0.1"), False),
        "obj tab": (OBJ_SMALL.replace("v 0 0.1", "v\t0 0.1"), False),
        "obj normal": (OBJ_SMALL.replace("f 1", "vn 0 0 1\nf 1"), False),
        "obj texture coordinate": (OBJ_SMALL.replace("f 1", "vt 0 1\nf 1"), False),
        "obj object name": ("o part\n" + OBJ_SMALL, False),
        "obj slashed refs": (OBJ_SMALL.replace("f 1 2 3", "f 1/1 2//2 3/3/3"), False),
        "obj negative ref": (OBJ_SMALL.replace("f 1 2 3", "f -1 2 3"), False),
        "obj signed ref": (OBJ_SMALL.replace("f 1 2 3", "f +1 2 3"), False),
        "obj zero ref": (OBJ_SMALL.replace("f 1 2 3", "f 0 2 3"), False),
        "obj ref past N": (OBJ_SMALL.replace("f 1 2 3", "f 1 2 4"), False),
        "obj quad": (OBJ_SMALL.replace("f 1 2 3", "f 1 2 3 1"), False),
        "obj 4 coordinates": (OBJ_SMALL.replace("v 0 0.1 0", "v 0 0.1 0 1"), False),
        "obj v after f": (OBJ_SMALL + "v 0 0 0.1\nf 1 2 4\n", False),
        "obj f first": ("f 1 1 1\nv 0 0 0\n", False),
        "obj unknown keyword": (OBJ_SMALL + "q 1\n", False),
        "obj lone cr after v": (OBJ_SMALL.replace("v 0 0.1", "v \r0 0.1"), False),
        "obj lone cr after f": (OBJ_SMALL.replace("f 3 2 1", "f \r3 2 1"), False),
        "obj lone cr splits a row": (OBJ_SMALL.replace(
            "v 0 0.1 0\nv -0.1", "v \nv 0 0.1 0\r-0.1"), False),
        "obj cr cr lf": (OBJ_SMALL.replace("v 0 0.1 0\n", "v 0 0.1 0\r\r\n"), False),
        "obj one crlf line": (OBJ_SMALL.replace("v 0 0.1 0\n", "v 0 0.1 0\r\n"), True),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_edge_case(self, name):
        text, bulk = self.CASES[name]
        fmt = _format_of(text)
        assert _bulk_outcome(text, fmt) == (_line_reader_outcome(text, fmt), bulk)

    @settings(max_examples=400, deadline=None)
    @given(case=_ANY_BODY)
    def test_agrees_with_line_reader(self, case):
        fmt, text, bulk = case
        expected = _line_reader_outcome(text, fmt)
        if bulk:
            with mock.patch.object(mesh_io, _LINE_READERS[fmt], _no_line_reader):
                assert _outcome(text, fmt) == expected
        else:
            assert _outcome(text, fmt) == expected


@pytest.mark.parametrize("text, error, line", [
    (b"v 0 0 0\nv \r0.5 0 0\nv 0 0.5 0\nf 1 2 3\n", CoordinateSyntaxError, 2),
    (b"v 0 0 0\nv 0.5 0 0\nv 0 0.5 0\nf \r1 2 3\n", NonTriangleFaceError, 4),
    (b"v 0 0 0\r\nv \r0.5 0 0\r\nv 0 0.5 0\r\nf 1 2 3\r\n", CoordinateSyntaxError, 2),
    (b"v 0 0 0\nv \nv 0.5 0 0\r0 0.5 0\nf 1 2 3\n", CoordinateSyntaxError, 2),
], ids=["after v", "after f", "after v, crlf", "inside a row"])
def test_obj_lone_carriage_return_is_the_line_readers_error(text, error, line):
    """A lone "\r" ends a line for the line reader, so "v \r0.5 0 0" is
    the line "v " and an error, not a row after a blank line."""
    with pytest.raises(error) as info:
        parse_mesh(text, "obj")
    assert info.value.line == line


# grid_mesh(4) in each format, the texts that mutated_texts edits, and
# the bytes an edit writes: those of well-formed rows and line ends, and
# a few that no row holds.
_GRID_TEXTS = {fmt: write_mesh(grid_mesh(4), fmt).encode() for fmt in ("off", "obj", "ply")}
_EDIT_BYTES = b"\r\n \t0123456789+-.eEvf#x"


@st.composite
def mutated_texts(draw):
    """(format, data): a grid_mesh(4) text with 1 to 3 bytes replaced,
    inserted or deleted."""
    fmt = draw(st.sampled_from(sorted(_GRID_TEXTS)))
    data = bytearray(_GRID_TEXTS[fmt])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(_EDIT_BYTES))
        if edit == "replace":
            data[at] = byte
        elif edit == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    return fmt, bytes(data)


@settings(max_examples=500, deadline=None)
@given(case=mutated_texts())
@example(case=("obj", _GRID_TEXTS["obj"].replace(b"\nv ", b"\nv \r", 1)))
@example(case=("obj", _GRID_TEXTS["obj"].replace(b"\nf ", b"\nf \r", 1)))
def test_bulk_reader_declines_or_agrees_on_mutated_texts(case):
    """Differential test: for any text, _bulk_body returns None or the
    mesh the line reader reads, bit for bit (values, sign bits, faces)."""
    fmt, data = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = mesh_io._bulk_body(data, fmt)
    if mesh is not None:
        assert _line_reader_outcome(data, fmt) == (
            mesh.vertices.shape, mesh.vertices.tobytes(), mesh.faces.tobytes())


def _bulk_outcome(data, fmt):
    """(what parse_mesh makes of data, whether it read it in bulk)."""
    line_reader = getattr(mesh_io, _LINE_READERS[fmt])
    calls = []

    def counting(*args):
        calls.append(args)
        return line_reader(*args)

    with mock.patch.object(mesh_io, _LINE_READERS[fmt], counting):
        return _outcome(data, fmt), not calls


def _small_mesh_text(fmt, n_verts, n_faces):
    """A well-formed text of n_verts vertices and n_faces faces."""
    rng = np.random.default_rng(n_verts * 31 + n_faces)
    mesh = Mesh(rng.uniform(-0.9, 0.9, (n_verts, 3)),
                rng.integers(1, n_verts + 1, (n_faces, 3)))
    return mesh, write_mesh(mesh, fmt)


class TestBulkChunks:
    """The bulk reader cuts a body into chunks of _CHUNK rows; at 1, 2
    and 3 rows every chunk edge, and the vertex/face split, falls
    between rows of a small body, and the outcome stays the line
    reader's."""

    @pytest.fixture(params=[1, 2, 3], autouse=True)
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(mesh_io, "_CHUNK", request.param)
        return request.param

    @pytest.mark.parametrize("name", TestBulkBody.CASES)
    def test_edge_case(self, name):
        text, bulk = TestBulkBody.CASES[name]
        fmt = _format_of(text)
        assert _bulk_outcome(text, fmt) == (_line_reader_outcome(text, fmt), bulk)

    @pytest.mark.parametrize("fmt", ["off", "ply", "obj"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_mesh_round_trip(self, fmt, seed):
        mesh = random_mesh(seed, n_max=40)
        text = write_mesh(mesh, fmt)
        for data in (text, text.encode()):
            assert parse_mesh(data, fmt) == mesh
            assert _bulk_outcome(data, fmt)[1]

    @pytest.mark.parametrize("fmt", ["off", "ply", "obj"])
    @pytest.mark.parametrize("edit, obj_bulk", [
        pytest.param(lambda t: t.replace("\n", "\r\n"), True, id="crlf"),
        pytest.param(lambda t: t.rstrip("\n"), True, id="no final newline"),
        pytest.param(lambda t: t.replace("\n", "\r\n").rstrip("\r\n"), True,
                     id="crlf, no final newline"),
        pytest.param(lambda t: t + "\n  \n\r\n \n", False, id="trailing blank lines"),
    ])
    def test_line_ends(self, fmt, edit, obj_bulk):
        mesh, text = _small_mesh_text(fmt, 5, 7)
        text = edit(text)
        # an OBJ's blank lines are lines of its body, for the line reader
        bulk = obj_bulk or fmt != "obj"
        assert _bulk_outcome(text, fmt) == (_line_reader_outcome(text, fmt), bulk)
        assert parse_mesh(text.encode(), fmt) == mesh

    @pytest.mark.parametrize("fmt", ["off", "ply", "obj"])
    def test_chunk_edge_on_the_vertex_face_split(self, fmt, chunk):
        # 6 vertices: the vertex block ends on a chunk edge at 1, 2 and 3 rows
        mesh, text = _small_mesh_text(fmt, 6, chunk + 1)
        assert _bulk_outcome(text, fmt) == (_line_reader_outcome(text, fmt), True)
        assert parse_mesh(text, fmt) == mesh
        lines = text.split("\n")
        first_face = ("f %d %d %d" % tuple(mesh.faces[0]) if fmt == "obj"
                      else "3 %d %d %d" % tuple(mesh.faces[0] - 1))
        split = lines.index(first_face)
        inserted_lines = (("", "  ", "# v", "vn 0 0 1") if fmt == "obj"
                          else ("", "  ", "0 0 0", "3 0 1 2"))
        for inserted in inserted_lines:
            edited = "\n".join(lines[:split] + [inserted] + lines[split:])
            outcome = _line_reader_outcome(edited, fmt)
            assert _bulk_outcome(edited, fmt) == (outcome, False)


@settings(max_examples=300, deadline=None)
@given(case=_ANY_BODY, chunk_rows=st.integers(1, 3))
def test_small_chunks_agree_with_line_reader(case, chunk_rows):
    fmt, text, bulk = case
    with mock.patch.object(mesh_io, "_CHUNK", chunk_rows):
        outcome, read_in_bulk = _bulk_outcome(text, fmt)
    assert outcome == _line_reader_outcome(text, fmt)
    assert read_in_bulk or not bulk


@pytest.mark.parametrize("text", [
    "OFF\n1000000000000 0 0\n0 0 0\n",
    "OFF\n1 1000000000000 0\n0 0 0\n3 0 0 0\n",
    PLY_SMALL.replace("element vertex 3", "element vertex 1000000000000"),
], ids=["vertices", "faces", "ply"])
def test_huge_header_count_rejected_without_allocation(text):
    fmt = text.split(None, 1)[0].lower()
    tracemalloc.start()
    try:
        with pytest.raises(MeshParseError):
            parse_mesh(text.encode(), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("fmt", ["off", "obj"])
def test_parse_memory_is_bounded(fmt):
    # A 90,000-vertex full-precision OFF of 8.5 MiB (OBJ 8.7 MiB).
    # Measured peaks beyond its bytes: 8.2 MiB in chunks of 8,192 rows,
    # against 47.3 MiB (OBJ 83.8 MiB) when the whole text was decoded and
    # read line by line.
    mesh = grid_mesh(300)
    data = write_mesh(mesh, fmt).encode()
    tracemalloc.start()
    try:
        parsed = parse_mesh(data, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == mesh
    assert peak < 20 * 2**20
