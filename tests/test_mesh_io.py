from __future__ import annotations

import warnings
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdh3d import Mesh, mesh_io, parse_mesh, write_mesh
from rdh3d.errors import (
    CoordinateSyntaxError,
    FaceIndexError,
    MalformedHeaderError,
    MeshParseError,
    NonTriangleFaceError,
)
from rdh3d.partition import partition

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

    def test_partition_derived_once(self, cow_mesh, partition_calls):
        part = cow_mesh.partition
        assert cow_mesh.partition is part
        assert len(partition_calls) == 1
        assert np.array_equal(
            part.embedded, partition(cow_mesh.n_vertices, cow_mesh.faces).embedded
        )


def test_unknown_format_rejected(tetra_mesh):
    with pytest.raises(ValueError, match="unknown mesh format"):
        write_mesh(tetra_mesh, "stl")
    with pytest.raises(ValueError, match="unknown mesh format"):
        parse_mesh("", "stl")


def _bulk_declines(*args):
    return None


def _no_line_reader(*args):
    raise AssertionError("a well-formed body went to the line reader")


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


class TestBulkBody:
    """parse_mesh reads a well-formed OFF/PLY body in bulk and sends any
    other to the line reader; either way it gives the line reader's mesh
    or error."""

    @pytest.mark.parametrize("fmt", ["off", "ply"])
    def test_well_formed_body_is_read_in_bulk(self, fmt, monkeypatch):
        mesh = random_mesh(11, n_min=300, n_max=300)
        text = write_mesh(mesh, fmt)
        monkeypatch.setattr(mesh_io, "_read_body", _no_line_reader)
        assert parse_mesh(text, fmt) == mesh

    # (text, read in bulk); the text's first word names its format.
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
    }

    @pytest.mark.parametrize("name", CASES)
    def test_edge_case(self, name, monkeypatch):
        text, bulk = self.CASES[name]
        fmt = text.split(None, 1)[0].lower()
        expected = _line_reader_outcome(text, fmt)
        line_reader = mesh_io._read_body
        calls = []

        def counting(*args):
            calls.append(args)
            return line_reader(*args)

        monkeypatch.setattr(mesh_io, "_read_body", counting)
        assert _outcome(text, fmt) == expected
        assert bool(calls) is not bulk

    @settings(max_examples=300, deadline=None)
    @given(case=body_texts())
    def test_agrees_with_line_reader(self, case):
        fmt, text, bulk = case
        expected = _line_reader_outcome(text, fmt)
        if bulk:
            with mock.patch.object(mesh_io, "_read_body", _no_line_reader):
                assert _outcome(text, fmt) == expected
        else:
            assert _outcome(text, fmt) == expected
