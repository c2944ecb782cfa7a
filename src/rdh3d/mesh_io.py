"""Triangle mesh parsing and serialization for ASCII OFF, OBJ and PLY.

Vertex and face order are preserved exactly; coordinates are printed in
shortest round-trip decimal form, so parse(write(mesh)) reproduces the
numeric model bit for bit even though the text bytes may differ from the
original file. A well-formed OFF or PLY body is converted by numpy in
bulk; any other body is read line by line, so that an error names the
offending line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    CoordinateSyntaxError,
    FaceIndexError,
    MalformedHeaderError,
    MeshParseError,
    NonTriangleFaceError,
)
from .partition import Partition, partition as compute_partition

FORMATS = ("off", "obj", "ply")

_PLY_FLOAT_TYPES = {"float", "double", "float32", "float64"}


@dataclass(frozen=True, eq=False)
class Mesh:
    """Plaintext carrier: float coordinates plus 1-based triangle faces.

    Frozen, so that `partition`, derived from the faces on first read,
    stays the split of these faces.
    """

    vertices: np.ndarray  # (N, 3) float64
    faces: np.ndarray     # (M, 3) int64, 1-based

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3))
        object.__setattr__(
            self, "faces", np.asarray(self.faces, dtype=np.int64).reshape(-1, 3))

    @cached_property
    def partition(self) -> Partition:
        """The embedded/reference split of the faces, derived once."""
        return compute_partition(self.n_vertices, self.faces)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def validate(self):
        if self.faces.size:
            lo = int(self.faces.min())
            hi = int(self.faces.max())
            if lo < 1 or hi > self.n_vertices:
                raise FaceIndexError(
                    f"face index out of range: {lo if lo < 1 else hi} "
                    f"(valid range 1..{self.n_vertices})"
                )

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices) and np.array_equal(
            self.faces, other.faces
        )


def _check_format(fmt: str) -> str:
    fmt = fmt.lower()
    if fmt not in FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r}, expected one of {FORMATS}")
    return fmt


def parse_mesh(data: bytes | str, fmt: str) -> Mesh:
    """Parse raw file content in the named format.

    Raises a MeshParseError subclass naming the offending line on
    malformed headers, non-numeric coordinates, out-of-range face
    indices, and non-triangle faces.
    """
    fmt = _check_format(fmt)
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MeshParseError(f"not an ASCII mesh file: {exc}") from None
    else:
        text = data
    if fmt == "off":
        return _parse_off(text)
    if fmt == "obj":
        return _parse_obj(text)
    return _parse_ply(text)


def write_mesh(mesh: Mesh, fmt: str) -> str:
    """Serialize a mesh; output re-parses to an identical Mesh."""
    fmt = _check_format(fmt)
    mesh.validate()
    if fmt == "off":
        return _write_off(mesh)
    if fmt == "obj":
        return _write_obj(mesh)
    return _write_ply(mesh)


def read_mesh_file(path, fmt: str | None = None) -> Mesh:
    fmt = fmt or format_from_path(path)
    with open(path, "rb") as fh:
        return parse_mesh(fh.read(), fmt)


def write_mesh_file(path, mesh: Mesh, fmt: str | None = None):
    fmt = fmt or format_from_path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(write_mesh(mesh, fmt))


def format_from_path(path) -> str:
    suffix = str(path).rsplit(".", 1)[-1].lower()
    if suffix not in FORMATS:
        raise ConfigError(f"cannot infer mesh format from {path!r}")
    return suffix


def _meaningful_lines(raw_lines, skip_prefixes=("#",)):
    """Yield (line_number, stripped_line), skipping blanks and comments."""
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith(skip_prefixes):
            continue
        yield lineno, line


def _parse_vertex_row(tokens, lineno):
    """Parse an 'x y z' row (OFF/PLY body, OBJ after the 'v')."""
    if len(tokens) != 3:
        raise CoordinateSyntaxError(
            f"expected 3 coordinates, got {len(tokens)}", lineno
        )
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise CoordinateSyntaxError(f"non-numeric coordinate: {tokens!r}", lineno) from None


def _parse_counted_face(tokens, lineno):
    """Parse a 'c i j k' row (OFF/PLY body) into [i, j, k (0-based), lineno]."""
    try:
        count = int(tokens[0])
    except ValueError:
        raise MeshParseError(f"face row does not start with a count: {tokens[0]!r}", lineno) from None
    if count != 3 or len(tokens) != 4:
        raise NonTriangleFaceError(
            f"only triangle faces are supported, got {len(tokens) - 1} values "
            f"with declared count {count}",
            lineno,
        )
    try:
        return [int(tokens[1]), int(tokens[2]), int(tokens[3]), lineno]
    except ValueError:
        raise MeshParseError(f"non-integer face index in {tokens[1:]!r}", lineno) from None


_ROW_PARSERS = {"vertex": _parse_vertex_row, "face": _parse_counted_face}


def _finish_mesh(vertices, face_rows):
    """face_rows holds [i, j, k, line number] rows, indices 0-based."""
    n = len(vertices)
    for i, j, k, lineno in face_rows:
        for idx in (i, j, k):
            if idx < 0 or idx >= n:
                raise FaceIndexError(
                    f"face index {idx} out of range 0..{n - 1}", lineno
                )
    verts = np.array(vertices, dtype=np.float64).reshape(-1, 3)
    faces = np.array(face_rows, dtype=np.int64).reshape(-1, 4)[:, :3] + 1
    return Mesh(verts, faces)


def _read_body(lines, elements) -> Mesh:
    """Read the rows of each (name, count) element in declaration order,
    then reject any trailing content (the OFF and PLY bodies), one line
    at a time so that an error names its line."""
    rows = {"vertex": [], "face": []}
    for name, count in elements:
        out, parse_row = rows[name], _ROW_PARSERS[name]
        for got in range(count):
            try:
                lineno, line = next(lines)
            except StopIteration:
                raise MeshParseError(
                    f"unexpected end of file: expected {count} {name} rows, got {got}"
                ) from None
            out.append(parse_row(line.split(), lineno))
    for lineno, line in lines:
        raise MeshParseError(f"unexpected trailing content: {line!r}", lineno)
    return _finish_mesh(rows["vertex"], rows["face"])


# Per bulk-read element: the dtype and width of one row, and every
# character a well-formed row may hold (its numbers and the spaces
# between them; face rows hold integers only).
_BLOCKS = {
    "vertex": (np.float64, 3, b"0123456789+-.eE "),
    "face": (np.int64, 4, b"0123456789+- "),
}


def _load_block(lines, name):
    """The (len(lines), width) array of the rows of one element, one row
    per line, or None when the lines are not exactly that."""
    dtype, width, chars = _BLOCKS[name]
    if not lines:
        return np.empty((0, width), dtype=dtype)
    text = "".join(lines)
    if not text.isascii() or text.encode("ascii").translate(None, chars):
        return None
    # loadtxt skips blank lines (and warns when all are), so a blank
    # line shows as a short block.
    if not lines[0].strip():
        return None
    try:
        block = np.loadtxt(lines, dtype=dtype, ndmin=2, comments=None)
    except ValueError:
        return None
    return block if block.shape == (len(lines), width) else None


def _bulk_body(raw_lines, start, elements):
    """The mesh of a well-formed body in raw_lines[start:], or None.

    Well formed: the vertex rows, then the triangle rows, one per line,
    with no blank, comment, missing or trailing line, no character
    outside _BLOCKS, and every face index in range. numpy converts such
    a body in bulk to the mesh _read_body would return. Any other body
    gives None and goes to _read_body, which reads it or raises the
    error of its first bad line.
    """
    if [name for name, _ in elements] not in (["vertex"], ["vertex", "face"]):
        return None
    counts = dict(elements)
    n_verts, n_faces = counts["vertex"], counts.get("face", 0)
    split, end = start + n_verts, start + n_verts + n_faces
    if end > len(raw_lines):
        return None
    if any(line.strip() for line in raw_lines[end:]):
        return None
    verts = _load_block(raw_lines[start:split], "vertex")
    faces = _load_block(raw_lines[split:end], "face")
    if verts is None or faces is None or (faces[:, 0] != 3).any():
        return None
    idx = faces[:, 1:]
    if idx.size and (idx.min() < 0 or idx.max() >= n_verts):
        return None
    return Mesh(verts, idx + 1)


def _parse_off(text: str) -> Mesh:
    raw_lines = text.splitlines()
    lines = _meaningful_lines(raw_lines)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise MalformedHeaderError("empty OFF file") from None
    if header != "OFF":
        raise MalformedHeaderError(f"expected 'OFF' header, got {header!r}", lineno)
    try:
        lineno, counts = next(lines)
    except StopIteration:
        raise MalformedHeaderError("missing OFF counts line") from None
    parts = counts.split()
    if len(parts) != 3:
        raise MalformedHeaderError(f"expected 'N M E' counts, got {counts!r}", lineno)
    try:
        n_verts, n_faces, n_edges = (int(p) for p in parts)
    except ValueError:
        raise MalformedHeaderError(f"non-integer counts: {counts!r}", lineno) from None
    if min(n_verts, n_faces, n_edges) < 0:
        raise MalformedHeaderError(f"negative counts: {counts!r}", lineno)
    elements = [("vertex", n_verts), ("face", n_faces)]
    mesh = _bulk_body(raw_lines, lineno, elements)
    return _read_body(lines, elements) if mesh is None else mesh


_OBJ_IGNORED = {
    "vn", "vt", "vp", "o", "g", "s", "usemtl", "mtllib", "l", "p", "mg",
}


def _parse_obj(text: str) -> Mesh:
    vertices, face_rows = [], []
    for lineno, line in _meaningful_lines(text.splitlines()):
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "v":
            if len(tokens) != 4:
                raise CoordinateSyntaxError(
                    f"expected 'v x y z', got {len(tokens) - 1} values", lineno
                )
            vertices.append(_parse_vertex_row(tokens[1:], lineno))
        elif keyword == "f":
            refs = tokens[1:]
            if len(refs) != 3:
                raise NonTriangleFaceError(
                    f"only triangle faces are supported, got {len(refs)} vertices",
                    lineno,
                )
            idx = []
            for ref in refs:
                head = ref.split("/", 1)[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MeshParseError(
                        f"non-integer face index in {ref!r}", lineno
                    ) from None
                if i < 1:
                    raise FaceIndexError(
                        f"face index {i} is not a positive 1-based index", lineno
                    )
                idx.append(i - 1)
            idx.append(lineno)
            face_rows.append(idx)
        elif keyword in _OBJ_IGNORED:
            continue
        else:
            raise MeshParseError(f"unsupported OBJ keyword {keyword!r}", lineno)
    return _finish_mesh(vertices, face_rows)


def _parse_ply(text: str) -> Mesh:
    raw_lines = text.splitlines()
    lines = _meaningful_lines(raw_lines, skip_prefixes=("comment", "obj_info"))
    try:
        lineno, magic = next(lines)
    except StopIteration:
        raise MalformedHeaderError("empty PLY file") from None
    if magic != "ply":
        raise MalformedHeaderError(f"expected 'ply' magic, got {magic!r}", lineno)
    try:
        lineno, fmt_line = next(lines)
    except StopIteration:
        raise MalformedHeaderError("missing PLY format line") from None
    fmt_tokens = fmt_line.split()
    if fmt_tokens[:1] != ["format"]:
        raise MalformedHeaderError(f"expected 'format' line, got {fmt_line!r}", lineno)
    if fmt_tokens[1:] != ["ascii", "1.0"]:
        raise MalformedHeaderError(
            f"only ASCII 1.0 PLY is supported, got {fmt_line!r} "
            "(binary PLY is rejected)",
            lineno,
        )

    # Header walk: only vertex and face elements are allowed.
    elements = []  # (name, count) in declaration order
    current = None
    vertex_props = []
    saw_end = False
    for lineno, line in lines:
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "element":
            if len(tokens) != 3:
                raise MalformedHeaderError(f"bad element line {line!r}", lineno)
            name = tokens[1]
            try:
                count = int(tokens[2])
            except ValueError:
                raise MalformedHeaderError(f"bad element count {tokens[2]!r}", lineno) from None
            if name not in _ROW_PARSERS:
                raise MalformedHeaderError(
                    f"unsupported element {name!r}: only vertex and face", lineno
                )
            if count < 0:
                raise MalformedHeaderError(f"negative element count {count}", lineno)
            if name in dict(elements):
                raise MalformedHeaderError(f"repeated element {name!r}", lineno)
            elements.append((name, count))
            current = name
        elif keyword == "property":
            if current == "vertex":
                if tokens[1:2] == ["list"]:
                    raise MalformedHeaderError("list property on vertex element", lineno)
                if len(tokens) != 3 or tokens[1] not in _PLY_FLOAT_TYPES:
                    raise MalformedHeaderError(
                        f"unsupported vertex property {line!r}", lineno
                    )
                vertex_props.append(tokens[2])
            elif current == "face":
                # property list <count type> <index type> vertex_indices
                if (len(tokens) != 5 or tokens[1] != "list"
                        or tokens[4] not in ("vertex_index", "vertex_indices")):
                    raise MalformedHeaderError(
                        f"unsupported face property {line!r}", lineno
                    )
            else:
                raise MalformedHeaderError("property before any element", lineno)
        elif keyword == "end_header":
            saw_end = True
            break
        else:
            raise MalformedHeaderError(f"unsupported header line {line!r}", lineno)
    if not saw_end:
        raise MalformedHeaderError("missing end_header")
    if "vertex" not in dict(elements):
        raise MalformedHeaderError("missing 'element vertex' declaration")
    if vertex_props != ["x", "y", "z"]:
        raise MalformedHeaderError(
            f"vertex properties must be exactly x, y, z; got {vertex_props}"
        )

    mesh = _bulk_body(raw_lines, lineno, elements)
    return _read_body(lines, elements) if mesh is None else mesh


def _vertex_rows(mesh: Mesh):
    # repr of a Python float is the shortest string that round-trips.
    for x, y, z in mesh.vertices.tolist():
        yield f"{x!r} {y!r} {z!r}"


def _counted_face_rows(mesh: Mesh):
    return map("3 %d %d %d".__mod__, map(tuple, (mesh.faces - 1).tolist()))


def _write_off(mesh: Mesh) -> str:
    out = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} 0"]
    out.extend(_vertex_rows(mesh))
    out.extend(_counted_face_rows(mesh))
    return "\n".join(out) + "\n"


def _write_obj(mesh: Mesh) -> str:
    out = [f"v {row}" for row in _vertex_rows(mesh)]
    for i, j, k in mesh.faces.tolist():
        out.append(f"f {i} {j} {k}")
    return "\n".join(out) + "\n" if out else ""


def _write_ply(mesh: Mesh) -> str:
    out = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.n_vertices}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    out.extend(_vertex_rows(mesh))
    out.extend(_counted_face_rows(mesh))
    return "\n".join(out) + "\n"
