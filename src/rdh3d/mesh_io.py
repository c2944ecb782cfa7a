"""Triangle mesh parsing and serialization for ASCII OFF, OBJ and PLY.

Vertex and face order are preserved exactly; coordinates are printed in
shortest round-trip decimal form, so parse(write(mesh)) reproduces the
numeric model bit for bit even though the text bytes may differ from the
original file. A well-formed body (OFF, PLY, or an OBJ file of only `v`
and then `f` lines) is converted by numpy from the file's bytes, a chunk
of rows at a time; any other body is read line by line, so that an error
names the offending line.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    CoordinateSyntaxError,
    FaceIndexError,
    MalformedHeaderError,
    MeshParseError,
    NonTriangleFaceError,
)

FORMATS = ("off", "obj", "ply")

_PLY_FLOAT_TYPES = {"float", "double", "float32", "float64"}


def _fixed(arr: np.ndarray) -> bool:
    """Whether arr is read-only down to memory that nothing can write:
    the bytes behind np.frombuffer, or a read-only array that owns its
    data."""
    while not arr.flags.writeable:
        base = arr.base
        if base is None:
            return True
        if type(base) is not np.ndarray:
            return type(base) is bytes
        arr = base
    return False


def _frozen(values, dtype, row) -> np.ndarray:
    """values as a read-only array of dtype and shape (-1, *row) that no
    writable array shares. An array that is read-only down to its memory
    (see _fixed) is kept, as the same object when its dtype and shape
    match; an array that shares other memory is copied."""
    if (type(values) is np.ndarray and values.dtype == dtype
            and values.shape[1:] == row and _fixed(values)):
        return values
    arr = np.asarray(values, dtype=dtype).reshape(-1, *row)
    if not _fixed(arr):
        if np.may_share_memory(arr, values):
            arr = arr.copy()
        read_only(arr)
    return arr


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr with its write flag cleared, and its owner's if it is a view,
    for a fresh array that nothing else holds: a Frozen value keeps it
    as the same object, without a copy."""
    owner = arr
    while type(owner) is np.ndarray:
        owner.flags.writeable = False
        owner = owner.base
    return arr


def array(dtype, shape=(-1, 3)):
    """A Frozen field: a read-only array of dtype and shape -1 or (-1, 3)."""
    return field(metadata={"array": (np.dtype(dtype), () if shape == -1 else shape[1:])})


class Frozen:
    """The rule of every pipeline value, for a frozen dataclass with
    eq=False: each `array()` field is kept read-only, so the value can be
    neither reassigned nor edited in place, and an array a caller holds
    is copied unless it is read-only down to its memory (see _frozen).
    numpy lets the holder of a read-only array that owns its data make it
    writable again, and an edit through it reaches the value; only memory
    that `bytes` backs is beyond that. Two values of one type are equal
    when every field is; a value is not hashable.
    """

    def __post_init__(self):
        for f in fields(self):
            if spec := f.metadata.get("array"):
                object.__setattr__(self, f.name, _frozen(getattr(self, f.name), *spec))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    __hash__ = None


_splits: dict = {}  # (id(faces), n_vertices) -> Partition, while the faces live


def split_of(faces: np.ndarray, n_vertices: int):
    """The split (`partition.partition`) of a Frozen value's face array,
    derived once per array object: that array is read-only down to its
    memory (see _frozen), so one object always holds the same faces."""
    key = (id(faces), n_vertices)
    part = _splits.get(key)
    if part is None:
        from .partition import partition  # imported here: partition imports Frozen
        part = _splits[key] = partition(n_vertices, faces)
        weakref.finalize(faces, _splits.pop, key, None)
    return part


def bad_face_id(faces: np.ndarray, n_vertices: int):
    """The rule for face ids: each lies in 1..n_vertices. (row, id) of
    the first id in row order that breaks it, else None. A min/max pass
    decides; only an array that breaks the rule is searched."""
    if faces.size:
        lo, hi = int(faces.min()), int(faces.max())
        if lo < 1 or hi > n_vertices:
            at = int(np.argmax((faces < 1) | (faces > n_vertices)))
            return at // 3, int(faces.flat[at])
    return None


def check_face_ids(faces: np.ndarray, n_vertices: int, error=ValueError,
                   base: int = 1, lines=None):
    """Raise error unless the (M, 3) 1-based faces keep the rule of
    bad_face_id. Its message names the first bad id and the valid range
    as a file whose ids count from base writes them; with `lines`, the
    line of each face row, error is a MeshParseError and names the bad
    row's line too."""
    if (bad := bad_face_id(faces, n_vertices)) is not None:
        row, idx = bad
        message = (f"face index out of range: {idx - 1 + base} "
                   f"(valid range {base}..{n_vertices - 1 + base})")
        raise error(message) if lines is None else error(message, int(lines[row]))


class Faced(Frozen):
    """A Frozen value over 1-based triangle `faces` on `n_vertices`
    vertices; every value that holds the same face array shares its split.
    Construction raises `_error` unless every face id lies in
    1..n_vertices (see check_face_ids)."""

    _error = ValueError

    def __post_init__(self):
        super().__post_init__()
        # an array whose split exists passed the rule when it was derived
        if (id(self.faces), self.n_vertices) not in _splits:
            check_face_ids(self.faces, self.n_vertices, self._error)

    @property
    def partition(self):
        """The embedded/reference split of the faces (see split_of)."""
        return split_of(self.faces, self.n_vertices)

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


@dataclass(frozen=True, eq=False)
class Mesh(Faced):
    """Plaintext carrier: float coordinates plus 1-based triangle faces.
    Frozen, with read-only arrays (see Frozen)."""

    vertices: np.ndarray = array(np.float64)  # (N, 3)
    faces: np.ndarray = array(np.int64)       # (M, 3), 1-based

    _error = FaceIndexError

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def _check_format(fmt: str) -> str:
    fmt = fmt.lower()
    if fmt not in FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r}, expected one of {FORMATS}")
    return fmt


def parse_mesh(data: bytes | str, fmt: str) -> Mesh:
    """Parse raw file content in the named format.

    Raises a MeshParseError subclass naming the offending line on
    malformed headers, non-numeric coordinates, out-of-range face
    indices, and non-triangle faces; face ids are checked once every
    line is read, so any other error wins.
    """
    fmt = _check_format(fmt)
    mesh = _bulk_body(data, fmt)
    if mesh is None:
        text = _decoded(data)
        if fmt == "obj":
            return _parse_obj(text)
        mesh = _read_body(*_HEADERS[fmt](text.splitlines()))
    return mesh


def _decoded(data: bytes | str) -> str:
    if not isinstance(data, bytes):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MeshParseError(f"not an ASCII mesh file: {exc}") from None


def write_mesh(mesh, fmt: str) -> str:
    """Serialize a Mesh, or a `quantize.SignMagnitude` value as the Mesh its
    `coordinates()` gives, byte for byte; output re-parses to that Mesh."""
    return b"".join(_mesh_text(mesh, _check_format(fmt))).decode("ascii")


def read_mesh_file(path, fmt: str | None = None) -> Mesh:
    fmt = fmt or format_from_path(path)
    with open(path, "rb") as fh:
        return parse_mesh(fh.read(), fmt)


def write_mesh_file(path, mesh, fmt: str | None = None):
    """Write write_mesh's text to path, _CHUNK rows at a time."""
    text = _mesh_text(mesh, _check_format(fmt or format_from_path(path)))
    with open(path, "wb") as fh:
        fh.writelines(text)


def _mesh_text(mesh, fmt: str):
    """The text of write_mesh as ASCII chunks: the header, then _CHUNK
    vertex rows and _CHUNK face rows at a time."""
    n_verts, n_faces = mesh.n_vertices, mesh.n_faces
    head = {
        "off": ["OFF", f"{n_verts} {n_faces} 0"],
        "obj": [],
        "ply": ["ply", "format ascii 1.0", f"element vertex {n_verts}",
                "property double x", "property double y", "property double z",
                f"element face {n_faces}", "property list uchar int vertex_indices",
                "end_header"],
    }[fmt]
    if head:
        yield ("\n".join(head) + "\n").encode()
    # OBJ rows open with a keyword and face ids count from 1; OFF and PLY
    # face rows open with their vertex count and ids count from 0
    v, f, base = ("v ", "f ", 0) if fmt == "obj" else ("", "3 ", 1)
    for i in range(0, n_verts, _CHUNK):
        if isinstance(mesh, Mesh):
            # repr of a Python float is the shortest string that round-trips
            yield "".join(f"{v}{x!r} {y!r} {z!r}\n"
                          for x, y, z in mesh.vertices[i:i + _CHUNK].tolist()).encode()
        else:
            yield _rows(v, mesh.magnitudes[i:i + _CHUNK], mesh.signs[i:i + _CHUNK],
                        mesh.decimals)
    for i in range(0, n_faces, _CHUNK):
        yield _rows(f, mesh.faces[i:i + _CHUNK] - base)


def decimal_digits(words: np.ndarray, point: int = 0):
    """(digits, opened): the decimal digits of the nonnegative integers
    words, `point` of them after a decimal point and at least one before
    it, as a uint8 array of ASCII digits of shape words.shape + (width,),
    most significant first, every word with the same width; and a bool
    array over each word's integer-part columns but its units, true from
    the column of the word's first nonzero digit on, where its text
    opens."""
    top = int(words.max(initial=0))
    width = max(len(str(top)), point + 1)
    digits = np.empty((*words.shape, width), np.uint8)
    rest = words.astype(np.min_scalar_type(top))
    digit = np.empty_like(rest)
    for j in range(width - 1, -1, -1):
        np.divmod(rest, 10, out=(rest, digit))
        digits[..., j] = digit
    digits += ord("0")
    return digits, words[..., None] >= 10 ** np.arange(width - 1, point, -1)


def _rows(lead: str, words: np.ndarray, signs=None, decimals=None) -> bytes:
    """A text row per row of the (n, 3) nonnegative integers `words`: lead,
    then each word and a space (a newline after the last). A word k of
    sign s prints as an integer, or with decimals as repr((-1)^s * k /
    10^decimals) does. Each word gets the same columns of a uint8 matrix,
    and a mask keeps the ones its text uses."""
    d, point, s = decimals or 0, decimals is not None, signs is not None
    digits, opened = decimal_digits(words, d)
    a = digits.shape[-1] - d  # integer-part columns
    cols = s + a + point * (1 + max(d, 1)) + 1  # and the separator
    n, lead = len(words), lead.encode()
    text = np.empty((n, len(lead) + 3 * cols), np.uint8)
    keep = np.ones(text.shape, bool)
    text[:, :len(lead)] = np.frombuffer(lead, np.uint8)
    # views of the three words' columns
    cell, kept = (x[:, len(lead):].reshape(n, 3, cols) for x in (text, keep))
    if s:
        cell[..., 0], kept[..., 0] = ord("-"), signs
    cell[..., s:s + a] = digits[..., :a]
    kept[..., s:s + a - 1] = opened  # the integer part opens at its first nonzero digit
    if point:
        cell[..., s + a] = ord(".")
        cell[..., s + a + 1:-1] = digits[..., a:] if d else ord("0")
        # the fraction closes at its last nonzero digit, or at its first
        kept[..., s + a + 2:-1] = np.logical_or.accumulate(
            digits[..., :a:-1] != ord("0"), axis=-1)[..., ::-1]
    cell[..., -1] = ord(" ")
    cell[:, 2, -1] = ord("\n")
    if d > 4:
        # repr's exponent form of k < 10^(d-4) fits the cell's d + 3 columns
        for i, c in np.argwhere((words > 0) & (words < 10 ** (d - 4))).tolist():
            x = int(words[i, c]) / 10**d
            token = repr(-x if signs[i, c] else x).encode()
            cell[i, c, :len(token)] = np.frombuffer(token, np.uint8)
            kept[i, c, :-1] = np.arange(cols - 1) < len(token)
    return text[keep].tobytes()


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
    """Parse a 'c i j k' row (OFF/PLY body) into [i, j, k, lineno], ids
    0-based as written."""
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


def _finish_mesh(vertices, face_rows, base: int) -> Mesh:
    """face_rows holds [i, j, k, line number] rows, ids as the file
    writes them, counting from base."""
    verts = np.array(vertices, dtype=np.float64).reshape(-1, 3)
    try:
        rows = np.array(face_rows, dtype=np.int64).reshape(-1, 4)
    except OverflowError:  # an id beyond int64, out of range too
        rows = np.array(face_rows, dtype=object)
    faces = rows[:, :3] + (1 - base)
    check_face_ids(faces, len(verts), FaceIndexError, base, rows[:, 3])
    return Mesh(read_only(verts), read_only(faces))


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
    return _finish_mesh(rows["vertex"], rows["face"], 0)


# Rows per np.loadtxt call when a body is read in bulk, and per chunk of
# written text.
_CHUNK = 1 << 13

# Per bulk-read element: the dtype and width of one row, the keyword
# that opens each of its lines (OBJ's; cut before conversion), and every
# other character a well-formed row may hold (its numbers, the spaces
# between them and its line end; face rows hold integers only, and OBJ
# face rows positive ones without a sign).
_BLOCKS = {
    "vertex": (np.float64, 3, b"", b"0123456789+-.eE \r\n"),
    "face": (np.int64, 4, b"", b"0123456789+- \r\n"),
    "v": (np.float64, 3, b"v ", b"0123456789+-.eE \r\n"),
    "f": (np.int64, 3, b"f ", b"0123456789 \r\n"),
}

# A byte other than "\n" at which str.splitlines cuts a line, or a byte
# that is not ASCII.
_ODD_LINE_BYTE = re.compile(rb"[\r\x0b\x0c\x1c-\x1e\x80-\xff]")


class _HeadLines:
    """The lines at the start of data as str without their ends, for a
    header reader; `end` is the offset after the last line given.

    A line ends in "\n", "\r\n" or the end of data. The lines stop
    before one that str.splitlines would cut elsewhere or that is not
    ASCII, so a header that runs into such a line reads as truncated.
    """

    def __init__(self, data: bytes):
        self.data, self.end = data, 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        start = self.end
        stop = self.data.find(b"\n", start) + 1 or len(self.data)
        line = self.data[start:stop].removesuffix(b"\n").removesuffix(b"\r")
        if start == stop or _ODD_LINE_BYTE.search(line):
            raise StopIteration
        self.end = stop
        return line.decode("ascii")


def _lines_end(data: bytes, pos: int, rows: int, size: int):
    """The offset after the next `rows` lines of data from pos, the last
    of which may end at the end of data, or None when fewer are left.
    Looks for them in a window of size bytes, doubled until it holds
    them."""
    while pos < len(data):
        window = np.frombuffer(data, np.uint8, min(size, len(data) - pos), pos)
        ends = np.flatnonzero(window == ord("\n"))
        if ends.size >= rows:
            return pos + int(ends[rows - 1]) + 1
        if pos + window.size == len(data):
            unended = window.size > (int(ends[-1]) + 1 if ends.size else 0)
            return len(data) if ends.size + unended == rows else None
        size *= 2
    return None


def _load_rows(data: bytes, pos: int, out: np.ndarray, name: str):
    """Fill out with the rows of one element from the lines of data at
    pos, one row per line and _CHUNK rows per np.loadtxt call; a face
    row's count must be 3 and is dropped. The offset after the last
    row, or None when the lines are not exactly such rows."""
    dtype, width, lead, chars = _BLOCKS[name]
    row_bytes = 64  # a guess, then the last chunk's mean plus a margin
    for done in range(0, len(out), _CHUNK):
        rows = out[done:done + _CHUNK]
        end = _lines_end(data, pos, len(rows), row_bytes * len(rows))
        if end is None:
            return None
        chunk = data[pos:end]
        if lead:  # every line opens with it: the first, and each after a "\n"
            if (not chunk.startswith(lead)
                    or chunk.count(b"\n" + lead) != len(rows) - 1):
                return None
            chunk = chunk.replace(b"\n" + lead, b"\n")[len(lead):]
        # splitlines cuts lines where the line reader's does, also at a
        # lone "\r", so it must give one line per row: with the lead cut,
        # "v \r0 0 0" would be a blank line and a row, while the line
        # reader reads the line "v " and raises. loadtxt skips blank lines
        # (and warns when all are), so lines that are not exactly
        # len(rows) rows show as a block of another length.
        if chunk.translate(None, chars) or chunk.isspace():
            return None
        lines = chunk.decode("ascii").splitlines()
        if len(lines) != len(rows):
            return None
        try:
            block = np.loadtxt(lines, dtype=dtype, ndmin=2, comments=None)
        except ValueError:
            return None
        del lines  # before the next chunk's lines are made
        if block.shape != (len(rows), width) or (block[:, :-3] != 3).any():
            return None
        rows[:] = block[:, -3:]
        row_bytes = (end - pos) // len(rows) + 8
        pos = end
    return pos


def _bulk_body(data: bytes | str, fmt: str):
    """The mesh of a file in format fmt whose body is well formed, or None.

    Well formed: the vertex rows, then the triangle rows, one per line,
    with no blank, comment, missing or trailing line, no character
    outside _BLOCKS, and every face index in range. An OFF or PLY body
    follows its header, whose counts say where the rows end; an OBJ
    file is all body: its vertex rows are its lines up to the first
    that opens with "f ", and its face rows the rest. numpy converts
    such a body into preallocated arrays, one chunk of rows at a time,
    and gives the mesh the line reader would return. Any other file
    gives None and goes to the line reader (_read_body or _parse_obj),
    which reads it or raises the error that names its line. A header
    error gives None too: parse_mesh raises it again after decoding the
    whole text, so a text that does not decode fails as such first.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    if fmt == "obj":
        split = data.find(b"\nf ") + 1 or len(data)
        n_verts, n_faces = _n_lines(data, 0, split), _n_lines(data, split, len(data))
        # the shortest rows, "v 0 0 0\n" and "f 1 1 1\n", bound the
        # line counts before anything is allocated
        if 8 * (n_verts + n_faces) > len(data) + 1:
            return None
        pos, base, names = 0, 1, ("v", "f")
    else:
        head = _HeadLines(data)
        try:
            _, elements = _HEADERS[fmt](head)
        except MalformedHeaderError:
            return None
        if [name for name, _ in elements] not in (["vertex"], ["vertex", "face"]):
            return None
        counts = dict(elements)
        n_verts, n_faces = counts["vertex"], counts.get("face", 0)
        # The shortest rows, "0 0 0\n" and "3 0 0 0\n", bound the counts
        # before anything is allocated.
        if 6 * n_verts + 8 * n_faces > len(data) - head.end + 1:
            return None
        pos, base, names = head.end, 0, ("vertex", "face")
    verts = np.empty((n_verts, 3), dtype=np.float64)
    faces = np.empty((n_faces, 3), dtype=np.int64)
    pos = _load_rows(data, pos, verts, names[0])
    if pos is not None:
        pos = _load_rows(data, pos, faces, names[1])
    if pos is None or data[pos:].strip():
        return None
    faces += 1 - base
    try:
        return Mesh(read_only(verts), read_only(faces))
    except FaceIndexError:  # the line reader names its line
        return None


def _n_lines(data: bytes, start: int, stop: int) -> int:
    """The lines of data[start:stop], the last of which may lack its "\n"."""
    return data.count(b"\n", start, stop) + (start < stop and data[stop - 1] != ord("\n"))


def _read_off_header(raw_lines):
    """(lines, elements): the meaningful lines after an OFF header, and
    the (name, count) elements it declares."""
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
    return lines, [("vertex", n_verts), ("face", n_faces)]


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
                try:
                    idx.append(int(ref.split("/", 1)[0]))
                except ValueError:
                    raise MeshParseError(
                        f"non-integer face index in {ref!r}", lineno
                    ) from None
            face_rows.append([*idx, lineno])
        elif keyword in _OBJ_IGNORED:
            continue
        else:
            raise MeshParseError(f"unsupported OBJ keyword {keyword!r}", lineno)
    return _finish_mesh(vertices, face_rows, 1)


def _read_ply_header(raw_lines):
    """(lines, elements): the meaningful lines after a PLY header, and
    the (name, count) elements it declares, in order."""
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
    return lines, elements


# The header reader of each format that has a header.
_HEADERS = {"off": _read_off_header, "ply": _read_ply_header}
