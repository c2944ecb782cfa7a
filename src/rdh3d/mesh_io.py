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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    CoordinateSyntaxError,
    FaceIndexError,
    MalformedHeaderError,
    MeshParseError,
    NonTriangleFaceError,
)
from .partition import Faced
from .values import array, check_face_ids, read_only

FORMATS = ("off", "obj", "ply")

_PLY_FLOAT_TYPES = {"float", "double", "float32", "float64"}


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


def _rows(lead: str, words: np.ndarray, signs=None, decimals=None,
          end: str = "\n") -> bytes:
    """A text row per row of the (n, k) nonnegative integers `words`: lead,
    then each word and a space, with the one-byte `end` in place of the
    last space. A word w of sign s prints as an integer, or with decimals
    as repr((-1)^s * w / 10^decimals) does. Each word gets the same
    columns of a uint8 matrix: its decimal digits, most significant first
    and at least one before the point, and a mask keeps the ones its text
    uses."""
    d, point, s = decimals or 0, decimals is not None, signs is not None
    top = int(words.max(initial=0))
    a = max(len(str(top)) - d, 1)  # integer-part columns
    cols = s + a + point * (1 + max(d, 1)) + 1  # and the separator
    (n, k), lead = words.shape, lead.encode()
    text = np.empty((n, len(lead) + k * cols), np.uint8)
    keep = np.ones(text.shape, bool)
    text[:, :len(lead)] = np.frombuffer(lead, np.uint8)
    # views of the k words' columns
    cell, kept = (x[:, len(lead):].reshape(n, k, cols) for x in (text, keep))
    rest = words.astype(np.min_scalar_type(top))
    digit = np.empty_like(rest)
    # the digits, least significant first, around the point's column
    for j in [*range(s + a + d, s + a, -1), *range(s + a - 1, s - 1, -1)]:
        np.divmod(rest, 10, out=(rest, digit))
        cell[..., j] = digit + ord("0")
    if s:
        cell[..., 0], kept[..., 0] = ord("-"), signs
    # the integer part opens at its first nonzero digit
    kept[..., s:s + a - 1] = words[..., None] >= 10 ** np.arange(a + d - 1, d, -1)
    if point:
        cell[..., s + a] = ord(".")
        if not d:
            cell[..., s + a + 1] = ord("0")
        # the fraction closes at its last nonzero digit, or at its first
        kept[..., s + a + 2:-1] = np.logical_or.accumulate(
            cell[..., s + a + d:s + a + 1:-1] != ord("0"), axis=-1)[..., ::-1]
    cell[..., -1] = ord(" ")
    cell[:, -1, -1] = ord(end)
    if d > 4:
        # repr's exponent form of w < 10^(d-4) fits the cell's d + 3 columns
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


def _numbers(tokens, kind, error, message, shown, lineno):
    """The rule for a number in mesh text, the one np.loadtxt keeps: an
    ASCII token with no "_" that kind (int or float) accepts. The tokens
    as kind, or error(message % shown, lineno) when one breaks the rule;
    the message is built only then, as a line reader calls this per row."""
    try:
        if (joined := "".join(tokens)).isascii() and "_" not in joined:
            return list(map(kind, tokens))
    except ValueError:
        pass
    raise error(message % (shown,), lineno)


def _parse_vertex_row(tokens, lineno):
    """Parse an 'x y z' row (OFF/PLY body, OBJ after the 'v')."""
    if len(tokens) != 3:
        raise CoordinateSyntaxError(
            f"expected 3 coordinates, got {len(tokens)}", lineno
        )
    return _numbers(tokens, float, CoordinateSyntaxError,
                    "non-numeric coordinate: %r", tokens, lineno)


def _parse_counted_face(tokens, lineno):
    """Parse a 'c i j k' row (OFF/PLY body) into [i, j, k, lineno], ids
    0-based as written."""
    count, = _numbers(tokens[:1], int, MeshParseError,
                      "face row does not start with a count: %r", tokens[0], lineno)
    if count != 3 or len(tokens) != 4:
        raise NonTriangleFaceError(
            f"only triangle faces are supported, got {len(tokens) - 1} values "
            f"with declared count {count}",
            lineno,
        )
    return [*_numbers(tokens[1:], int, MeshParseError, "non-integer face index in %r",
                      tokens[1:], lineno), lineno]


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
            if (row := next(lines, None)) is None:
                raise MeshParseError(
                    f"unexpected end of file: expected {count} {name} rows, got {got}")
            out.append(parse_row(row[1].split(), row[0]))
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
    pos, one row per line and _CHUNK rows per conversion: from their
    digits (_digit_rows) where the chunk is in that form, else by
    np.loadtxt (_loadtxt_rows). A face row's count must be 3 and is
    dropped. The offset after the last row, or None when the lines are
    not exactly such rows."""
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
        block = _digit_rows(chunk, len(rows), width, dtype)
        if block is None:
            block = _loadtxt_rows(chunk, len(rows), width, dtype, chars)
        if block is None or (block[:, :-3] != 3).any():
            return None
        rows[:] = block[:, -3:]
        row_bytes = (end - pos) // len(rows) + 8
        pos = end
    return pos


# The token forms that _digit_rows converts, each with its group of
# fraction digits, and the most digits a token may have: an unsigned
# integer (no fraction), which int64 holds up to 18 digits, and a
# fixed-decimal number [-]D+.D{d}, exact up to 15 digits.
_DIGIT_TOKENS = {
    np.int64: (re.compile(rb"\d+()"), 18),
    np.float64: (re.compile(rb"-?\d+\.(\d+)"), 15),
}


def _digit_rows(chunk: bytes, rows: int, width: int, dtype):
    """The (rows, width) block of chunk converted from its digits, or
    None to leave the chunk to _loadtxt_rows.

    Converted: lines of exactly width tokens, one space between them
    and a "\n" after the last, where every token has the form of
    _DIGIT_TOKENS[dtype], with one number d of fraction digits for the
    whole chunk (d = 0 for integers, d >= 1 for fixed decimals). The
    first line is checked in Python before any array the size of the
    chunk is built, so a chunk in another form (full-precision repr,
    mixed decimals, exponents) costs next to nothing.

    A token's digits make an integer k, read column by column; the
    token is k, or k / 10^d with its sign applied after the division,
    so "-0.0000" stays -0.0. k < 10^15 < 2^53 and 10^d are exact
    doubles, so that one IEEE division rounds the quotient correctly
    and gives what float() and np.loadtxt give (Clinger's fast path).
    """
    form, most = _DIGIT_TOKENS[dtype]
    first = [form.fullmatch(t) for t in chunk[:chunk.find(b"\n")].split(b" ")]
    if len(first) != width or not all(first) or not chunk.endswith(b"\n"):
        return None
    d = len(first[0][1])
    if any(len(m[1]) != d for m in first):
        return None
    a = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero(a <= 32)  # the separator after each token
    if ends.size != rows * width:
        return None
    seps = a[ends].reshape(rows, width)
    if (seps[:, :-1] != ord(" ")).any() or (seps[:, -1] != ord("\n")).any():
        return None
    digits = np.diff(ends, prepend=-1)
    digits -= 1  # each token's bytes
    point = d > 0  # whether a token holds a point, and may hold a sign
    neg = a[ends - digits] == ord("-") if point else np.zeros(ends.size, bool)
    digits -= neg
    digits -= point
    lo, hi = int(digits.min()), int(digits.max())
    if lo <= d or hi > most:  # no digit before the point, or too many
        return None
    # every byte but the separators, the points and the signs is a
    # digit (uint8 wraps below "0")
    others = ends.size * (1 + point) + np.count_nonzero(neg)
    if np.count_nonzero(a - ord("0") < 10) != a.size - others:
        return None
    if point and (a[ends - (d + 1)] != ord(".")).any():
        return None
    # k is summed in float64 for decimals: every partial sum is an
    # integer below 2^53, so it is exact
    k = np.zeros(ends.size, np.float64 if point else np.int64)
    for j in range(hi - 1, -1, -1):  # the digit of 10^j
        column = a[ends - (j + 1 + (point and j >= d))] - ord("0")
        if j >= lo:  # a token of fewer digits has none here; its
            column *= digits > j  # index may wrap to the chunk's end
        k *= 10
        k += column
    if point:
        k /= 10.0**d
        np.negative(k, out=k, where=neg)
    return k.reshape(rows, width)


def _loadtxt_rows(chunk: bytes, rows: int, width: int, dtype, chars: bytes):
    """The (rows, width) block of chunk converted by np.loadtxt, or None
    when its lines are not exactly rows rows of width numbers."""
    # splitlines cuts lines where the line reader's does, also at a
    # lone "\r", so it must give one line per row: with the lead cut,
    # "v \r0 0 0" would be a blank line and a row, while the line
    # reader reads the line "v " and raises. loadtxt skips blank lines
    # (and warns when all are), so lines that are not exactly
    # rows rows show as a block of another length.
    if chunk.translate(None, chars) or chunk.isspace():
        return None
    lines = chunk.decode("ascii").splitlines()
    if len(lines) != rows:
        return None
    try:
        block = np.loadtxt(lines, dtype=dtype, ndmin=2, comments=None)
    except ValueError:
        return None
    return block if block.shape == (rows, width) else None


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


def _header_line(lines, missing: str):
    """The next (line number, line) of a header's meaningful lines, or
    MalformedHeaderError(missing) when the file ends first."""
    if (got := next(lines, None)) is None:
        raise MalformedHeaderError(missing)
    return got


def _read_off_header(raw_lines):
    """(lines, elements): the meaningful lines after an OFF header, and
    the (name, count) elements it declares."""
    lines = _meaningful_lines(raw_lines)
    lineno, header = _header_line(lines, "empty OFF file")
    if header != "OFF":
        raise MalformedHeaderError(f"expected 'OFF' header, got {header!r}", lineno)
    lineno, counts = _header_line(lines, "missing OFF counts line")
    parts = counts.split()
    if len(parts) != 3:
        raise MalformedHeaderError(f"expected 'N M E' counts, got {counts!r}", lineno)
    n_verts, n_faces, n_edges = _numbers(parts, int, MalformedHeaderError,
                                         "non-integer counts: %r", counts, lineno)
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
            heads = [ref.split("/", 1)[0] for ref in refs]
            face_rows.append([*_numbers(heads, int, MeshParseError,
                                        "non-integer face index in %r", refs, lineno), lineno])
        elif keyword in _OBJ_IGNORED:
            continue
        else:
            raise MeshParseError(f"unsupported OBJ keyword {keyword!r}", lineno)
    return _finish_mesh(vertices, face_rows, 1)


def _read_ply_header(raw_lines):
    """(lines, elements): the meaningful lines after a PLY header, and
    the (name, count) elements it declares, in order."""
    lines = _meaningful_lines(raw_lines, skip_prefixes=("comment", "obj_info"))
    lineno, magic = _header_line(lines, "empty PLY file")
    if magic != "ply":
        raise MalformedHeaderError(f"expected 'ply' magic, got {magic!r}", lineno)
    lineno, fmt_line = _header_line(lines, "missing PLY format line")
    fmt_tokens = fmt_line.split()
    if fmt_tokens[:1] != ["format"]:
        raise MalformedHeaderError(f"expected 'format' line, got {fmt_line!r}", lineno)
    if fmt_tokens[1:] != ["ascii", "1.0"]:
        raise MalformedHeaderError(
            f"only ASCII 1.0 PLY is supported, got {fmt_line!r} "
            "(binary PLY is rejected)",
            lineno,
        )

    # Header walk: only vertex and face elements are allowed, and a
    # property belongs to the last element declared.
    elements = {}  # name: count, in declaration order
    vertex_props = []
    for lineno, line in lines:
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "element":
            if len(tokens) != 3:
                raise MalformedHeaderError(f"bad element line {line!r}", lineno)
            name = tokens[1]
            count, = _numbers(tokens[2:], int, MalformedHeaderError,
                              "bad element count %r", tokens[2], lineno)
            if name not in _ROW_PARSERS:
                raise MalformedHeaderError(
                    f"unsupported element {name!r}: only vertex and face", lineno
                )
            if count < 0:
                raise MalformedHeaderError(f"negative element count {count}", lineno)
            if name in elements:
                raise MalformedHeaderError(f"repeated element {name!r}", lineno)
            elements[name] = count
        elif keyword == "property":
            if not elements:
                raise MalformedHeaderError("property before any element", lineno)
            if next(reversed(elements)) == "vertex":
                if tokens[1:2] == ["list"]:
                    raise MalformedHeaderError("list property on vertex element", lineno)
                if len(tokens) != 3 or tokens[1] not in _PLY_FLOAT_TYPES:
                    raise MalformedHeaderError(
                        f"unsupported vertex property {line!r}", lineno
                    )
                vertex_props.append(tokens[2])
            # else the face element's: property list <count type> <index type> vertex_indices
            elif (len(tokens) != 5 or tokens[1] != "list"
                    or tokens[4] not in ("vertex_index", "vertex_indices")):
                raise MalformedHeaderError(f"unsupported face property {line!r}", lineno)
        elif keyword == "end_header":
            break
        else:
            raise MalformedHeaderError(f"unsupported header line {line!r}", lineno)
    else:
        raise MalformedHeaderError("missing end_header")
    if "vertex" not in elements:
        raise MalformedHeaderError("missing 'element vertex' declaration")
    if vertex_props != ["x", "y", "z"]:
        raise MalformedHeaderError(
            f"vertex properties must be exactly x, y, z; got {vertex_props}"
        )
    return lines, elements.items()


# The header reader of each format that has a header.
_HEADERS = {"off": _read_off_header, "ply": _read_ply_header}
