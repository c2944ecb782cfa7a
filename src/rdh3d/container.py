"""Binary .rdh3d container: encrypted/marked mesh plus plaintext header.

MarkedContainer is the one encrypted form of a mesh. The owner's
(`cipher.encrypt_mesh`) has n=1, no payload and every embedded vertex
excluded; `codec.embed` turns it into a marked one.

Layout (all header integers little-endian):

    offset 0   magic "RDH3"
    offset 4   u8  version (1)
    offset 5   u8  m
    offset 6   u8  l  (= bit_length(m))
    offset 7   u8  n
    offset 8   u32 N  (vertex count)
    offset 12  u32 M  (face count)
    offset 16  u64 payload bit count
    then       sign bitmap, ceil(3N/8) bytes, vertex-major x,y,z, MSB-first
    then       excluded bitmap over C, ceil(|C|/8) bytes, C order, MSB-first
    then       3N magnitude words, l bits each, big-endian, vertex-major
    then       faces, M triples of u32 little-endian, 1-based

|C| is not stored: it is a deterministic function of the face list, so
the reader derives the partition once, treats any size disagreement with
the excluded bitmap as corruption, and hands the partition on with the
container (`MarkedContainer.partition`, never serialized) so extraction,
recovery and embedding do not derive it again. Bitmap padding bits must
be zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContainerError
from .mesh_io import Mesh
from .partition import Partition, partition as compute_partition
from .quantize import M_MAX, M_MIN, WORD_DTYPES, bit_length

MAGIC = b"RDH3"
VERSION = 1

_HEADER = struct.Struct("<4sBBBBIIQ")


@dataclass
class MarkedContainer:
    m: int
    n: int
    payload_bits: int
    signs: np.ndarray       # (N, 3) uint8
    excluded: np.ndarray    # (|C|,) uint8, 1 = excluded, C order
    magnitudes: np.ndarray  # (N, 3) int64 l-bit words, encrypted (C vertices may carry payload)
    faces: np.ndarray       # (M, 3) int64, 1-based
    # Split of `faces` as the reader or the owner hands it on, else derived
    # here; not serialized, ignored by ==. Replace it if `faces` changes.
    partition: Partition | None = field(default=None, repr=False)

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=np.uint8).reshape(-1, 3)
        self.excluded = np.asarray(self.excluded, dtype=np.uint8).reshape(-1)
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.int64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.partition is None:
            self.partition = compute_partition(self.n_vertices, self.faces)

    @property
    def l(self) -> int:
        return bit_length(self.m)

    @property
    def n_vertices(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def checked_partition(self) -> Partition:
        """The embedded/reference split of the face list. Raises
        ContainerError unless the excluded bitmap covers exactly |C|
        vertices."""
        if self.partition.n_embedded != self.excluded.size:
            raise ContainerError(
                f"excluded bitmap covers {self.excluded.size} vertices but the "
                f"face list implies {self.partition.n_embedded} embedded vertices"
            )
        return self.partition

    def capacity_bits(self) -> int:
        return 3 * self.n * int((self.excluded == 0).sum())

    def __eq__(self, other):
        if not isinstance(other, MarkedContainer):
            return NotImplemented
        return (
            (self.m, self.n, self.payload_bits)
            == (other.m, other.n, other.payload_bits)
            and np.array_equal(self.signs, other.signs)
            and np.array_equal(self.excluded, other.excluded)
            and np.array_equal(self.magnitudes, other.magnitudes)
            and np.array_equal(self.faces, other.faces)
        )


def _pack_bitmap(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8).ravel()).tobytes()


def _unpack_bitmap(raw: bytes, n_bits: int, what: str) -> np.ndarray:
    data = np.frombuffer(raw, dtype=np.uint8)
    bits = np.unpackbits(data)
    if bits[n_bits:].any():
        raise ContainerError(f"nonzero padding bits in {what} bitmap")
    return bits[:n_bits]


def _word_length(m: int, n: int) -> int:
    """The word length l of a container with precision m and embedding
    length n; raises ContainerError unless m and n are in range."""
    if not M_MIN <= m <= M_MAX:
        raise ContainerError(f"precision m={m} outside [{M_MIN}, {M_MAX}]")
    l = bit_length(m)
    if not 1 <= n <= l:
        raise ContainerError(f"embedding length n={n} outside [1, {l}]")
    return l


def write_container(c: MarkedContainer) -> bytes:
    """Serialize; the result re-reads to an equal MarkedContainer byte-exactly."""
    l = _word_length(c.m, c.n)
    mags = c.magnitudes
    if mags.size and (mags.min() < 0 or int(mags.max()) >> l):
        raise ContainerError("magnitude does not fit the declared word length")
    header = _HEADER.pack(
        MAGIC, VERSION, c.m, l, c.n, c.n_vertices, c.n_faces, c.payload_bits
    )
    parts = [
        header,
        _pack_bitmap(c.signs) if c.signs.size else b"",
        _pack_bitmap(c.excluded) if c.excluded.size else b"",
        mags.astype(WORD_DTYPES[l]).tobytes(),
        c.faces.astype("<u4").tobytes(),
    ]
    return b"".join(parts)


def read_container(data: bytes) -> MarkedContainer:
    """Parse and validate a container; raises ContainerError on any damage."""
    if len(data) < _HEADER.size:
        raise ContainerError(
            f"truncated container: {len(data)} bytes, header needs {_HEADER.size}"
        )
    magic, version, m, l, n, n_verts, n_faces, payload_bits = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if l != _word_length(m, n):
        raise ContainerError(f"word length l={l} inconsistent with m={m}")

    sign_bytes = (3 * n_verts + 7) // 8
    mag_bytes = 3 * n_verts * (l // 8)
    face_bytes = 12 * n_faces
    excl_bytes = len(data) - _HEADER.size - sign_bytes - mag_bytes - face_bytes
    if excl_bytes < 0:
        raise ContainerError(
            f"length mismatch: {len(data)} bytes cannot hold the declared mesh"
        )

    pos = _HEADER.size
    sign_raw = data[pos:pos + sign_bytes]
    pos += sign_bytes
    excl_raw = data[pos:pos + excl_bytes]
    pos += excl_bytes
    mag_raw = data[pos:pos + mag_bytes]
    pos += mag_bytes
    face_raw = data[pos:pos + face_bytes]

    faces = (
        np.frombuffer(face_raw, dtype="<u4").astype(np.int64).reshape(-1, 3)
        if face_bytes
        else np.empty((0, 3), dtype=np.int64)
    )
    if faces.size and (faces.min() < 1 or faces.max() > n_verts):
        raise ContainerError("face index out of range (corrupt face table)")

    signs = _unpack_bitmap(sign_raw, 3 * n_verts, "sign").reshape(-1, 3)

    part = compute_partition(n_verts, faces)
    k_count = part.n_embedded
    if excl_bytes != (k_count + 7) // 8:
        raise ContainerError(
            f"excluded bitmap holds {excl_bytes} bytes but the face list "
            f"implies {k_count} embedded vertices"
        )
    excluded = _unpack_bitmap(excl_raw, k_count, "excluded")

    capacity = 3 * n * int((excluded == 0).sum())
    if payload_bits > capacity:
        raise ContainerError(
            f"declared payload of {payload_bits} bits exceeds capacity {capacity}"
        )

    return MarkedContainer(
        m=m, n=n, payload_bits=payload_bits, signs=signs,
        excluded=excluded, magnitudes=np.frombuffer(mag_raw, dtype=WORD_DTYPES[l]),
        faces=faces, partition=part,
    )


def read_container_file(path) -> MarkedContainer:
    with open(path, "rb") as fh:
        return read_container(fh.read())


def write_container_file(path, c: MarkedContainer):
    with open(path, "wb") as fh:
        fh.write(write_container(c))


def container_mesh(c: MarkedContainer) -> Mesh:
    """Signed integer coordinates as a Mesh, for visual export of the
    encrypted/marked state (coordinates fit float64 exactly)."""
    signed = np.where(c.signs == 1, -1.0, 1.0) * c.magnitudes.astype(np.float64)
    return Mesh(signed, c.faces.copy())
