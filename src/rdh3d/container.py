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
the reader derives the partition of the faces it read and treats any
size disagreement with the excluded bitmap as corruption. The split is
never serialized: `MarkedContainer.partition` is derived from the face
array once (see `partition.Faced`), and extraction, recovery and
embedding read that one. Bitmap padding bits must be zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContainerError
from .partition import split_of
from .quantize import WORD_DTYPES, SignMagnitude, bit_length, embedding_length
from .values import array, check_face_ids, read_only

MAGIC = b"RDH3"
VERSION = 1

_HEADER = struct.Struct("<4sBBBBIIQ")

@dataclass(frozen=True, eq=False)
class MarkedContainer(SignMagnitude):
    """Frozen, with read-only arrays (see Frozen). Construction checks
    that the face ids lie in 1..N (see Faced), the sign-magnitude rules
    (see SignMagnitude), that n is in range, that the excluded bitmap
    covers exactly |C| vertices of the split of `faces` and that the
    payload fits the capacity; a broken rule raises ContainerError."""

    m: int
    n: int
    payload_bits: int
    signs: np.ndarray = array(np.uint8)         # (N, 3)
    excluded: np.ndarray = array(np.uint8, -1)  # (|C|,), 1 = excluded, C order
    magnitudes: np.ndarray = array(np.int64)    # (N, 3) l-bit words, encrypted or marked
    faces: np.ndarray = array(np.int64)         # (M, 3), 1-based

    _error = ContainerError

    def __post_init__(self):
        super().__post_init__()
        embedding_length(self.n, self.l, self._error)
        if (k_count := self.partition.n_embedded) != self.excluded.size:
            raise ContainerError(
                f"excluded bitmap covers {self.excluded.size} vertices but the "
                f"face list implies {k_count} embedded vertices"
            )
        if self.payload_bits > (capacity := self.capacity_bits()):
            raise ContainerError(
                f"declared payload of {self.payload_bits} bits exceeds capacity {capacity}"
            )

    def capacity_bits(self) -> int:
        return 3 * self.n * int((self.excluded == 0).sum())


def _pack_bitmap(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8).ravel()).tobytes()


def _unpack_bitmap(raw: bytes, n_bits: int, what: str) -> np.ndarray:
    data = np.frombuffer(raw, dtype=np.uint8)
    bits = np.unpackbits(data)
    if bits[n_bits:].any():
        raise ContainerError(f"nonzero padding bits in {what} bitmap")
    return read_only(bits[:n_bits])


def write_container(c: MarkedContainer) -> bytes:
    """Serialize; the result re-reads to an equal MarkedContainer byte-exactly.
    A MarkedContainer is valid once built, so this only packs bytes."""
    return b"".join([
        _HEADER.pack(MAGIC, VERSION, c.m, c.l, c.n, c.n_vertices, c.n_faces, c.payload_bits),
        _pack_bitmap(c.signs),
        _pack_bitmap(c.excluded),
        c.magnitudes.astype(WORD_DTYPES[c.l]).tobytes(),
        c.faces.astype("<u4").tobytes(),
    ])


def read_container(data: bytes) -> MarkedContainer:
    """Parse and validate a container; raises ContainerError on any damage.
    The header's m is checked first, then n against bit_length(m), then l."""
    if len(data) < _HEADER.size:
        raise ContainerError(
            f"truncated container: {len(data)} bytes, header needs {_HEADER.size}"
        )
    magic, version, m, l, n, n_verts, n_faces, payload_bits = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    embedding_length(n, bit_length(m, ContainerError), ContainerError)
    if l != bit_length(m):
        raise ContainerError(f"word length l={l} inconsistent with m={m}")

    # section offsets: signs, excluded bitmap, words, faces
    excl_at = _HEADER.size + (3 * n_verts + 7) // 8
    face_at = len(data) - 12 * n_faces
    mag_at = face_at - 3 * n_verts * (l // 8)
    if mag_at < excl_at:
        raise ContainerError(
            f"length mismatch: {len(data)} bytes cannot hold the declared mesh"
        )

    # the word and face sections are read in place; only the int64 forms are new
    faces = read_only(np.frombuffer(data, "<u4", 3 * n_faces, face_at)
                      .astype(np.int64).reshape(-1, 3))
    check_face_ids(faces, n_verts, ContainerError)  # before the split is derived

    signs = _unpack_bitmap(data[_HEADER.size:excl_at], 3 * n_verts, "sign")

    k_count = split_of(faces, n_verts).n_embedded
    if mag_at - excl_at != (k_count + 7) // 8:
        raise ContainerError(
            f"excluded bitmap holds {mag_at - excl_at} bytes but the face list "
            f"implies {k_count} embedded vertices"
        )
    return MarkedContainer(
        m=m, n=n, payload_bits=payload_bits, signs=signs,
        excluded=_unpack_bitmap(data[excl_at:mag_at], k_count, "excluded"),
        magnitudes=np.frombuffer(data, WORD_DTYPES[l], 3 * n_verts, mag_at),
        faces=faces,
    )


def read_container_file(path) -> MarkedContainer:
    with open(path, "rb") as fh:
        return read_container(fh.read())


def write_container_file(path, c: MarkedContainer):
    with open(path, "wb") as fh:
        fh.write(write_container(c))

