"""Embedded/reference vertex split driven by face traversal order.

Vertices are visited in the order they first appear while scanning the
face list top to bottom, left to right within a face. A vertex that is
in neither set joins the embedded set C, and every vertex sharing a
face with it joins the reference set R. The result is the
lexicographically-first maximal independent set in visit order for C
(Blelloch, Fineman and Shun, SPAA 2012), so no two payload-carrying
vertices are adjacent and every C ring lies entirely in R.

The work is done in visit-rank space: each face id is replaced by its
vertex's visit rank, and each edge is kept once, oriented from its
earlier end to its later one. When the sweep reaches a vertex, its
earlier neighbours are decided already, so it marks only its later
ones, and the rings are built for the C vertices alone. Every value over
a face list (Faced) reads its split through one memo (split_of).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .values import Frozen, array, check_face_ids, read_only


@dataclass(frozen=True, eq=False)
class Partition(Frozen):
    """Deterministic function of the face list; all vertex ids 1-based.

    Rings are stored flattened: ring of embedded[i] is
    ring_flat[ring_offsets[i]:ring_offsets[i+1]], deduplicated and
    sorted ascending. Frozen, with read-only 1-D int64 arrays (see Frozen).
    """

    embedded: np.ndarray = array(np.int64, -1)      # (K,) traversal order
    reference: np.ndarray = array(np.int64, -1)     # sorted ascending
    unassigned: np.ndarray = array(np.int64, -1)    # vertices in no face, sorted ascending
    ring_flat: np.ndarray = array(np.int64, -1)     # concatenated rings, C-major
    ring_offsets: np.ndarray = array(np.int64, -1)  # (K+1,)

    @property
    def n_embedded(self) -> int:
        return self.embedded.shape[0]


# Low half of a packed pair code (u << 32) | v: the vertex v.
_LOW = 0xFFFFFFFF


def _edges(ranks: np.ndarray) -> np.ndarray:
    """Each edge of the (M, 3) faces of visit ranks once, as the uint64
    code (earlier << 32) | later, ascending, so that each vertex's later
    neighbours form one run. A degenerate face gives only the edges
    between its distinct vertices. Ranks must be below 2^32."""
    n_faces = ranks.shape[0]
    codes = np.empty(3 * n_faces, dtype=np.uint64)
    for i, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        code = codes[i * n_faces:(i + 1) * n_faces]
        np.minimum(ranks[:, a], ranks[:, b], out=code)
        code <<= 32
        code |= np.maximum(ranks[:, a], ranks[:, b])
        del code
    # degenerate faces must not make a vertex its own neighbour
    if ((ranks[:, 0] == ranks[:, 1]) | (ranks[:, 0] == ranks[:, 2])
            | (ranks[:, 1] == ranks[:, 2])).any():
        codes = codes[(codes >> 32) != (codes & _LOW)]
    codes.sort()
    fresh = np.empty(codes.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=fresh[1:])
    return codes[fresh]


def partition(n_vertices: int, faces) -> Partition:
    """Greedy C/R sweep over (M, 3) 1-based faces on n_vertices vertices.

    Only the face list matters; empty face lists leave every vertex
    unassigned. The ids index arrays of n_vertices + 1 slots, and slot 0,
    in no face, stands for no vertex.
    """
    n = int(n_vertices)
    if n >= 2**32:
        raise ValueError(f"{n} vertices: ids must fit in 32 bits")
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    check_face_ids(faces, n)

    # first-appearance order over the face stream: the earliest stream
    # position of each vertex, then those positions in stream order
    order = faces.ravel()
    first = np.full(n + 1, order.size, dtype=np.int64)
    np.minimum.at(first, order, np.arange(order.size, dtype=np.int64))
    in_face = first < order.size
    is_first = np.zeros(order.size, dtype=bool)
    is_first[first[in_face]] = True
    del first
    visit = order[is_first]  # the vertex of each visit rank
    del is_first
    k = visit.size
    rank = np.empty(n + 1, dtype=np.uint32)  # read only at ids in a face
    rank[visit] = np.arange(k, dtype=np.uint32)
    edges = _edges(rank[faces])
    del rank
    later = (edges & _LOW).view(np.int64)
    starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount((edges >> 32).view(np.int64), minlength=k), out=starts[1:])

    # The sweep is inherently sequential; plain bytearray/memoryview
    # indexing keeps numpy's per-call overhead out of the loop. A rank
    # that is unmarked when reached joins C and marks its later
    # neighbours, which join R; its earlier ones are decided already.
    # So a rank is in C exactly when it is never marked.
    marked = bytearray(k)
    nbrs, off = memoryview(later), memoryview(starts)
    for v in range(k):
        if not marked[v]:
            for w in nbrs[off[v]:off[v + 1]]:
                marked[w] = 1
    del nbrs, off
    in_c = np.frombuffer(marked, dtype=np.uint8) == 0
    c_ranks = np.flatnonzero(in_c)
    emb = visit[c_ranks]

    # The rings: the edges with a C end (no edge has two), each as
    # (C rank << 32) | the other end's id. One sort gives them in C
    # order, each ring ascending.
    ids = visit.view(np.uint64)
    c_early = np.repeat(in_c, np.diff(starts))  # the runs of the C ranks
    del starts
    c_late = in_c[later]  # the edges whose later end is in C
    keys = np.concatenate([
        (edges[c_early] >> 32 << 32) | ids[later[c_early]],
        (later[c_late].view(np.uint64) << 32) | ids[(edges[c_late] >> 32).view(np.int64)],
    ])
    del c_early, c_late, edges, later
    keys.sort()
    ring_offsets = np.zeros(c_ranks.size + 1, dtype=np.int64)
    np.cumsum(np.bincount((keys >> 32).view(np.int64), minlength=k)[c_ranks],
              out=ring_offsets[1:])
    keys &= _LOW

    unassigned = np.flatnonzero(~in_face)[1:]  # past slot 0
    in_face[emb] = False  # every vertex in a face and not in C is in R
    return Partition(
        embedded=read_only(emb),
        reference=read_only(np.flatnonzero(in_face)),
        unassigned=read_only(unassigned),
        ring_flat=read_only(keys.view(np.int64)),
        ring_offsets=read_only(ring_offsets),
    )


_splits: dict = {}  # (id(faces), n_vertices) -> Partition, while the faces live


def split_of(faces: np.ndarray, n_vertices: int) -> Partition:
    """The split (`partition`) of a Frozen value's face array, derived
    once per array object: that array is fixed (see values._fixed), so
    one object holds the same faces unless its owner is made writable."""
    key = (id(faces), n_vertices)
    part = _splits.get(key)
    if part is None:
        part = _splits[key] = partition(n_vertices, faces)
        weakref.finalize(faces, _splits.pop, key, None)
    return part


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
    def partition(self) -> Partition:
        """The embedded/reference split of the faces (see split_of)."""
        return split_of(self.faces, self.n_vertices)

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]
