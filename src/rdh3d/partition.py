"""Embedded/reference vertex split driven by face traversal order.

Vertices are visited in the order they first appear while scanning the
face list top to bottom, left to right within a face. A vertex that is
in neither set joins the embedded set C, and every vertex sharing a
face with it joins the reference set R. The result is a maximal
independent set (in traversal order) for C, so no two payload-carrying
vertices are adjacent and every C ring lies entirely in R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_io import Frozen, array, bad_face_id, read_only


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


# Low half of a packed pair code (u << 32) | v: the neighbour v.
_LOW = 0xFFFFFFFF


def _adjacency(n_vertices: int, faces: np.ndarray):
    """CSR one-ring adjacency of ids 0..n_vertices-1: sharing any face,
    self excluded.

    Each undirected edge of a face is packed into one uint64 code,
    (min << 32) | max, which sorts by its first vertex, then its second.
    Sorting the 3 codes per face and keeping the first of each run of
    equal values is the dedup. The reversed codes (max << 32) | min go
    into the second half of the same buffer, and one more sort gives
    every vertex's neighbours, ascending, in one run. Ids must be below
    2^32; each temporary is deleted as soon as it has been used.
    """
    ids = faces.view(np.uint64)  # nonnegative, so the same values
    n_faces = ids.shape[0]
    codes = np.empty(3 * n_faces, dtype=np.uint64)
    for i, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        low = codes[i * n_faces:(i + 1) * n_faces]
        np.minimum(ids[:, a], ids[:, b], out=low)
        low <<= 32
        high = np.maximum(ids[:, a], ids[:, b])
        low |= high
        del low, high
    # degenerate faces must not make a vertex its own neighbor
    degenerate = ((ids[:, 0] == ids[:, 1]) | (ids[:, 0] == ids[:, 2])
                  | (ids[:, 1] == ids[:, 2]))
    if degenerate.any():
        codes = codes[(codes >> 32) != (codes & _LOW)]
    del degenerate
    codes.sort()
    fresh = np.empty(codes.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=fresh[1:])
    n_edges = int(np.count_nonzero(fresh))
    pairs = np.empty(2 * n_edges, dtype=np.uint64)
    forward, reverse = pairs[:n_edges], pairs[n_edges:]
    forward[:] = codes[fresh]
    del codes, fresh
    np.bitwise_and(forward, _LOW, out=reverse)
    reverse <<= 32
    high = forward >> 32
    reverse |= high
    del high, forward, reverse
    pairs.sort()
    first = (pairs >> 32).view(np.int64)
    offsets = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(first, minlength=n_vertices), out=offsets[1:])
    del first
    pairs &= _LOW
    return pairs.view(np.int64), offsets


def _gather_ranges(flat, starts, lengths):
    """Concatenate flat[starts[i]:starts[i]+lengths[i]] without a Python loop."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=flat.dtype)
    out_off = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_off[1:])
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(starts - out_off[:-1], lengths)
    return flat[pos]


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
    if bad_face_id(faces, n) is not None:
        raise ValueError(f"face ids must lie in 1..{n}")
    adj_flat, adj_off = _adjacency(n + 1, faces)

    # first-appearance order over the face stream: the earliest stream
    # position of each vertex, then those positions in stream order
    order = faces.ravel()
    first = np.full(n + 1, order.size, dtype=np.int64)
    np.minimum.at(first, order, np.arange(order.size, dtype=np.int64))
    in_any_face = first < order.size
    is_first = np.zeros(order.size, dtype=bool)
    is_first[first[in_any_face]] = True
    visit = order[is_first]

    # The sweep is inherently sequential; plain bytearray/memoryview
    # indexing keeps numpy's per-call overhead out of the loop.
    UNSEEN, IN_C, IN_R = 0, 1, 2
    status = bytearray(n + 1)
    flat, off = memoryview(adj_flat), memoryview(adj_off)
    embedded = []
    for vtx in visit.tolist():
        if status[vtx] == UNSEEN:
            status[vtx] = IN_C
            embedded.append(vtx)
            for nb in flat[off[vtx]:off[vtx + 1]]:
                status[nb] = IN_R

    emb = np.asarray(embedded, dtype=np.int64)
    status = np.frombuffer(status, dtype=np.uint8)

    starts = adj_off[emb]
    lengths = adj_off[emb + 1] - starts
    ring_offsets = np.zeros(emb.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ring_offsets[1:])

    return Partition(
        embedded=read_only(emb),
        reference=read_only(np.flatnonzero(status == IN_R)),
        unassigned=read_only(np.flatnonzero(~in_any_face)[1:]),  # past slot 0
        ring_flat=read_only(_gather_ranges(adj_flat, starts, lengths)),
        ring_offsets=read_only(ring_offsets),
    )
