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


@dataclass
class Partition:
    """Deterministic function of the face list; all vertex ids 1-based.

    Rings are stored flattened: ring of embedded[i] is
    ring_flat[ring_offsets[i]:ring_offsets[i+1]], deduplicated and
    sorted ascending.
    """

    embedded: np.ndarray      # (K,) traversal order
    reference: np.ndarray     # sorted ascending
    unassigned: np.ndarray    # vertices in no face, sorted ascending
    ring_flat: np.ndarray     # concatenated rings, C-major
    ring_offsets: np.ndarray  # (K+1,)

    @property
    def n_embedded(self) -> int:
        return self.embedded.shape[0]


def _adjacency(n_vertices: int, faces0: np.ndarray):
    """CSR one-ring adjacency (0-based): sharing any face, self excluded.

    Each directed pair (u, v) is encoded as u * N + v; sorting the codes
    and keeping the first of each run of equal values is the dedup.
    """
    if faces0.size == 0:
        off = np.zeros(n_vertices + 1, dtype=np.int64)
        return np.empty(0, dtype=np.int64), off
    u = faces0[:, [0, 1, 0, 2, 1, 2]].ravel()
    v = faces0[:, [1, 0, 2, 0, 2, 1]].ravel()
    keep = u != v  # degenerate faces must not make a vertex its own neighbor
    codes = np.sort(u[keep] * np.int64(n_vertices) + v[keep])
    if codes.size:
        fresh = np.empty(codes.size, dtype=bool)
        fresh[0] = True
        np.not_equal(codes[1:], codes[:-1], out=fresh[1:])
        codes = codes[fresh]
    u_sorted, v_sorted = np.divmod(codes, n_vertices)
    offsets = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(u_sorted, minlength=n_vertices), out=offsets[1:])
    return v_sorted, offsets


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
    unassigned.
    """
    n = int(n_vertices)
    faces0 = np.asarray(faces, dtype=np.int64).reshape(-1, 3) - 1
    adj_flat, adj_off = _adjacency(n, faces0)

    # first-appearance order over the face stream: the earliest stream
    # position of each vertex, then those positions in stream order
    order = faces0.ravel()
    first = np.full(n, order.size, dtype=np.int64)
    np.minimum.at(first, order, np.arange(order.size, dtype=np.int64))
    in_any_face = first < order.size
    is_first = np.zeros(order.size, dtype=bool)
    is_first[first[in_any_face]] = True
    visit = order[is_first]

    # The sweep is inherently sequential; plain bytearray/memoryview
    # indexing keeps numpy's per-call overhead out of the loop.
    UNSEEN, IN_C, IN_R = 0, 1, 2
    status = bytearray(n)
    flat, off = memoryview(adj_flat), memoryview(adj_off)
    embedded0 = []
    for vtx in visit.tolist():
        if status[vtx] == UNSEEN:
            status[vtx] = IN_C
            embedded0.append(vtx)
            for nb in flat[off[vtx]:off[vtx + 1]]:
                status[nb] = IN_R

    emb = np.asarray(embedded0, dtype=np.int64)
    status = np.frombuffer(status, dtype=np.uint8)

    starts = adj_off[emb] if emb.size else np.empty(0, dtype=np.int64)
    lengths = (adj_off[emb + 1] - adj_off[emb]) if emb.size else np.empty(0, dtype=np.int64)
    ring_flat = _gather_ranges(adj_flat, starts, lengths)
    ring_offsets = np.zeros(emb.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ring_offsets[1:])

    return Partition(
        embedded=emb + 1,
        reference=np.nonzero(status == IN_R)[0].astype(np.int64) + 1,
        unassigned=np.nonzero(~in_any_face)[0].astype(np.int64) + 1,
        ring_flat=ring_flat + 1,
        ring_offsets=ring_offsets,
    )
