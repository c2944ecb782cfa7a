"""Fidelity and capacity measurements: Hausdorff distance, SNR, bpv.

Between two point sets of equal size the Hausdorff distance uses the
pairing a_i <-> b_i, which for an original and a recovered (quantized)
mesh pairs each vertex with its own moved copy. Each nearest-neighbour
distance is at most the partner distance p_i = |a_i - b_i|, so once the
largest remaining p_i is at or below the best nearest-neighbour distance
found so far, no further point can raise the maximum: the early break of
Taha and Hanbury, "An Efficient Algorithm for Calculating the Exact
Hausdorff Distance", IEEE TPAMI 37(11), 2015. A quantized mesh moves
each vertex by less than sqrt(3) * 10^-m, so one brute-force
nearest-neighbour search usually settles the exact value. The points it
leaves, the survivors, lie within h, their largest partner distance, of
their nearest neighbours, found in one 2x2x2 block of a grid of cells of
side over 2h (Bentley, Weide and Yao, ACM TOMS 6(4), 1980). A kd-tree
answers when the int64 cell keys would overflow, over _GRID_CAP candidates
per survivor (a loose bound) and for unequal sizes (one query per
direction). A quantized pair never imports scipy.

The SNR is 10 log10(sum |v - mean(v)|^2 / sum |v' - v|^2): the original's
spread about its centroid over the squared modification error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_GRID_CAP = 64  # grid candidates per survivor above which the tree answers
_GRID_CHUNK = 1 << 16  # candidates expanded at once


def _as_points(obj) -> np.ndarray:
    pts = obj.vertices if hasattr(obj, "vertices") else np.asarray(obj, dtype=np.float64)
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise DomainError("metrics need finite coordinates")
    return pts


def cKDTree(points: np.ndarray):
    """scipy's kd-tree over points. scipy is imported on the first call
    only: hausdorff builds a tree only for loose bounds and unequal sizes,
    and importing scipy costs more than every other import of rdh3d."""
    from scipy.spatial import cKDTree as tree

    return tree(points)


def _sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance over the last axis, broadcast over the
    others, summed in the order (dx*dx + dy*dy) + dz*dz."""
    d = x[..., 0] - y[..., 0]
    sq = d * d
    for k in (1, 2):
        d = x[..., k] - y[..., k]
        sq += d * d
    return sq


def _directed_paired(a: np.ndarray, b: np.ndarray, pair_sq: np.ndarray) -> float:
    """max over a of min over b of the distance, for |a| = |b| and
    pair_sq = _sq_dist(a, b), the squared distance of each a_i to b_i.

    The point with the largest pair_sq is searched against all of b (one
    N-vector of squared distances: 8 MiB at 1M points). Only points
    whose pair_sq exceeds the best value found can raise it; if any
    remain, _grid_min_sq (or, if it declines, one kd-tree query) settles them.

    Soundness in floating point: the search for a_i includes b_i and
    computes its distance with the same _sq_dist operations as pair_sq
    (a - b and b - a square alike, so either direction may share it),
    so the computed nearest squared distance of a_i is <= pair_sq[i]
    exactly, not only up to rounding, and a point whose pair_sq is at or
    below the best cannot raise it. sqrt is monotone, so deciding on
    squares decides the same. cKDTree sums the squares in the same order
    and takes one sqrt, so the result equals that of two full kd-tree
    queries bit for bit (tests/test_metrics.py checks both routines).
    On the grid, a b_j at computed squared distance <= h^2 from a
    survivor q is within h (1 + 4u) of it per axis, u = 2^-53: a rounded
    sum of nonnegative terms is at least each term, a difference, a square
    and sqrt(h^2) round once each, and an underflowing square hides a gap
    below 2^-537. The radius r = h (1 + 8u) + 2^-537 covers that, so the
    rounded box q -/+ r and the cell index floor((x - x0) / s), both
    monotone, keep every such b_j inside. The side s = 2r + 16u (r +
    max|x|) covers the rounding of q -/+ r and of the index, so a box
    spans two cells per axis, or the tree answers. Near 4.3e4 each
    rounding moves up to 4e-12: no relative margin on an h of 1e-5 holds.
    """
    best_sq = _sq_dist(a[np.argmax(pair_sq)], b).min()
    left = np.flatnonzero(pair_sq > best_sq)
    if not left.size:
        return np.sqrt(best_sq)
    near_sq = _grid_min_sq(a[left], b, np.sqrt(pair_sq[left].max()))
    if near_sq is None:
        return max(np.sqrt(best_sq), cKDTree(b).query(a[left], k=1)[0].max())
    return np.sqrt(max(best_sq, near_sq.max()))


def _grid_min_sq(q: np.ndarray, b: np.ndarray, h: float) -> np.ndarray | None:
    """Each row of q's least _sq_dist to b, for rows with a point of b
    within h, searched in 2x2x2 cells; None when the tree must answer."""
    r, x0 = h * (1 + 2.0**-50) + 2.0**-537, b.min(axis=0)
    s = 2 * r + 2.0**-49 * (r + max(np.abs(q).max(), np.abs(b).max()))
    cell, k0, k1 = (np.floor((x - x0) / s) for x in (b, q - r, q + r))
    nx, ny, nz = cell.max(axis=0) + 2  # the partner bounds k0 to -1..max
    if not (nx * ny * nz < 2.0**62 and (k1 - k0 <= 1).all()):
        return None
    stride = np.array([ny * nz, nz, 1], dtype=np.int64)
    key = cell.astype(np.int64) @ stride
    order = np.argsort(key)
    key, b = key[order], b[order]
    # a cell and its z-neighbour hold adjacent keys: four runs of two cells
    runs = (np.maximum(k0, 0).astype(np.int64) @ stride)[:, None] \
        + np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]) @ stride
    lo = np.searchsorted(key, runs)
    count = np.searchsorted(key, runs + 1, side="right") - lo
    per = count.sum(axis=1)
    if per.sum() > _GRID_CAP * len(q):
        return None
    out, cum, start = np.empty(len(q)), np.cumsum(per), 0
    while start < len(q):  # whole survivors, about _GRID_CHUNK candidates at a time
        stop = max(start + 1, int(np.searchsorted(cum, cum[start] - per[start] + _GRID_CHUNK)))
        n, k = count[start:stop].ravel(), per[start:stop]
        at = np.repeat(lo[start:stop].ravel() - np.cumsum(n) + n, n) + np.arange(n.sum())
        d = _sq_dist(np.repeat(q[start:stop], k, axis=0), b[at])
        out[start:stop] = np.minimum.reduceat(d, np.cumsum(k) - k)
        start = stop
    return out


def hausdorff(a, b, method: str = "kdtree") -> float:
    """Symmetric Hausdorff distance between two point sets, exact, from
    the pairing, a grid and a kd-tree as the module docstring describes.
    "kdtree" is the only method."""
    if method != "kdtree":
        raise ValueError(f"unknown hausdorff method {method!r}")
    a, b = _as_points(a), _as_points(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError("hausdorff distance needs two nonempty point sets")
    if a.shape == b.shape:
        pair_sq = _sq_dist(a, b)
        return float(max(_directed_paired(a, b, pair_sq),
                         _directed_paired(b, a, pair_sq)))
    d_ab = cKDTree(b).query(a, k=1)[0].max()
    d_ba = cKDTree(a).query(b, k=1)[0].max()
    return float(max(d_ab, d_ba))


def snr(original, modified) -> float:
    """Signal-to-noise ratio in dB between coordinate sets of equal size,
    10 log10(sum |v - mean(v)|^2 / sum |v' - v|^2) for original vertices v
    and modified vertices v'. Returns +inf when the noise term is zero.
    """
    v, g = _as_points(original), _as_points(modified)
    if v.shape != g.shape:
        raise DomainError(
            f"vertex count mismatch: {v.shape[0]} vs {g.shape[0]}"
        )
    if v.size == 0:
        raise DomainError("SNR is undefined for empty meshes")
    noise = float(((g - v) ** 2).sum())
    if noise == 0.0:
        return math.inf
    signal = float(((v - v.mean(axis=0)) ** 2).sum())
    if signal == 0.0:
        raise DomainError("SNR is undefined for a zero-variance original mesh")
    return 10.0 * math.log10(signal / noise)


def embedding_rate(embedded_bits: int, n_vertices: int) -> float:
    """Bits per vertex."""
    if n_vertices <= 0:
        raise DomainError("embedding rate is undefined without vertices")
    return embedded_bits / n_vertices
