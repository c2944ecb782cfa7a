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
nearest-neighbour search usually settles the exact value and no kd-tree
is built. Point sets of unequal size take one full kd-tree query per
direction.

The SNR ratio ships in two flavors. The default ("mean") measures the
modified coordinates against the original per-axis means in the
denominator; the "original" flavor is the conventional one with the
squared modification error as the noise term. The conventional flavor
is what scales ~linearly with the quantization precision and is used by
the bench harness.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def _as_points(obj) -> np.ndarray:
    pts = obj.vertices if hasattr(obj, "vertices") else np.asarray(obj, dtype=np.float64)
    return np.asarray(pts, dtype=np.float64).reshape(-1, 3)


def cKDTree(points: np.ndarray):
    """scipy's kd-tree over points. scipy is imported on the first call
    only: most hausdorff calls settle from the pairing and build no tree,
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
    remain, they go to one kd-tree query.

    Soundness in floating point: the search for a_i includes b_i and
    computes its distance with the same _sq_dist operations as pair_sq
    (a - b and b - a square alike, so either direction may share it),
    so the computed nearest squared distance of a_i is <= pair_sq[i]
    exactly, not only up to rounding, and a point whose pair_sq is at or
    below the best cannot raise it. sqrt is monotone, so deciding on
    squares decides the same. cKDTree sums the squares in the same order
    and takes one sqrt, so the result equals that of two full kd-tree
    queries bit for bit (tests/test_metrics.py checks both routines).
    """
    best_sq = _sq_dist(a[np.argmax(pair_sq)], b).min()
    left = np.flatnonzero(pair_sq > best_sq)
    if left.size:
        return max(np.sqrt(best_sq), cKDTree(b).query(a[left], k=1)[0].max())
    return np.sqrt(best_sq)


def hausdorff(a, b, method: str = "kdtree") -> float:
    """Symmetric Hausdorff distance between two point sets, answered by
    nearest-neighbor queries. When the sets have equal size each query is
    first bounded by the partner distance |a_i - b_i| (see the module
    docstring), and a tree is built only for the points that bound cannot
    settle. "kdtree" is the only method.
    """
    if method != "kdtree":
        raise ValueError(f"unknown hausdorff method {method!r}")
    a = _as_points(a)
    b = _as_points(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError("hausdorff distance needs two nonempty point sets")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("hausdorff distance needs finite coordinates")
    if a.shape == b.shape:
        pair_sq = _sq_dist(a, b)
        return float(max(_directed_paired(a, b, pair_sq),
                         _directed_paired(b, a, pair_sq)))
    d_ab = cKDTree(b).query(a, k=1)[0].max()
    d_ba = cKDTree(a).query(b, k=1)[0].max()
    return float(max(d_ab, d_ba))


def snr(original, modified, noise_ref: str = "mean") -> float:
    """Signal-to-noise ratio in dB between coordinate sets of equal size.

    noise_ref="mean": noise term is (modified - mean(original)) per axis.
    noise_ref="original": conventional noise term (modified - original).
    Returns +inf when the meshes are exactly identical.
    """
    v = _as_points(original)
    g = _as_points(modified)
    if v.shape != g.shape:
        raise DomainError(
            f"vertex count mismatch: {v.shape[0]} vs {g.shape[0]}"
        )
    if v.size == 0:
        raise DomainError("SNR is undefined for empty meshes")
    if np.array_equal(v, g):
        return math.inf
    center = v.mean(axis=0)
    signal = float(((v - center) ** 2).sum())
    if signal == 0.0:
        raise DomainError("SNR is undefined for a zero-variance original mesh")
    if noise_ref == "mean":
        noise = float(((g - center) ** 2).sum())
    elif noise_ref == "original":
        noise = float(((g - v) ** 2).sum())
    else:
        raise ValueError(f"unknown noise_ref {noise_ref!r}")
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


def embedding_rate(embedded_bits: int, n_vertices: int) -> float:
    """Bits per vertex."""
    if n_vertices <= 0:
        raise DomainError("embedding rate is undefined without vertices")
    return embedded_bits / n_vertices
