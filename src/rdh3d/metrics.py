"""Fidelity and capacity measurements: Hausdorff distance, SNR, bpv.

The SNR ratio ships in two flavors. The default ("mean") measures the
modified coordinates against the original per-axis means in the
denominator; the "original" flavor is the conventional one with the
squared modification error as the noise term. The conventional flavor
is what scales ~linearly with the quantization precision and is used by
the bench harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DomainError

_BRUTE_CHUNK = 2048


@dataclass
class FidelityReport:
    hausdorff: float
    snr_db: float
    embedding_rate: float
    embedded_bits: int

    def to_json_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(d["snr_db"]):
            d["snr_db"] = "inf"
        return d


def _as_points(obj) -> np.ndarray:
    pts = obj.vertices if hasattr(obj, "vertices") else np.asarray(obj, dtype=np.float64)
    return np.asarray(pts, dtype=np.float64).reshape(-1, 3)


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    """max over a of min over b of the Euclidean distance, chunked O(|a||b|)."""
    worst = 0.0
    for lo in range(0, a.shape[0], _BRUTE_CHUNK):
        chunk = a[lo:lo + _BRUTE_CHUNK]
        worst = max(worst, float(cdist(chunk, b).min(axis=1).max()))
    return worst


def hausdorff(a, b, method: str = "kdtree") -> float:
    """Symmetric Hausdorff distance between two point sets.

    method="kdtree" answers through nearest-neighbor queries;
    method="brute" is the chunked O(|a||b|) pairwise evaluation of the
    same value, unusable on dense meshes.
    """
    a = _as_points(a)
    b = _as_points(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError("hausdorff distance needs two nonempty point sets")
    if method == "brute":
        return max(_directed(a, b), _directed(b, a))
    if method == "kdtree":
        d_ab = cKDTree(b).query(a, k=1)[0].max()
        d_ba = cKDTree(a).query(b, k=1)[0].max()
        return float(max(d_ab, d_ba))
    raise ValueError(f"unknown hausdorff method {method!r}")


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
