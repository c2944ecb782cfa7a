"""Per-bit-plane majority prediction of embedded vertices from their rings.

Each bit plane is predicted independently: the bit of an embedded vertex
at plane u is guessed 0 when at least half of its ring neighbors carry 0
at plane u (ties go to 0). A vertex's maximum embedding length t is the
longest MSB-first prefix for which every plane is guessed correctly; the
same rule (`_ring_majority`) replays at recovery time, which is what
makes n-MSB substitution reversible for vertices with t >= n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class PredictionReport:
    """Plaintext prediction analysis for one (mesh, m) pair.

    ts[i] is min(t_x, t_y, t_z) for the i-th embedded vertex;
    capacity_curve[n-1] is the total payload capacity 3*n*|{t >= n}| in
    bits for each candidate embedding length n in 1..l.
    """

    ts: np.ndarray              # (K,) int64
    capacity_curve: np.ndarray  # (l,) int64
    m: int
    l: int
    embedded: np.ndarray        # 1-based vertex ids, C order (context copy)

    def excluded_mask(self, n: int) -> np.ndarray:
        """Boolean mask over C order: True = prediction fails before n."""
        return self.ts < n

    def capacity(self, n: int) -> int:
        if not 1 <= n <= self.l:
            raise ConfigError(f"embedding length n={n} outside [1, {self.l}]")
        return int(self.capacity_curve[n - 1])

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "embedded": self.embedded.tolist(),
            "max_prefix_lengths": self.ts.tolist(),
            "capacity_curve": self.capacity_curve.tolist(),
            "best_n": choose_n(self),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PredictionReport":
        rep = cls(
            ts=np.asarray(d["max_prefix_lengths"], dtype=np.int64),
            capacity_curve=np.asarray(d["capacity_curve"], dtype=np.int64),
            m=int(d["m"]),
            l=int(d["l"]),
            embedded=np.asarray(d["embedded"], dtype=np.int64),
        )
        if not (rep.ts.ndim == rep.embedded.ndim == rep.capacity_curve.ndim == 1
                and rep.ts.size == rep.embedded.size
                and rep.capacity_curve.size == rep.l):
            raise ConfigError(
                "malformed prediction report: expected flat lists with one t "
                "per embedded vertex and one capacity per n in 1..l"
            )
        return rep


def _ring_majority(ring_words: np.ndarray, ring_offsets: np.ndarray,
                   sizes: np.ndarray, u: int) -> np.ndarray:
    """The prediction rule: bit u of each ring's majority, 0 on ties.

    Ring i is ring_words[ring_offsets[i]:ring_offsets[i+1]] with sizes[i]
    members; an empty ring predicts 0.
    """
    cs = np.zeros(ring_words.size + 1, dtype=np.int64)
    np.cumsum((ring_words >> u) & 1, out=cs[1:])
    ones = cs[ring_offsets[1:]] - cs[ring_offsets[:-1]]
    return (2 * ones > sizes).astype(np.int64)


def prefix_lengths(words: np.ndarray, targets0: np.ndarray, ring_flat0: np.ndarray,
                   ring_offsets: np.ndarray, l: int) -> np.ndarray:
    """Prefix length t for one axis over all embedded vertices: the
    longest t such that planes l-1 .. l-t are all predicted correctly.

    words: (N,) int64 magnitudes; targets0/ring_flat0: 0-based indices.
    Empty rings yield t = 0.
    """
    k_count = targets0.size
    sizes = np.diff(ring_offsets)
    target_words = words[targets0]
    ring_words = words[ring_flat0]
    t = np.full(k_count, l, dtype=np.int64)
    undecided = np.ones(k_count, dtype=bool)
    for k in range(1, l + 1):
        u = l - k
        tbit = (target_words >> u) & 1
        wrong = undecided & (_ring_majority(ring_words, ring_offsets, sizes, u) != tbit)
        t[wrong] = k - 1
        undecided &= ~wrong
        if not undecided.any():
            break
    t[sizes == 0] = 0
    return t


def analyze(q, part) -> PredictionReport:
    """Per-vertex prefix lengths and the full capacity curve (plaintext side)."""
    if part.embedded.size and int(part.embedded.max()) > q.n_vertices:
        raise ValueError("partition does not match quantized mesh (vertex count)")
    l = q.l
    cidx = part.embedded - 1
    rflat = part.ring_flat - 1
    words = q.magnitudes.astype(np.int64)
    k_count = cidx.size
    ts = np.full(k_count, l, dtype=np.int64)
    for axis in range(3):
        t_axis = prefix_lengths(words[:, axis], cidx, rflat, part.ring_offsets, l)
        np.minimum(ts, t_axis, out=ts)

    hist = np.bincount(ts, minlength=l + 1)
    # count of vertices with t >= n, for n = 1..l
    ge = k_count - np.cumsum(hist)[:-1]
    ns = np.arange(1, l + 1, dtype=np.int64)
    curve = 3 * ns * ge
    return PredictionReport(
        ts=ts, capacity_curve=curve, m=q.m, l=l, embedded=part.embedded.copy()
    )


def choose_n(report: PredictionReport, requested: int | None = None) -> int:
    """Requested n if given, else the capacity-curve argmax (ties -> smaller n)."""
    if requested is not None:
        if not 1 <= requested <= report.l:
            raise ConfigError(
                f"embedding length n={requested} outside [1, {report.l}]"
            )
        return int(requested)
    if report.capacity_curve.size == 0:
        raise ConfigError("empty capacity curve")
    return int(np.argmax(report.capacity_curve)) + 1
