"""Multi-MSB prediction of embedded vertices from their rings.

Each bit plane is predicted independently: the bit of an embedded vertex
at plane u is guessed 0 when at least half of its ring neighbors carry 0
at plane u (ties go to 0). `predict_words` applies this rule to every
plane at once and returns whole predicted words. A vertex's maximum
embedding length t is the longest MSB-first prefix on which prediction
and word agree on all three axes, t = l - bit_length(OR over axes of
(pred XOR word)). The same function replays the rule at recovery time,
which is what makes n-MSB substitution reversible for vertices with
t >= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .quantize import bit_length


@dataclass
class PredictionReport:
    """Plaintext prediction analysis for one (mesh, m) pair.

    ts[i] is min(t_x, t_y, t_z) for the i-th embedded vertex, in 0..l.
    """

    ts: np.ndarray        # (K,) int64
    m: int
    embedded: np.ndarray  # 1-based vertex ids, C order (context copy)

    @property
    def l(self) -> int:
        return bit_length(self.m)

    @cached_property
    def capacity_curve(self) -> np.ndarray:
        """(l,) int64: capacity_curve[n-1] is the total payload capacity
        3*n*|{t >= n}| in bits for each candidate embedding length n."""
        hist = np.bincount(self.ts, minlength=self.l + 1)
        ge = self.ts.size - np.cumsum(hist)[:-1]  # |{t >= n}| for n = 1..l
        return 3 * np.arange(1, self.l + 1, dtype=np.int64) * ge

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
            ts=np.asarray(_json_ints(d, "max_prefix_lengths"), dtype=np.int64),
            m=int(_json_ints(d, "m")),
            embedded=np.asarray(_json_ints(d, "embedded"), dtype=np.int64),
        )
        if int(_json_ints(d, "l")) != rep.l:
            raise ConfigError(
                f"malformed prediction report: l={d['l']} contradicts m={rep.m}"
            )
        if not (rep.ts.ndim == rep.embedded.ndim == 1
                and rep.ts.size == rep.embedded.size
                and ((rep.ts >= 0) & (rep.ts <= rep.l)).all()):
            raise ConfigError(
                "malformed prediction report: expected flat lists with one t "
                f"in 0..{rep.l} per embedded vertex"
            )
        if not np.array_equal(np.asarray(_json_ints(d, "capacity_curve"), dtype=np.int64),
                              rep.capacity_curve):
            raise ConfigError(
                "malformed prediction report: capacity_curve contradicts "
                "max_prefix_lengths"
            )
        return rep


# JSON values that int() and numpy would silently turn into integers
_NOT_INTS = frozenset((float, str, bool))


def _json_ints(d: dict, key: str):
    """d[key], refused if it or one of its list items is a float, string or bool."""
    value = d[key]
    if not _NOT_INTS.isdisjoint(map(type, value if type(value) is list else [value])):
        raise ConfigError(f"malformed prediction report: {key} must hold JSON integers")
    return value


def predict_words(words: np.ndarray, part, l: int, n: int) -> np.ndarray:
    """The prediction rule: the top n bits of each embedded vertex's
    ring-majority word, as a (K, 3) int64 array in C order.

    words: (N, 3) int64 magnitudes. Bit u of the majority word is 1 when
    more than half of the ring carries 1 at plane u (ties and empty
    rings give 0). The three axes' rings are laid end to end as 3K rings
    so each plane takes one cumsum; planes at or above the bit length of
    the largest ring word predict 0 and are skipped.
    """
    k_count = part.n_embedded
    ring_words = words[part.ring_flat - 1].T.ravel()
    shift = np.arange(3, dtype=np.int64)[:, None] * part.ring_flat.size
    starts = (part.ring_offsets[:-1] + shift).ravel()
    ends = (part.ring_offsets[1:] + shift).ravel()
    sizes = ends - starts
    top = int(ring_words.max()).bit_length() if ring_words.size else 0
    pred = np.zeros(3 * k_count, dtype=np.int64)
    cs = np.zeros(ring_words.size + 1, dtype=np.int64)
    for u in range(l - n, min(l, top)):
        np.cumsum((ring_words >> u) & 1, out=cs[1:])
        pred |= (2 * (cs[ends] - cs[starts]) > sizes).astype(np.int64) << (u - (l - n))
    return pred.reshape(3, k_count).T


def analyze(q, part) -> PredictionReport:
    """Per-vertex prefix lengths, from which the report derives the
    capacity curve (plaintext side).

    t = l - bit_length of the planes any axis mispredicts; empty rings
    give t = 0.
    """
    n_vertices = q.n_vertices
    for ids in (part.embedded, part.ring_flat):
        if ids.size and int(ids.max()) > n_vertices:
            raise ConfigError(
                f"partition refers to vertex {int(ids.max())} but the mesh has "
                f"{n_vertices} vertices; it was made for another mesh"
            )
    l = q.l
    words = q.magnitudes
    wrong = np.bitwise_or.reduce(
        predict_words(words, part, l, l) ^ words[part.embedded - 1], axis=1
    )
    powers = np.int64(1) << np.arange(l, dtype=np.int64)
    ts = l - np.searchsorted(powers, wrong, side="right")
    ts[np.diff(part.ring_offsets) == 0] = 0
    return PredictionReport(ts=ts, m=q.m, embedded=part.embedded.copy())


def choose_n(report: PredictionReport, requested: int | None = None) -> int:
    """Requested n if given, else the capacity-curve argmax (ties -> smaller n)."""
    if requested is not None:
        if not 1 <= requested <= report.l:
            raise ConfigError(
                f"embedding length n={requested} outside [1, {report.l}]"
            )
        return int(requested)
    return int(np.argmax(report.capacity_curve)) + 1
