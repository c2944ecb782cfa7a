"""Multi-MSB prediction of embedded vertices from their rings.

Each bit plane is predicted independently: the bit of an embedded vertex
at plane u is guessed 0 when at least half of its ring neighbors carry 0
at plane u (ties go to 0). `predict_words` applies this rule to every
plane at once and returns whole predicted words. Each ring word's bits
become one narrow lane each, so one uint64 add sums 8, 4 or 2 planes and
one cumsum along the ring entries counts the ones of every plane (SIMD
within a register: Warren, Hacker's Delight, 2nd ed., 2012, ch. 5). A
vertex's maximum embedding length t is the longest MSB-first prefix on
which prediction and word agree on all three axes, t = l -
bit_length(OR over axes of (pred XOR word)). The same function replays
the rule at recovery time, which is what makes n-MSB substitution
reversible for vertices with t >= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .mesh_io import Frozen, array, read_only
from .quantize import WORD_DTYPES, bit_length

# Ring entries counted at once. It bounds the working memory of
# predict_words, about 200 bytes per entry at l = 32; blocks of 65,536
# entries were up to 1.5x slower at 1M vertices, out of cache.
_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class PredictionReport(Frozen):
    """Plaintext prediction analysis for one (mesh, m) pair.

    ts[i] is min(t_x, t_y, t_z) for the i-th embedded vertex, in 0..l.
    Frozen, with read-only arrays (see Frozen), so `capacity_curve`,
    derived on first read, stays the curve of `ts`.
    """

    ts: np.ndarray = array(np.int64, -1)        # (K,)
    m: int
    embedded: np.ndarray = array(np.int64, -1)  # 1-based ids, C order: the partition's own

    @property
    def l(self) -> int:
        return bit_length(self.m)

    @cached_property
    def capacity_curve(self) -> np.ndarray:
        """(l,) int64: capacity_curve[n-1] is the total payload capacity
        3*n*|{t >= n}| in bits for each candidate embedding length n."""
        hist = np.bincount(self.ts, minlength=self.l + 1)
        ge = self.ts.size - np.cumsum(hist)[:-1]  # |{t >= n}| for n = 1..l
        return read_only(3 * np.arange(1, self.l + 1, dtype=np.int64) * ge)

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
        ts = np.asarray(_json_ints(d, "max_prefix_lengths"), dtype=np.int64)
        m = int(_json_ints(d, "m"))
        embedded = np.asarray(_json_ints(d, "embedded"), dtype=np.int64)
        l = bit_length(m)
        if int(_json_ints(d, "l")) != l:
            raise ConfigError(
                f"malformed prediction report: l={d['l']} contradicts m={m}"
            )
        # checked before construction, which would flatten a nested list
        if not (ts.ndim == embedded.ndim == 1 and ts.size == embedded.size
                and ((ts >= 0) & (ts <= l)).all()):
            raise ConfigError(
                "malformed prediction report: expected flat lists with one t "
                f"in 0..{l} per embedded vertex"
            )
        rep = cls(ts=read_only(ts), m=m, embedded=read_only(embedded))
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
    rings give 0). The rings are taken in blocks of whole rings of at
    most _BLOCK entries (a longer ring is a block of its own), so the
    working arrays stay small.
    """
    pred = np.zeros((part.n_embedded, 3 * l // 8), dtype=np.uint8)
    offsets = part.ring_offsets
    first = 0
    while first < part.n_embedded:
        last = max(first + 1, int(np.searchsorted(
            offsets, offsets[first] + _BLOCK, side="right")) - 1)
        block = offsets[first:last + 1]
        pred[first:last] = _majority_bytes(
            words[part.ring_flat[block[0]:block[-1]] - 1], block - block[0], l)
        first = last
    return (pred.view(WORD_DTYPES[l]).astype(np.int64) >> (l - n)).reshape(-1, 3)


def _majority_bytes(ring_words: np.ndarray, offsets: np.ndarray, l: int) -> np.ndarray:
    """The big-endian bytes of the majority words of the rings
    ring_words[offsets[i]:offsets[i+1]], (len(offsets) - 1, 3 * l / 8).

    Each ring word's 3l bits become one lane each, of the narrowest
    unsigned type that holds the largest ring size. A row of lanes
    viewed as uint64 adds 8, 4 or 2 planes at once, and no lane can
    carry into the next: a ring's count at a plane is at most its size.
    The running sum over all rings may carry, but the difference of
    two running sums, taken modulo 2^64, is the exact per-ring count.
    """
    sizes = np.diff(offsets)
    lane = np.min_scalar_type(int(sizes.max()))
    bits = np.unpackbits(ring_words.astype(WORD_DTYPES[l]).view(np.uint8), axis=1)
    sums = np.zeros((ring_words.shape[0] + 1, bits.shape[1] * lane.itemsize // 8),
                    dtype=np.uint64)
    np.cumsum(bits.astype(lane, copy=False).view(np.uint64), axis=0, out=sums[1:])
    counts = np.diff(sums[offsets], axis=0).view(lane)
    return np.packbits(counts > (sizes // 2).astype(lane)[:, None], axis=1)


def analyze(q) -> PredictionReport:
    """Per-vertex prefix lengths, from which the report derives the
    capacity curve (plaintext side), over the split q.partition.

    t = l - bit_length of the planes any axis mispredicts; empty rings
    give t = 0.
    """
    part = q.partition
    l = q.l
    words = q.magnitudes
    x = predict_words(words, part, l, l) ^ words[part.embedded - 1]
    wrong = x[:, 0] | x[:, 1] | x[:, 2]
    powers = np.int64(1) << np.arange(l, dtype=np.int64)
    ts = l - np.searchsorted(powers, wrong, side="right")
    ts[np.diff(part.ring_offsets) == 0] = 0
    return PredictionReport(ts=read_only(ts), m=q.m, embedded=part.embedded)


def choose_n(report: PredictionReport, requested: int | None = None) -> int:
    """Requested n if given, else the capacity-curve argmax (ties -> smaller n)."""
    if requested is not None:
        if not 1 <= requested <= report.l:
            raise ConfigError(
                f"embedding length n={requested} outside [1, {report.l}]"
            )
        return int(requested)
    return int(np.argmax(report.capacity_curve)) + 1
