"""Multi-MSB prediction of embedded vertices from their rings.

Each bit plane is predicted independently: the bit of an embedded vertex
at plane u is guessed 0 when at least half of its ring neighbors carry 0
at plane u (ties go to 0). `_majority` applies this rule to a run of
planes at once: each ring word's bits become one narrow lane each, so
one uint64 add sums 8, 4 or 2 planes and one cumsum along the ring
entries counts the ones of every plane (SIMD within a register: Warren,
Hacker's Delight, 2nd ed., 2012, ch. 5). It counts only the planes that
can change a result. A vertex's maximum embedding length t is the
longest MSB-first prefix on which prediction and word agree on all
three axes, t = l - bit_length(OR over axes of (pred XOR word)), and
`analyze` stops counting a ring below its first mispredicted plane.
`predict_words` replays the rule on the top n planes at recovery time,
which is what makes n-MSB substitution reversible for vertices with
t >= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .mesh_io import Frozen, array, read_only
from .quantize import WORD_DTYPES, bit_length, embedding_length

# Ring entries counted at once. It bounds the working memory of
# predict_words, about 200 bytes per entry at l = 32; blocks of 65,536
# entries were up to 1.5x slower at 1M vertices, out of cache.
_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class PredictionReport(Frozen):
    """Plaintext prediction analysis for one (mesh, m) pair.

    ts[i] is min(t_x, t_y, t_z) for the i-th embedded vertex, in 0..l.
    Frozen, with read-only arrays (see Frozen), so `capacity_curve`,
    derived on first read, stays the curve of `ts`. Construction raises
    ConfigError unless m is in range (see bit_length) and there is one t
    in 0..l per embedded vertex.
    """

    ts: np.ndarray = array(np.int64, -1)        # (K,)
    m: int
    embedded: np.ndarray = array(np.int64, -1)  # 1-based ids, C order: the partition's own

    def __post_init__(self):
        super().__post_init__()
        l = self.l
        if self.ts.size != self.embedded.size:
            raise ConfigError(
                f"prediction report holds {self.ts.size} t values for "
                f"{self.embedded.size} embedded vertices"
            )
        if self.ts.size and not 0 <= self.ts.min() <= self.ts.max() <= l:
            raise ConfigError(f"prediction report t values must lie in 0..{l}")

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
        return int(self.capacity_curve[embedding_length(n, self.l) - 1])

    def to_json_dict(self) -> dict:
        """The report's JSON object, keys in order. Its integer lists are
        the report's own int64 arrays, for a printer that writes them
        itself (see cli._json_chunks)."""
        return {
            "m": self.m,
            "l": self.l,
            "embedded": self.embedded,
            "max_prefix_lengths": self.ts,
            "capacity_curve": self.capacity_curve,
            "best_n": choose_n(self),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PredictionReport":
        ts = np.asarray(_json_ints(d, "max_prefix_lengths"), dtype=np.int64)
        m = int(_json_ints(d, "m"))
        embedded = np.asarray(_json_ints(d, "embedded"), dtype=np.int64)
        if int(_json_ints(d, "l")) != bit_length(m):
            raise ConfigError(
                f"malformed prediction report: l={d['l']} contradicts m={m}"
            )
        # checked before construction, which would flatten a nested list
        if not ts.ndim == embedded.ndim == 1:
            raise ConfigError("malformed prediction report: expected flat lists")
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

    words: (N, 3) int64 magnitudes below 2^l. Bit u of the majority
    word is 1 when more than half of the ring carries 1 at plane u (ties
    and empty rings give 0). Only planes l-n and up are counted, and in
    each block of rings (see _blocks) none at or above the bit length of
    its largest ring word, where every ring carries 0.
    """
    pred = np.zeros((part.n_embedded, 3), dtype=np.int64)
    for first, last, ring_words, offsets in _blocks(words, part):
        top = _top(ring_words, l)
        if top > l - n:
            pred[first:last] = _majority(ring_words, offsets, l - n, top)
    return pred


def _blocks(words: np.ndarray, part):
    """(first, last, ring words, offsets) for each block of the rings of
    embedded vertices first..last-1, whole rings of at most _BLOCK
    entries together (a longer ring is a block of its own), so that the
    working arrays stay small."""
    offsets = part.ring_offsets
    first = 0
    while first < part.n_embedded:
        last = max(first + 1, int(np.searchsorted(
            offsets, offsets[first] + _BLOCK, side="right")) - 1)
        block = offsets[first:last + 1]
        yield first, last, words[part.ring_flat[block[0]:block[-1]] - 1], block - block[0]
        first = last


def _top(ring_words: np.ndarray, l: int) -> int:
    """The planes below which some ring word carries a 1, at most l."""
    return min(l, int(ring_words.max()).bit_length()) if ring_words.size else 0


def _majority(ring_words: np.ndarray, offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Planes lo..hi-1 of the majority words of the rings
    ring_words[offsets[i]:offsets[i+1]], shifted down by lo: a
    (len(offsets) - 1, 3) int64 array.

    No ring word may carry a 1 at plane hi or above, unless hi - lo is
    8, 16 or 32: the planes are cut out as big-endian words of the
    narrowest width in WORD_DTYPES that holds hi - lo bits, and each of
    their bits becomes one lane, of the narrowest unsigned type that
    holds the largest ring size. A row of lanes viewed as uint64 adds 8, 4 or 2
    planes at once, and no lane can carry into the next: a ring's count
    at a plane is at most its size. The running sum over all rings may
    carry, but the difference of two running sums, taken modulo 2^64,
    is the exact per-ring count.
    """
    sizes = np.diff(offsets)
    width = WORD_DTYPES[next(w for w in WORD_DTYPES if w >= hi - lo)]
    lane = np.min_scalar_type(int(sizes.max()))
    planes = (ring_words >> lo if lo else ring_words).astype(width)
    bits = np.unpackbits(planes.view(np.uint8), axis=1)
    sums = np.zeros((ring_words.shape[0] + 1, bits.shape[1] * lane.itemsize // 8),
                    dtype=np.uint64)
    np.cumsum(bits.astype(lane, copy=False).view(np.uint64), axis=0, out=sums[1:])
    counts = np.diff(sums[offsets], axis=0).view(lane)
    major = np.packbits(counts > (sizes // 2).astype(lane)[:, None], axis=1)
    return major.view(width).astype(np.int64)


# Planes counted at once while analyze looks for a ring's first
# mispredicted plane.
_WINDOW = 8


def analyze(q) -> PredictionReport:
    """Per-vertex prefix lengths, from which the report derives the
    capacity curve (plaintext side), over the split q.partition.

    t = l - bit_length of the planes any axis mispredicts; empty rings
    give t = 0. Only the highest mispredicted plane counts, so the
    planes are counted _WINDOW at a time from the top, each window only
    over the rings with no misprediction above it. Above the largest
    ring word of a block every ring predicts 0, so there a target's 1
    is a misprediction and nothing is counted.
    """
    part = q.partition
    l = q.l
    words = q.magnitudes
    targets = words[part.embedded - 1]
    wrong = targets[:, 0] | targets[:, 1] | targets[:, 2]
    for first, last, ring_words, offsets in _blocks(words, part):
        top = _top(ring_words, l)
        wrong[first:last] &= -1 << top
        sizes = np.diff(offsets)
        live = slice(first, last)  # the vertices whose rings are counted
        keep = (wrong[first:last] == 0) & (sizes > 0)  # nothing mispredicted yet
        for end in range(top, 0, -_WINDOW):
            n_keep = np.count_nonzero(keep)
            if not n_keep:
                break
            if end < top and n_keep < keep.size:
                ring_words = ring_words[np.repeat(keep, sizes)]
                sizes = sizes[keep]
                offsets = np.concatenate(([0], np.cumsum(sizes)))
                live = (live[keep] if type(live) is np.ndarray
                        else first + np.flatnonzero(keep))
                keep = keep[keep]
            # A window below the top is a whole _WINDOW planes and may
            # repeat planes of the one above, where the rings still
            # counted matched their targets.
            lo = max(0, end - _WINDOW)
            hi = min(top, lo + _WINDOW)
            x = _majority(ring_words, offsets, lo, hi)
            x ^= (targets[live] >> lo) & ((1 << (hi - lo)) - 1)
            miss = x[:, 0] | x[:, 1] | x[:, 2]
            # below a ring's highest misprediction, more bits change no t
            wrong[live] |= miss << lo
            keep &= miss == 0
    powers = np.int64(1) << np.arange(l, dtype=np.int64)
    ts = l - np.searchsorted(powers, wrong, side="right")
    ts[np.diff(part.ring_offsets) == 0] = 0
    return PredictionReport(ts=read_only(ts), m=q.m, embedded=part.embedded)


def choose_n(report: PredictionReport, requested: int | None = None) -> int:
    """Requested n if given, else the capacity-curve argmax (ties -> smaller n)."""
    if requested is not None:
        return int(embedding_length(requested, report.l))
    return int(np.argmax(report.capacity_curve)) + 1
