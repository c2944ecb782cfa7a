"""Fixed-point integer mapping of mesh coordinates.

Coordinates (all |v| < 1) are mapped to sign-magnitude form: a
nonnegative magnitude word floor(|v| * 10^m), an int64 of l = bit_length(m)
significant bits, plus a separate sign bit. Only the magnitude words take
part in encryption and embedding; sign bits travel in the clear in the
container header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .mesh_io import Faced, Mesh, array, read_only

M_MIN, M_MAX = 2, 9

# Big-endian byte form of one magnitude word, by word length l.
WORD_DTYPES = {8: ">u1", 16: ">u2", 32: ">u4"}


def bit_length(m: int) -> int:
    """Word length l at precision m: the narrowest width in WORD_DTYPES
    that holds 10^m - 1. The rule for m: it must lie in M_MIN..M_MAX."""
    if not M_MIN <= m <= M_MAX:
        raise ConfigError(f"precision m={m} outside supported range [{M_MIN}, {M_MAX}]")
    for l in WORD_DTYPES:
        if 10**m <= 1 << l:
            return l


def embedding_length(n: int, l: int) -> int:
    """n, checked as an embedding length for l-bit words. The rule for
    n: it must lie in 1..l."""
    if not 1 <= n <= l:
        raise ConfigError(f"embedding length n={n} outside [1, {l}]")
    return n


class SignMagnitude(Faced):
    """A Faced value of sign-magnitude words: (N, 3) `magnitudes` of
    l = bit_length(m) bits and one sign bit per word in `signs`, 1 =
    negative; a word k of sign s stands for (-1)^s * k / 10^decimals.
    Construction raises `_error` unless m is in range (see bit_length),
    there is one sign per word, every sign is 0 or 1 and every word is
    below 2^l."""

    decimals = 0

    def __post_init__(self):
        super().__post_init__()
        try:
            l = self.l
        except ConfigError as exc:
            raise self._error(str(exc)) from None
        if self.signs.shape != self.magnitudes.shape:
            raise self._error(f"{self.signs.shape[0]} sign rows for {self.n_vertices} vertices")
        if self.signs.max(initial=0) > 1:
            raise self._error("sign bits must be 0 or 1")
        # a negative word sets every bit above l of the OR too
        if int(np.bitwise_or.reduce(self.magnitudes, axis=None)) >> l:
            raise self._error("magnitude does not fit the declared word length")

    @property
    def l(self) -> int:
        return bit_length(self.m)

    @property
    def n_vertices(self) -> int:
        return self.magnitudes.shape[0]

    def coordinates(self) -> Mesh:
        """The sign convention, (-1)^sign * magnitude / 10^decimals, as a
        Mesh over the same faces; a zero word of sign 1 gives -0.0."""
        coords = self.magnitudes / 10**self.decimals
        # the sign of 0.5 - sign is (-1)^sign; 2x faster than np.where
        return Mesh(read_only(np.copysign(coords, 0.5 - self.signs, out=coords)), self.faces)


@dataclass(frozen=True, eq=False)
class QuantizedMesh(SignMagnitude):
    """Sign-magnitude form of a Mesh, frozen with read-only arrays (see
    Frozen), sharing the Mesh's face array and so its split (see Faced).
    Construction raises ValueError on a broken rule (see SignMagnitude)."""

    magnitudes: np.ndarray = array(np.int64)  # (N, 3), each < 10^m
    signs: np.ndarray = array(np.uint8)       # (N, 3), 1 = negative
    m: int
    faces: np.ndarray = array(np.int64)       # (M, 3), 1-based, shared with the source Mesh

    @property
    def decimals(self) -> int:
        return self.m


def _exact_floor_scaled(values: np.ndarray, m: int) -> np.ndarray:
    """floor(values * 10^m), exact for each float64 value in [0, 1).

    A plain float multiply can round up onto the next integer (0.03 * 100
    == 3.0, yet the double 0.03 is below 3/100), which would break the
    < 10^-m round-trip bound. Dekker's TwoProduct gives p = fl(v * 10^m)
    and its exact error e = v * 10^m - p: a Veltkamp split at 2^27 + 1
    cuts v into halves of at most 26 significant bits, and 10^m = 2^m *
    5^m has at most 21 (5^9 < 2^21), so each half times 10^m is exact
    and 10^m needs no split. No product underflows once p >= 1, and
    below that the floor is 0 anyway. The true floor is floor(p), less 1
    where p rounded up onto an integer (p integral and e < 0). The
    operations run in this order, in place on three buffers.
    """
    scale = float(10**m)
    p = values * scale
    t = values * 134217729.0  # 2^27 + 1
    # v_hi = t - (t - values); v_lo = values - v_hi, in t's buffer
    v_hi = t - values
    np.subtract(t, v_hi, out=v_hi)
    v_lo = np.subtract(values, v_hi, out=t)
    # e = (v_hi * scale - p) + v_lo * scale, in v_hi's buffer
    e = np.multiply(v_hi, scale, out=v_hi)
    e -= p
    v_lo *= scale
    e += v_lo
    floor = np.floor(p, out=v_lo)
    floor -= (floor == p) & (e < 0)
    return floor.astype(np.int64)


def quantize(mesh, m: int) -> QuantizedMesh:
    """Map float coordinates to sign-magnitude integers at precision m."""
    bit_length(m)  # the rule for m
    verts = mesh.vertices
    finite = np.isfinite(verts)
    if not finite.all():
        bad = int(np.nonzero(~finite.all(axis=1))[0][0]) + 1
        raise DomainError(f"vertex {bad} has a non-finite coordinate")
    mags_ok = np.abs(verts) < 1.0
    if not mags_ok.all():
        bad = int(np.nonzero(~mags_ok.all(axis=1))[0][0]) + 1
        raise DomainError(
            f"vertex {bad} has |coordinate| >= 1; inputs must be normalized below 1"
        )
    flat = np.abs(verts).ravel()
    mags = _exact_floor_scaled(flat, m).reshape(verts.shape)
    signs = (verts < 0).astype(np.uint8)
    return QuantizedMesh(read_only(mags), read_only(signs), m, mesh.faces)


def dequantize(q: QuantizedMesh) -> Mesh:
    """Inverse map: coordinate = (-1)^sign * magnitude / 10^m."""
    return q.coordinates()
