"""Payload embedding into n-MSB slots, extraction, and lossless recovery.

`embed` turns the owner's container (`cipher.encrypt_mesh`) into the
marked one. It replaces the top n bits of every non-excluded embedded
vertex's x, y, z magnitude (vertices in C order, payload bits MSB-first)
with Kw-encrypted payload; the low l-n bits survive untouched:

    new_word = sum(s_k * 2^(l-k), k=1..n) + old_word mod 2^(l-n)

Extraction reads those slots straight out of the marked container with
no mesh decryption (Kw only); recovery decrypts with Ke and re-predicts
the overwritten planes from each vertex's reference ring, which is exact
for every vertex whose measured prefix length reached n.
"""

from __future__ import annotations

import numpy as np

from .cipher import KeyMaterial, KeyRole, _require_role, chacha_stream, stream_words
from .container import MarkedContainer
from .errors import CapacityError, ConfigError
from .predictor import PredictionReport, predict_words
from .quantize import QuantizedMesh, embedding_length
from .values import read_only


def _groups_to_words(bits: np.ndarray, n: int) -> np.ndarray:
    """(k, 3, n) bit groups -> (k, 3) integers, MSB-first."""
    weights = np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64)
    return bits.reshape(-1, 3, n).astype(np.int64) @ weights


def _words_to_groups(vals: np.ndarray, n: int) -> np.ndarray:
    """(k, 3) integers -> flat bit vector, MSB-first per n-bit group."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((vals[..., None] >> shifts) & 1).astype(np.uint8).ravel()


def _payload_rows(part, excluded: np.ndarray) -> np.ndarray:
    """The word rows that carry payload: the embedded vertices whose
    excluded flag is 0 (or False), 0-based, in C order."""
    return (part.embedded - 1)[excluded == 0]


def _splice(mags: np.ndarray, rows: np.ndarray, top: np.ndarray, l: int, n: int):
    """Write the n-bit words `top` over the top n bits of mags[rows], in
    place: new = top * 2^(l-n) + old mod 2^(l-n)."""
    low_mask = (1 << (l - n)) - 1
    mags[rows] = (mags[rows] & low_mask) | (top << (l - n))


def default_payload(kw: KeyMaterial, n_bits: int) -> np.ndarray:
    """Deterministic pseudo-random payload bits derived from the hiding
    key Kw under a nonce label distinct from the hiding stream."""
    raw = chacha_stream(kw.key_bytes, "payload", (n_bits + 7) // 8)
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=n_bits)


def embed(c: MarkedContainer, rep: PredictionReport, n: int,
          payload: np.ndarray, kw: KeyMaterial) -> MarkedContainer:
    """Write a Kw-encrypted payload of 0/1 bits into the n-MSB slots of
    the owner's container, which must not carry a payload yet.

    Payload shorter than capacity is padded with further Kw stream bits;
    the true bit count travels in the container header. `rep` must have
    been made for the container's mesh.
    """
    _require_role(kw, KeyRole.HIDE, "payload embedding")
    embedding_length(n, c.l)
    if rep.m != c.m:
        raise ConfigError(
            f"prediction report was made for m={rep.m}, mesh has m={c.m}"
        )
    part = c.partition
    if not np.array_equal(rep.embedded, part.embedded):
        raise ConfigError(
            "prediction report was made for another mesh: its embedded "
            "vertices differ from the partition's"
        )
    if not c.excluded.all():
        raise ConfigError(
            "container already carries a payload; embed takes only the owner's "
            "unmarked container"
        )

    excluded = rep.ts < n
    rows = _payload_rows(part, excluded)
    capacity = rep.capacity(n)

    payload = np.asarray(payload).ravel()
    if ((payload != 0) & (payload != 1)).any():
        raise ConfigError("payload bits must be 0 or 1")
    payload = payload.astype(np.uint8)
    if payload.size > capacity:
        raise CapacityError(
            f"payload of {payload.size} bits exceeds capacity of {capacity} bits "
            f"(n={n}, {rows.size} embeddable vertices)",
            capacity_bits=capacity,
        )

    slots = kw.keystream_bits(capacity)
    slots[:payload.size] ^= payload

    mags = c.magnitudes.copy()
    _splice(mags, rows, _groups_to_words(slots, n), c.l, n)

    return MarkedContainer(
        m=c.m, n=n, payload_bits=int(payload.size),
        signs=c.signs, excluded=read_only(excluded.astype(np.uint8)),
        magnitudes=read_only(mags), faces=c.faces,
    )


def extract(c: MarkedContainer, kw: KeyMaterial) -> np.ndarray:
    """Read the payload back out of a marked container; needs Kw only.

    The embedded set comes from the face list (the container's
    partition, derived once per face array), excluded vertices are
    skipped via the header bitmap, and no mesh decryption happens (this
    is what makes the scheme separable).
    """
    _require_role(kw, KeyRole.HIDE, "payload extraction")
    vals = c.magnitudes[_payload_rows(c.partition, c.excluded)] >> (c.l - c.n)
    bits = _words_to_groups(vals, c.n)[:c.payload_bits]
    return bits ^ kw.keystream_bits(c.payload_bits)


def recover(c: MarkedContainer, ke: KeyMaterial) -> QuantizedMesh:
    """Decrypt and ring-predict back to the exact original quantized mesh.

    Reference and excluded vertices are exact after decryption alone.
    `predictor.predict_words` re-predicts the n MSBs of every embedded
    vertex from its (fully recovered) reference ring, and those bits are
    spliced over the included vertices; they are exact wherever the
    measured prefix length t = l - bit_length(mispredicted planes)
    reached n.
    """
    _require_role(ke, KeyRole.ENCRYPT, "mesh recovery")
    l, n = c.l, c.n
    # decrypted into the fresh stream array, spliced, and only then frozen
    mags = stream_words(ke, 3 * c.n_vertices, l).reshape(-1, 3)
    mags ^= c.magnitudes
    included = c.excluded == 0
    if included.any():
        pred = predict_words(mags, c.partition, l, n)[included]
        _splice(mags, _payload_rows(c.partition, c.excluded), pred, l, n)
    return QuantizedMesh(read_only(mags), c.signs, c.m, c.faces)


def payload_to_bits(data: bytes) -> np.ndarray:
    """File bytes -> bit vector, MSB-first within each byte."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_payload(bits: np.ndarray) -> bytes:
    """Bit vector -> bytes, zero-padding a trailing partial byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
