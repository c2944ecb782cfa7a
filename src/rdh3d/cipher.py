"""Keyed ChaCha20 bit streams and XOR encryption of magnitude words.

`encrypt_mesh` gives the owner's MarkedContainer, the only encrypted
form of a mesh; `decrypt_mesh` XORs any container back, payload slots
unrestored. `codec.recover` XORs the same `stream_words` itself and
re-predicts those slots.

Key material is derived as sha256(passphrase); the stream nonce is
sha256(role label) truncated to 96 bits with the block counter starting
at 0, so the encryption and hiding streams are independent even under a
shared passphrase. Stream bits are consumed MSB-first from the byte
stream in vertex-major, axis-major (x, y, z), MSB-to-LSB order: the bit
XORed into (vertex i, axis j, plane u) sits at stream position
(i*3 + j)*l + (l-1-u), a pure function of the key and the address.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from .container import MarkedContainer
from .errors import ConfigError
from .quantize import WORD_DTYPES, QuantizedMesh
from .values import read_only


class KeyRole(enum.Enum):
    ENCRYPT = "encrypt"  # Ke: mesh encryption/decryption
    HIDE = "hide"        # Kw: payload hiding/extraction


def chacha_stream(key: bytes, label: str, n_bytes: int) -> bytes:
    """Raw ChaCha20 keystream for a 32-byte key under a nonce label."""
    if n_bytes <= 0:
        return b""
    nonce = hashlib.sha256(label.encode("utf-8")).digest()[:12]
    # first 4 bytes of the library nonce are the initial block counter
    cipher = Cipher(algorithms.ChaCha20(key, bytes(4) + nonce), mode=None)
    return cipher.encryptor().update(bytes(n_bytes))


@dataclass(frozen=True)
class KeyMaterial:
    key_bytes: bytes = field(repr=False)  # reprs end up in logs and tracebacks
    role: KeyRole

    def __post_init__(self):
        if len(self.key_bytes) != 32:
            raise ConfigError("key material must be exactly 32 bytes")

    @classmethod
    def from_passphrase(cls, passphrase: str, role: KeyRole) -> "KeyMaterial":
        return cls(hashlib.sha256(passphrase.encode("utf-8")).digest(), role)

    def keystream_bytes(self, n_bytes: int) -> bytes:
        return chacha_stream(self.key_bytes, self.role.value, n_bytes)

    def keystream_bits(self, n_bits: int) -> np.ndarray:
        """First n_bits stream bits, MSB-first within each byte."""
        if n_bits < 0:
            raise ValueError("bit count must be nonnegative")
        raw = self.keystream_bytes((n_bits + 7) // 8)
        return np.unpackbits(np.frombuffer(raw, np.uint8), count=n_bits)


def _require_role(key: KeyMaterial, role: KeyRole, op: str):
    if key.role is not role:
        raise ConfigError(
            f"{op} requires a key with role {role.value!r}, got {key.role.value!r}"
        )


def stream_words(key: KeyMaterial, n_words: int, l: int) -> np.ndarray:
    """Keystream as n_words l-bit words (big-endian per word), int64.

    Word w covers stream bits [w*l, (w+1)*l) MSB-first, which matches
    the per-bit addressing order exactly because l is a whole number of
    bytes. l is a word length of WORD_DTYPES.
    """
    raw = key.keystream_bytes(n_words * (l // 8))
    return np.frombuffer(raw, dtype=WORD_DTYPES[l]).astype(np.int64)


def encrypt_mesh(q: QuantizedMesh, ke: KeyMaterial) -> MarkedContainer:
    """The owner's container: magnitudes XORed with the Ke stream, signs
    and faces shared with q, and so its partition too. No payload yet:
    every embedded vertex is marked excluded."""
    _require_role(ke, KeyRole.ENCRYPT, "mesh encryption")
    words = stream_words(ke, 3 * q.n_vertices, q.l).reshape(-1, 3)
    return MarkedContainer(
        m=q.m, n=1, payload_bits=0, signs=q.signs,
        excluded=read_only(np.ones(q.partition.n_embedded, dtype=np.uint8)),
        magnitudes=read_only(q.magnitudes ^ words), faces=q.faces,
    )


def decrypt_mesh(c: MarkedContainer, ke: KeyMaterial) -> QuantizedMesh:
    """XOR a container's magnitudes with the Ke stream; every word but
    the payload slots comes back exact."""
    _require_role(ke, KeyRole.ENCRYPT, "mesh decryption")
    words = stream_words(ke, 3 * c.n_vertices, c.l).reshape(-1, 3)
    return QuantizedMesh(read_only(c.magnitudes ^ words), c.signs, c.m, c.faces)
