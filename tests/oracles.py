"""Independent reference implementations used only to check the library.

Everything here is deliberately written the slow, obvious way (pure
Python loops, no shared helpers with the package) so a bug in the
production code cannot hide in its own oracle. The one exception is
`plane_cumsum_predict_words`, the earlier plane-by-plane numpy form of
the prediction rule, which is fast enough to check rings of 65,536
members and more.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
from scipy.spatial import cKDTree


# ---------------------------------------------------------------------------
# RFC 7539 ChaCha20, transcribed from the RFC.

def _rotl32(v: int, c: int) -> int:
    return ((v << c) & 0xFFFFFFFF) | (v >> (32 - c))


def _quarter_round(s, a, b, c, d):
    s[a] = (s[a] + s[b]) & 0xFFFFFFFF
    s[d] = _rotl32(s[d] ^ s[a], 16)
    s[c] = (s[c] + s[d]) & 0xFFFFFFFF
    s[b] = _rotl32(s[b] ^ s[c], 12)
    s[a] = (s[a] + s[b]) & 0xFFFFFFFF
    s[d] = _rotl32(s[d] ^ s[a], 8)
    s[c] = (s[c] + s[d]) & 0xFFFFFFFF
    s[b] = _rotl32(s[b] ^ s[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    assert len(key) == 32 and len(nonce) == 12
    state = list(struct.unpack("<4I", b"expand 32-byte k"))
    state += list(struct.unpack("<8I", key))
    state.append(counter & 0xFFFFFFFF)
    state += list(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & 0xFFFFFFFF for w, s in zip(working, state)]
    return struct.pack("<16I", *out)


def chacha20_keystream(key: bytes, nonce: bytes, counter: int, n_bytes: int) -> bytes:
    out = b""
    block = counter
    while len(out) < n_bytes:
        out += chacha20_block(key, block, nonce)
        block += 1
    return out[:n_bytes]


def keystream_bits(key: bytes, nonce: bytes, n_bits: int) -> list[int]:
    """Stream bits, MSB-first within each byte, counter starting at 0."""
    raw = chacha20_keystream(key, nonce, 0, (n_bits + 7) // 8)
    bits = []
    for byte in raw:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    return bits[:n_bits]


# ---------------------------------------------------------------------------
# Fixed-point integer mapping, in integer arithmetic on the float's exact
# binary value.

def floor_scaled(value: float, m: int) -> int:
    """floor(|value| * 10^m), exactly."""
    num, den = abs(float(value)).as_integer_ratio()
    return num * 10**m // den


# ---------------------------------------------------------------------------
# Embedded/reference split, rebuilt from the traversal rule.

def brute_partition(n_vertices: int, faces):
    """Returns (embedded list, reference set, rings dict, unassigned set)."""
    faces = [tuple(int(i) for i in f) for f in faces]
    adjacency: dict[int, set[int]] = {}
    for face in faces:
        for a in face:
            adjacency.setdefault(a, set())
            for b in face:
                if b != a:
                    adjacency[a].add(b)
    order = []
    seen = set()
    for face in faces:
        for v in face:
            if v not in seen:
                seen.add(v)
                order.append(v)
    embedded, in_c, in_r = [], set(), set()
    for v in order:
        if v not in in_c and v not in in_r:
            embedded.append(v)
            in_c.add(v)
            in_r |= adjacency[v]
    rings = {c: sorted(adjacency[c]) for c in embedded}
    unassigned = set(range(1, n_vertices + 1)) - seen
    return embedded, in_r, rings, unassigned


def greedy_split_faults(n_vertices: int, faces, in_c) -> set[int]:
    """Which of the three local conditions of the greedy split the vertex
    ids in_c break, as a set of condition numbers (empty: in_c is the
    split's embedded set C, by induction over first-appearance order):
    1. no edge between distinct ids joins two C vertices;
    2. every face vertex outside C has a C neighbour earlier in
       first-appearance order;
    3. no vertex outside every face is in C.
    No sweep is run: each condition is checked on its own."""
    in_c = {int(v) for v in in_c}
    faces = [tuple(int(i) for i in f) for f in faces]
    rank: dict[int, int] = {}
    for face in faces:
        for v in face:
            rank.setdefault(v, len(rank))
    neighbours: dict[int, set[int]] = {v: set() for v in rank}
    for face in faces:
        for a in face:
            for b in face:
                if a != b:
                    neighbours[a].add(b)
    faults = set()
    if any(a in in_c and b in in_c for a in rank for b in neighbours[a]):
        faults.add(1)
    for v in rank:
        if v not in in_c and not any(b in in_c and rank[b] < rank[v] for b in neighbours[v]):
            faults.add(2)
    outside = set(range(1, n_vertices + 1)) - set(rank)
    if in_c & outside:
        faults.add(3)
    return faults


def is_greedy_split(n_vertices: int, faces, in_c) -> bool:
    """Whether the vertex ids in_c are the greedy split's embedded set of
    the 1-based faces on n_vertices vertices (see greedy_split_faults)."""
    return not greedy_split_faults(n_vertices, faces, in_c)


# ---------------------------------------------------------------------------
# Plane-by-plane majority prediction, rebuilt from its definition.

def brute_predict_bit(plane: int, ring_words) -> int:
    zeros = sum(1 for w in ring_words if ((int(w) >> plane) & 1) == 0)
    ones = len(ring_words) - zeros
    return 0 if zeros >= ones else 1


def plane_cumsum_predict_words(words, part, l: int, n: int):
    """The earlier vectorized form of `predictor.predict_words`, kept as
    its reference: the three axes' rings laid end to end as 3K rings, one
    int64 cumsum per bit plane, planes above the largest ring word
    skipped. Returns the (K, 3) int64 top n bits of each majority word.
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


def brute_max_prefix_len(target: int, ring_words, l: int) -> int:
    for k in range(1, l + 1):
        plane = l - k
        if brute_predict_bit(plane, ring_words) != (int(target) >> plane) & 1:
            return k - 1
    return l


def brute_analyze(magnitudes, embedded, rings, l: int):
    """Returns (ts list aligned with embedded order, capacity curve list).

    magnitudes: (N, 3) integer array-like, 1-based vertex ids everywhere.
    """
    ts = []
    for v in embedded:
        ring = rings[v]
        if not ring:
            ts.append(0)
            continue
        t = l
        for axis in range(3):
            ring_words = [int(magnitudes[u - 1][axis]) for u in ring]
            t = min(t, brute_max_prefix_len(int(magnitudes[v - 1][axis]), ring_words, l))
        ts.append(t)
    curve = [3 * n * sum(1 for t in ts if t >= n) for n in range(1, l + 1)]
    return ts, curve


def brute_choose_n(curve) -> int:
    best_n, best = 1, None
    for n, value in enumerate(curve, start=1):
        if best is None or value > best:
            best_n, best = n, value
    return best_n


# ---------------------------------------------------------------------------
# The v1 hiding format, rebuilt from its description. Words are lists of
# [x, y, z] Python ints, vertex ids 1-based. A stream is ChaCha20 under
# the key sha256(passphrase) and the nonce sha256(label)[:12], counter 0,
# read MSB-first; the label is "encrypt" for Ke, "hide" for the Kw slot
# stream and "payload" for the default payload.

def model_stream_bits(passphrase: str, label: str, n_bits: int) -> list[int]:
    key = hashlib.sha256(passphrase.encode("utf-8")).digest()
    nonce = hashlib.sha256(label.encode("utf-8")).digest()[:12]
    return keystream_bits(key, nonce, n_bits)


def _bits_to_int(bits) -> int:
    value = 0
    for bit in bits:
        value = 2 * value + bit
    return value


def model_crypt(words, ke_pass: str, l: int):
    """XOR of every word with its l stream bits, in vertex-major, x-y-z
    order: encryption, and decryption too."""
    stream = model_stream_bits(ke_pass, "encrypt", 3 * len(words) * l)
    out, pos = [], 0
    for row in words:
        out.append([])
        for word in row:
            out[-1].append(int(word) ^ _bits_to_int(stream[pos:pos + l]))
            pos += l
    return out


def model_slot_vertices(faces, n_vertices: int, ts, n: int) -> list[int]:
    """The vertices that carry payload at length n, in slot order: the
    embedded set in traversal order, less those whose prefix t < n."""
    embedded = brute_partition(n_vertices, faces)[0]
    return [v for v, t in zip(embedded, ts) if t >= n]


def model_embed(enc_words, faces, ts, n: int, l: int, payload, kw_pass: str):
    """The marked words. Slots go vertex by vertex in slot order, then x,
    y, z, n bits each, MSB first; slot k holds payload bit k XOR Kw
    stream bit k, and the slots past the payload hold the stream bits
    themselves. The low l - n bits of every word stay."""
    rows = model_slot_vertices(faces, len(enc_words), ts, n)
    capacity = 3 * n * len(rows)
    assert len(payload) <= capacity
    slots = model_stream_bits(kw_pass, "hide", capacity)
    for k, bit in enumerate(payload):
        slots[k] ^= int(bit)
    marked = [list(map(int, row)) for row in enc_words]
    k = 0
    for v in rows:
        for axis in range(3):
            low = marked[v - 1][axis] % 2 ** (l - n)
            marked[v - 1][axis] = _bits_to_int(slots[k:k + n]) * 2 ** (l - n) + low
            k += n
    return marked


def model_extract(marked_words, faces, ts, n: int, l: int, payload_bits: int,
                  kw_pass: str) -> list[int]:
    """The payload read back: the top n bits of each slot word in slot
    order, MSB first, cut to the payload's length and XORed with Kw."""
    bits = []
    for v in model_slot_vertices(faces, len(marked_words), ts, n):
        for axis in range(3):
            top = int(marked_words[v - 1][axis]) // 2 ** (l - n)
            bits += [(top >> (n - 1 - i)) & 1 for i in range(n)]
    stream = model_stream_bits(kw_pass, "hide", payload_bits)
    return [b ^ s for b, s in zip(bits[:payload_bits], stream)]


def model_recover(marked_words, faces, ts, n: int, l: int, ke_pass: str):
    """The original words: decryption, then the top n bits of every slot
    word replaced by the ring majority of each plane l-1 .. l-n."""
    words = model_crypt(marked_words, ke_pass, l)
    rings = brute_partition(len(words), faces)[2]
    for v in model_slot_vertices(faces, len(words), ts, n):
        for axis in range(3):
            ring = [words[u - 1][axis] for u in rings[v]]
            top = _bits_to_int(brute_predict_bit(p, ring) for p in range(l - 1, l - n - 1, -1))
            words[v - 1][axis] = top * 2 ** (l - n) + words[v - 1][axis] % 2 ** (l - n)
    return words


def model_bitmap(bits) -> bytes:
    """bits packed eight to a byte, MSB first, the last byte padded with
    zero bits."""
    bits = list(bits)
    bits += [0] * (-len(bits) % 8)
    return bytes(_bits_to_int(bits[i:i + 8]) for i in range(0, len(bits), 8))


def model_container(m: int, l: int, n: int, payload_bits: int, signs, excluded,
                    words, faces) -> bytes:
    """A v1 .rdh3d container, as the README lays it out: the header in
    little-endian order (magic "RDH3", version 1, m, l and n one byte
    each, N and M as u32, the payload bit count as u64), then the sign
    bitmap over the 3N coordinates, vertex-major x, y, z; the excluded
    bitmap over the embedded set in traversal order; the 3N words, l
    bits each, big-endian, vertex-major; and the M faces as triples of
    little-endian u32 ids, 1-based. The owner's container has n = 1, no
    payload and every embedded vertex excluded."""
    header = (b"RDH3" + bytes([1, m, l, n]) + len(words).to_bytes(4, "little")
              + len(faces).to_bytes(4, "little") + payload_bits.to_bytes(8, "little"))
    return b"".join([
        header,
        model_bitmap(int(s) for row in signs for s in row),
        model_bitmap(int(e) for e in excluded),
        b"".join(int(w).to_bytes(l // 8, "big") for row in words for w in row),
        b"".join(int(i).to_bytes(4, "little") for face in faces for i in face),
    ])


# ---------------------------------------------------------------------------
# Hausdorff distance, double loop.

def brute_hausdorff(a, b) -> float:
    def directed(xs, ys):
        worst = 0.0
        for x in xs:
            best = None
            for y in ys:
                d = sum((float(xi) - float(yi)) ** 2 for xi, yi in zip(x, y)) ** 0.5
                if best is None or d < best:
                    best = d
            worst = max(worst, best)
        return worst

    return max(directed(a, b), directed(b, a))


def kdtree_hausdorff(a, b) -> float:
    """Two full nearest-neighbour queries, one kd-tree per direction: the
    value the library's kdtree method must reproduce bit for bit."""
    d_ab = cKDTree(b).query(a, k=1)[0].max()
    d_ba = cKDTree(a).query(b, k=1)[0].max()
    return float(max(d_ab, d_ba))
