from __future__ import annotations

import sys

import numpy as np
import pytest

import rdh3d.metrics
import rdh3d.partition
from rdh3d import KeyMaterial, KeyRole, Mesh

# Local patch of a cow-shaped mesh: 8 vertices, 6 triangles around
# vertex 1, whose one-ring is exactly {2, 3, 4, 5, 7, 8}. Vertex 6
# appears in no face.
COW_VERTICES = np.array([
    [0.180757, 0.034214, 0.193897],
    [0.118210, 0.059086, 0.189724],
    [0.092150, 0.029539, 0.197267],
    [0.137215, 0.043615, 0.201492],
    [0.136288, 0.065522, 0.187564],
    [0.160892, 0.015154, 0.200969],
    [0.155264, 0.057931, 0.192310],
    [0.148673, 0.021459, 0.186577],
])
COW_FACES = np.array([
    [1, 2, 8],
    [7, 8, 1],
    [5, 7, 1],
    [1, 5, 4],
    [3, 4, 1],
    [2, 1, 3],
])


def cow_off_text() -> str:
    lines = ["OFF", f"{len(COW_VERTICES)} {len(COW_FACES)} 0"]
    for x, y, z in COW_VERTICES:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r}")
    for i, j, k in COW_FACES:
        lines.append(f"3 {i - 1} {j - 1} {k - 1}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def cow_mesh() -> Mesh:
    return Mesh(COW_VERTICES.copy(), COW_FACES.copy())


@pytest.fixture
def cow_off() -> str:
    return cow_off_text()


@pytest.fixture
def tetra_mesh() -> Mesh:
    """Complete graph on four vertices (every pair shares a face)."""
    verts = np.array([
        [0.1, 0.2, 0.3],
        [-0.4, 0.5, -0.6],
        [0.7, -0.8, 0.9],
        [0.11, 0.22, -0.33],
    ])
    faces = np.array([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    return Mesh(verts, faces)


def random_mesh(seed: int, n_min: int = 4, n_max: int = 500,
                smooth: bool | None = None, isolated: bool = True) -> Mesh:
    """Deterministic random triangle soup.

    smooth=True clusters coordinates around a shared base so high bit
    planes agree across the mesh (deep prediction prefixes); the default
    alternates by seed. isolated=True may leave some vertices unused.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    if smooth is None:
        smooth = bool(seed % 2)
    if smooth:
        base = rng.uniform(-0.8, 0.8, size=3)
        verts = np.clip(base + rng.normal(0.0, 3e-4, size=(n, 3)), -0.999999, 0.999999)
    else:
        verts = rng.uniform(-0.999999, 0.999999, size=(n, 3))
    n_faces = int(rng.integers(1, max(2, 2 * n)))
    faces = rng.integers(1, n + 1, size=(n_faces, 3))
    if not isolated and n >= 3:
        # force every vertex into at least one face
        ids = np.arange(1, n + 1)
        filler = np.column_stack([ids, np.roll(ids, 1), np.roll(ids, 2)])
        faces = np.vstack([faces, filler])
    return Mesh(verts.astype(np.float64), faces.astype(np.int64))


def grid_mesh(side: int, scale: float = 0.9) -> Mesh:
    """Smooth (side x side) height-field surface, 2*(side-1)^2 triangles."""
    u = np.linspace(-scale, scale, side)
    xx, yy = np.meshgrid(u, u)
    zz = 0.4 * np.sin(3 * xx) * np.cos(2 * yy)
    verts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    idx = np.arange(side * side).reshape(side, side)
    a = idx[:-1, :-1].ravel()
    b = idx[:-1, 1:].ravel()
    c = idx[1:, :-1].ravel()
    d = idx[1:, 1:].ravel()
    faces = np.vstack([
        np.column_stack([a, b, c]),
        np.column_stack([b, d, c]),
    ]) + 1
    return Mesh(verts, faces)


def fan_mesh(spokes: int, radius: float = 1e-3) -> Mesh:
    """Closed fan: apex 1 (embedded) with a ring of `spokes` members.

    The rim lies on a small circle around the apex, so the high bit
    planes of the ring agree and prediction reaches deep prefixes.
    """
    angle = np.linspace(0.0, 2 * np.pi, spokes, endpoint=False)
    apex = np.array([0.3, -0.2, 0.1])
    rim = apex + radius * np.column_stack(
        [np.cos(angle), np.sin(angle), 0.5 * np.sin(3 * angle)]
    )
    rim_ids = np.arange(2, spokes + 2)
    faces = np.column_stack([np.ones(spokes, dtype=np.int64), rim_ids,
                             np.roll(rim_ids, -1)])
    return Mesh(np.vstack([apex, rim]), faces)


def empty_ring_mesh(side: int = 8) -> Mesh:
    """grid_mesh plus two vertices that appear only in degenerate faces
    [k, k, k]: one such face mid-list and one last, so an embedded
    vertex part-way through C order and the last one have empty rings."""
    grid = grid_mesh(side)
    extra = np.array([[0.25, 0.5, -0.125], [-0.5, 0.375, 0.0625]])
    mid = grid.faces.shape[0] // 2
    k = grid.n_vertices
    faces = np.vstack([grid.faces[:mid], [[k + 1] * 3], grid.faces[mid:], [[k + 2] * 3]])
    return Mesh(np.vstack([grid.vertices, extra]), faces)


def signed_ints(q) -> np.ndarray:
    """Signed integer coordinates of a QuantizedMesh, e.g. -2020 for
    magnitude 2020 / sign 1."""
    return np.where(q.signs == 1, -1, 1) * q.magnitudes


def rings_of(part) -> dict[int, np.ndarray]:
    """{embedded vertex: its ring} of a Partition, 1-based ids."""
    off = part.ring_offsets
    return {int(v): part.ring_flat[off[i]:off[i + 1]] for i, v in enumerate(part.embedded)}


@pytest.fixture
def grid_answers(monkeypatch) -> list:
    """Records, for every call of the Hausdorff grid search in the test,
    whether the grid answered (False: the kd-tree had to)."""
    original = rdh3d.metrics._grid_min_sq
    answers = []

    def recording(*args):
        near_sq = original(*args)
        answers.append(near_sq is not None)
        return near_sq

    monkeypatch.setattr(rdh3d.metrics, "_grid_min_sq", recording)
    return answers


@pytest.fixture
def partition_calls(monkeypatch) -> list:
    """Records the arguments of every partition() call made through any
    rdh3d module for the duration of the test."""
    original = rdh3d.partition.partition
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "rdh3d" or name.startswith("rdh3d."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def ke() -> KeyMaterial:
    return KeyMaterial.from_passphrase("test-encryption-pass", KeyRole.ENCRYPT)


@pytest.fixture
def kw() -> KeyMaterial:
    return KeyMaterial.from_passphrase("test-hiding-pass", KeyRole.HIDE)


class ZeroKey:
    """Stand-in key whose stream is all zero bits (identity XOR)."""

    role = KeyRole.ENCRYPT

    def __init__(self, role: KeyRole = KeyRole.ENCRYPT):
        self.role = role

    def keystream_bytes(self, n_bytes: int) -> bytes:
        return bytes(n_bytes)

    def keystream_bits(self, n_bits: int) -> np.ndarray:
        return np.zeros(n_bits, dtype=np.uint8)
