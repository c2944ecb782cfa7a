from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdh3d import Mesh
from rdh3d.partition import partition

from conftest import grid_mesh, random_mesh, rings_of
from oracles import brute_partition, greedy_split_faults, is_greedy_split


class TestCowFragment:
    def test_first_vertex_embeds_and_ring_references(self, cow_mesh):
        part = partition(cow_mesh.n_vertices, cow_mesh.faces)
        assert part.embedded[0] == 1
        assert rings_of(part)[1].tolist() == [2, 3, 4, 5, 7, 8]
        assert set(part.reference.tolist()) >= {2, 3, 4, 5, 7, 8}

    def test_unused_vertex_is_unassigned(self, cow_mesh):
        part = partition(cow_mesh.n_vertices, cow_mesh.faces)
        assert part.unassigned.tolist() == [6]


def test_no_faces_everything_unassigned():
    mesh = Mesh(np.array([[0.1, 0, 0], [0, 0.1, 0]]), np.empty((0, 3)))
    part = partition(mesh.n_vertices, mesh.faces)
    assert part.embedded.size == 0
    assert part.reference.size == 0
    assert part.unassigned.tolist() == [1, 2]


def test_tetrahedron_single_embedded(tetra_mesh):
    part = partition(tetra_mesh.n_vertices, tetra_mesh.faces)
    assert part.embedded.tolist() == [1]
    assert set(part.reference.tolist()) == {2, 3, 4}
    assert rings_of(part)[1].tolist() == [2, 3, 4]
    assert part.unassigned.size == 0


def test_traversal_follows_face_order():
    # faces listed so vertex 5 shows up before vertex 2
    mesh = Mesh(
        np.zeros((6, 3)),
        np.array([[5, 6, 1], [2, 3, 4]]),
    )
    part = partition(mesh.n_vertices, mesh.faces)
    assert part.embedded.tolist() == [5, 2]


def test_degenerate_face_no_self_neighbor():
    mesh = Mesh(np.zeros((3, 3)), np.array([[1, 1, 2], [3, 3, 3]]))
    part = partition(mesh.n_vertices, mesh.faces)
    rings = rings_of(part)
    for c, ring in rings.items():
        assert c not in ring.tolist()
    # vertex 3 shares no face with another vertex: embedded, empty ring
    assert 3 in rings and rings[3].size == 0


def test_duplicate_faces_are_harmless():
    a = partition(4, np.array([[1, 2, 3]]))
    b = partition(4, np.array([[1, 2, 3], [1, 2, 3]]))
    assert a.embedded.tolist() == b.embedded.tolist()
    assert a.reference.tolist() == b.reference.tolist()


class TestInvariants:
    @pytest.mark.parametrize("seed", range(40))
    def test_sets_disjoint_and_cover(self, seed):
        mesh = random_mesh(seed, n_max=120)
        part = partition(mesh.n_vertices, mesh.faces)
        c = set(part.embedded.tolist())
        r = set(part.reference.tolist())
        u = set(part.unassigned.tolist())
        assert not c & r
        assert not c & u
        assert not r & u
        assert c | r | u == set(range(1, mesh.n_vertices + 1))

    @pytest.mark.parametrize("seed", range(40))
    def test_independent_set_and_rings_in_reference(self, seed):
        mesh = random_mesh(seed, n_max=120)
        part = partition(mesh.n_vertices, mesh.faces)
        c = set(part.embedded.tolist())
        r = set(part.reference.tolist())
        for cv, ring in rings_of(part).items():
            ring_list = ring.tolist()
            assert ring_list == sorted(set(ring_list))  # dedup + ascending
            assert not set(ring_list) & c  # no two C vertices adjacent
            assert set(ring_list) <= r

    @pytest.mark.parametrize("seed", range(20))
    def test_every_faced_embedded_vertex_has_a_ring(self, seed):
        mesh = random_mesh(seed, n_max=120)
        part = partition(mesh.n_vertices, mesh.faces)
        degenerate_only = set()
        for face in mesh.faces.tolist():
            if len(set(face)) == 1:
                degenerate_only.add(face[0])
        for cv, ring in rings_of(part).items():
            if cv not in degenerate_only:
                assert ring.size >= 1

    def test_determinism(self):
        mesh = random_mesh(11, n_max=200)
        a = partition(mesh.n_vertices, mesh.faces)
        b = partition(mesh.n_vertices, mesh.faces)
        assert a.embedded.tolist() == b.embedded.tolist()
        assert a.ring_flat.tolist() == b.ring_flat.tolist()

    def test_partition_ignores_coordinates(self):
        base = random_mesh(3, n_max=100)
        moved = Mesh(base.vertices * 0.5, base.faces)
        a = partition(base.n_vertices, base.faces)
        b = partition(moved.n_vertices, moved.faces)
        assert a.embedded.tolist() == b.embedded.tolist()
        assert a.reference.tolist() == b.reference.tolist()


@pytest.mark.parametrize("seed", range(60))
def test_matches_independent_reimplementation(seed):
    mesh = random_mesh(seed, n_max=80)
    part = partition(mesh.n_vertices, mesh.faces)
    emb, ref, rings, unassigned = brute_partition(mesh.n_vertices, mesh.faces)
    assert part.embedded.tolist() == emb
    assert set(part.reference.tolist()) == ref
    assert set(part.unassigned.tolist()) == unassigned
    assert {k: v.tolist() for k, v in rings_of(part).items()} == rings


def test_submodule_is_not_shadowed_by_the_function():
    import types

    import rdh3d
    import rdh3d.partition as pm

    assert isinstance(pm, types.ModuleType)
    assert rdh3d.partition is pm
    assert pm.partition is partition


def test_accepts_face_list_without_a_mesh():
    part = partition(4, [[1, 2, 3]])
    assert part.embedded.tolist() == [1]
    assert part.unassigned.tolist() == [4]


@pytest.mark.parametrize("n", [2**32, 2**40])
def test_ids_beyond_32_bits_rejected_without_allocation(n):
    # pair codes pack two ids into one 64-bit word
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="32 bits"):
            partition(n, [[1, 2, 3]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("faces", [[[1, 2, 0]], [[1, 2, 5]], [[-3, 1, 2]],
                                   [[1, 2, 3], [4, 6, -1]]])
def test_face_ids_outside_the_vertices_rejected(faces):
    # the message names the first bad id in row order
    bad_id = next(i for row in faces for i in row if not 1 <= i <= 4)
    error = rf"^face index out of range: {bad_id} \(valid range 1\.\.4\)$"
    with pytest.raises(ValueError, match=error):
        partition(4, faces)


def test_partition_memory_is_bounded():
    # 90,000 vertices, 178,802 faces. Measured peaks: 9.82 MiB with one
    # sort of edges between visit ranks (the same whether the two halves
    # of the ring keys are joined by one concatenate or written into one
    # buffer in place), 11.3 MiB with the symmetric
    # adjacency of two sorts, 37.9 MiB with six directed u*N+v codes per
    # face split by divmod.
    mesh = grid_mesh(300)
    tracemalloc.start()
    try:
        partition(mesh.n_vertices, mesh.faces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# ---------------------------------------------------------------------------
# Property test against the brute-force oracle, biased toward the face
# lists that stress the dedup and the first-appearance scan.

@st.composite
def face_lists(draw):
    n = draw(st.integers(1, 24))
    vid = st.one_of(st.sampled_from([1, n]), st.integers(1, n))
    face = st.one_of(
        st.tuples(vid, vid, vid),
        st.tuples(vid, vid).flatmap(lambda ab: st.permutations([ab[0], ab[0], ab[1]])),
        vid.map(lambda a: (a, a, a)),
    )
    faces = draw(st.lists(face, max_size=30))
    if faces:
        faces += draw(st.lists(st.sampled_from(faces), max_size=8))  # duplicates
    faces = draw(st.permutations(faces))
    isolated = draw(st.integers(0, 3))  # ids above every face reference
    return n + isolated, [list(f) for f in faces]


@settings(max_examples=300, deadline=None)
@given(face_lists())
@example((3, []))                                    # no faces, isolated ids
@example((4, [[2, 2, 2], [4, 4, 4], [2, 2, 2]]))     # every face (a, a, a)
@example((3, [[2, 2, 1]]))                           # one (a, a, b) face
def test_matches_oracle_on_adversarial_face_lists(case):
    n_vertices, faces = case
    part = partition(n_vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))
    emb, ref, rings, unassigned = brute_partition(n_vertices, faces)
    assert part.embedded.tolist() == emb
    assert part.reference.tolist() == sorted(ref)
    assert part.unassigned.tolist() == sorted(unassigned)
    assert {k: v.tolist() for k, v in rings_of(part).items()} == rings
    assert part.ring_offsets.tolist()[0] == 0
    assert part.ring_offsets[-1] == part.ring_flat.size


def _unique_based_partition(n, faces):
    """The hash-dedup formulation partition() replaced, kept as an
    oracle for exact array equality (order included)."""
    faces0 = np.asarray(faces, dtype=np.int64) - 1
    u = faces0[:, [0, 1, 0, 2, 1, 2]].ravel()
    v = faces0[:, [1, 0, 2, 0, 2, 1]].ravel()
    keep = u != v
    codes = np.unique(u[keep] * n + v[keep])
    adj_flat = codes % n
    adj_off = np.searchsorted(codes // n, np.arange(n + 1))
    order = faces0.ravel()
    _, first_pos = np.unique(order, return_index=True)
    status = np.zeros(n, dtype=np.uint8)
    emb = []
    for vtx in order[np.sort(first_pos)].tolist():
        if status[vtx] == 0:
            status[vtx] = 1
            emb.append(vtx)
            status[adj_flat[adj_off[vtx]:adj_off[vtx + 1]]] = 2
    emb = np.asarray(emb, dtype=np.int64)
    rings = [adj_flat[adj_off[c]:adj_off[c + 1]] for c in emb]
    in_face = np.zeros(n, dtype=bool)
    in_face[order] = True
    return {
        "embedded": emb + 1,
        "reference": np.nonzero(status == 2)[0] + 1,
        "unassigned": np.nonzero(~in_face)[0] + 1,
        "ring_flat": np.concatenate(rings) + 1,
        "ring_offsets": np.concatenate([[0], np.cumsum([r.size for r in rings])]),
    }


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_grid_arrays_equal_unique_formulation(seed):
    rng = np.random.default_rng(seed)
    mesh = grid_mesh(40 + 10 * seed)
    faces = mesh.faces[rng.permutation(mesh.n_faces)]
    faces = np.take_along_axis(faces, rng.permuted(np.tile([0, 1, 2], (len(faces), 1)),
                                                   axis=1), axis=1)
    faces = np.vstack([faces, faces[:50]])           # duplicate faces
    faces[-10:, 1] = faces[-10:, 0]                   # degenerate faces
    n = mesh.n_vertices + 7                           # isolated vertices
    part = partition(n, faces)
    want = _unique_based_partition(n, faces)
    for name, expected in want.items():
        got = getattr(part, name)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected), name


@pytest.mark.parametrize("seed", range(4))
def test_relabelled_grid_arrays_equal_unique_formulation(seed):
    # a shuffled grid under a random permutation of its vertex ids, so
    # that the visit order and the id order disagree
    rng = np.random.default_rng(100 + seed)
    mesh = grid_mesh(30 + 10 * seed)
    relabel = np.concatenate([[0], rng.permutation(mesh.n_vertices) + 1])
    faces = relabel[mesh.faces[rng.permutation(mesh.n_faces)]]
    part = partition(mesh.n_vertices, faces)
    assert not np.array_equal(part.embedded, np.sort(part.embedded))
    want = _unique_based_partition(mesh.n_vertices, faces)
    for name, expected in want.items():
        got = getattr(part, name)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected), name


@settings(max_examples=200, deadline=None)
@given(face_lists())
@example((3, []))                                    # no faces, isolated ids
@example((4, [[2, 2, 2], [4, 4, 4], [2, 2, 2]]))     # every face (a, a, a)
def test_greedy_split_oracle_accepts_the_split_and_no_flip(case):
    # the local rule of the greedy split holds for partition's embedded
    # set and for no set one vertex away from it
    n_vertices, faces = case
    part = partition(n_vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))
    c = set(part.embedded.tolist())
    in_face = {v for face in faces for v in face}
    assert is_greedy_split(n_vertices, faces, c)
    for v in range(1, n_vertices + 1):
        flipped = c ^ {v}
        assert not is_greedy_split(n_vertices, faces, flipped)
        broken = 2 if v in c else 1 if v in in_face else 3  # dropped, from R, unassigned
        assert greedy_split_faults(n_vertices, faces, flipped) == {broken}
