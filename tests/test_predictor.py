from __future__ import annotations

import json
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from rdh3d import (
    Mesh,
    QuantizedMesh,
    analyze,
    bit_length,
    choose_n,
    encrypt_mesh,
    predictor,
    quantize,
)
from rdh3d.errors import ConfigError
from rdh3d.partition import partition
from rdh3d.predictor import PredictionReport, predict_words

from conftest import empty_ring_mesh, fan_mesh, grid_mesh, random_mesh, rings_of
from oracles import (
    brute_analyze,
    brute_choose_n,
    brute_max_prefix_len,
    brute_partition,
    brute_predict_bit,
    plane_cumsum_predict_words,
)


def json_doc(rep) -> dict:
    """The report's JSON object with its arrays as Python lists, as
    json.load gives it."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in rep.to_json_dict().items()}


def one_ring_t(target, ring, m):
    """t of vertex 1 from analyze() on a fan mesh whose only embedded
    vertex is 1, with ring 2..k+1 carrying the x words `ring`.

    Every vertex shares one y and one z, so only x limits t. Words are
    placed half a unit above w / 10^m so quantize maps them back exactly.
    """
    verts = [[(w + 0.5) / 10**m, 0.5, 0.5] for w in [target, *ring]]
    k = len(ring)
    if k == 0:
        faces = [[1, 1, 1]]  # degenerate: vertex 1 embedded with an empty ring
    elif k == 1:
        faces = [[1, 2, 2]]
    else:
        faces = [[1, i, i + 1] for i in range(2, k + 1)]
    mesh = Mesh(np.array(verts), np.array(faces))
    q = quantize(mesh, m)
    assert q.magnitudes[:, 0].tolist() == [target, *ring]
    part = partition(mesh.n_vertices, mesh.faces)
    assert part.embedded.tolist() == [1]
    return int(analyze(q).ts[0])


class TestPredictBit:
    # m=4: words are below 10^4 < 2^14, so plane 13 (k = 3) is the top
    # plane that can hold a 1 and planes 15, 14 always agree.
    def test_strict_majority(self):
        # ring bits {0, 0, 1} at plane 13 predict 0
        ring = [0, 0, 8192]
        assert one_ring_t(0, ring, 4) == 16
        assert one_ring_t(8192, ring, 4) == 2
        assert brute_predict_bit(13, ring) == 0

    def test_tie_goes_to_zero(self):
        ring = [0, 8192]
        assert one_ring_t(0, ring, 4) == 16
        assert one_ring_t(8192, ring, 4) == 2
        assert brute_predict_bit(13, ring) == 0

    def test_majority_of_ones(self):
        ring = [8192, 8192, 0]
        assert one_ring_t(8192, ring, 4) == 16
        assert one_ring_t(0, ring, 4) == 2
        assert brute_predict_bit(13, ring) == 1

    def test_cow_ring_msb_is_zero(self, cow_mesh):
        # at m=6 every magnitude is far below 2^31, so the top plane of
        # the x words around vertex 1 must tally all zeros
        q = quantize(cow_mesh, 6)
        part = partition(cow_mesh.n_vertices, cow_mesh.faces)
        ring = rings_of(part)[1]
        assert ring.tolist() == [2, 3, 4, 5, 7, 8]
        ring_words = [int(q.magnitudes[v - 1, 0]) for v in ring]
        assert brute_predict_bit(q.l - 1, ring_words) == 0

    def test_all_zero_ring_runs_no_plane(self):
        # every ring word is 0, so no plane is counted and the prediction
        # is 0: t is l minus the bit length of the target, 16 - 3
        assert one_ring_t(5, [0, 0], 4) == 13
        assert brute_max_prefix_len(5, [0, 0], 16) == 13

    def test_300_member_ring(self):
        # one ring of 300 members at a fan apex; ties still go to 0
        tie = [8192] * 150 + [0] * 150
        assert one_ring_t(0, tie, 4) == 16
        assert one_ring_t(8192, tie, 4) == 2
        ones = [8192] * 151 + [0] * 149
        assert one_ring_t(8192, ones, 4) == 16
        assert one_ring_t(0, ones, 4) == 2
        ring = [int(w) for w in np.random.default_rng(3).integers(4000, 4400, 300)]
        for target in (4100, 4200, 4300, 8191):
            assert one_ring_t(target, ring, 4) == brute_max_prefix_len(target, ring, 16)


# Ring sizes at the lane edges: 255 members fit uint8 lanes, 256 need
# uint16, 65,535 fit them and 65,536 need uint32.
LANE_EDGES = (255, 256, 65_535, 65_536)


@pytest.fixture(scope="module")
def fan_partitions():
    return {spokes: fan_mesh(spokes).partition for spokes in LANE_EDGES}


def random_words(n_vertices: int, l: int, seed: int) -> np.ndarray:
    """Uniform l-bit words: each plane of a large ring counts near half."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << l, size=(n_vertices, 3), dtype=np.int64)


def fans(ring_sizes):
    """(n_vertices, faces) of disjoint closed fans whose apexes are the
    embedded vertices, in order, with rings of ring_sizes members; a size
    of 0 is an apex in one degenerate face, with an empty ring."""
    faces, apex = [], 1
    for size in ring_sizes:
        if size == 0:
            faces.append([[apex] * 3])
        else:
            rim = np.arange(apex + 1, apex + size + 1)
            faces.append(np.column_stack([np.full(size, apex), rim, np.roll(rim, -1)]))
        apex += size + 1
    return apex - 1, np.vstack(faces)


def assert_matches_reference(words, part, l):
    for n in range(1, l + 1):
        got = predict_words(words, part, l, n)
        assert got.dtype == np.int64 and got.shape == (part.n_embedded, 3)
        assert np.array_equal(got, plane_cumsum_predict_words(words, part, l, n))


class TestPredictWords:
    @pytest.mark.parametrize("spokes", LANE_EDGES)
    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_lane_edges(self, fan_partitions, spokes, m):
        # Every rim word is equal, so each of its 1 bits is counted by all
        # `spokes` members: the lane's maximum at 255 and 65,535. A lane
        # one type too narrow wraps the count to 0 at 256 and 65,536. The
        # first rim reaches plane l-1; the second leaves its top half 0.
        part = fan_partitions[spokes]
        assert part.embedded.tolist() == [1] and part.ring_flat.size == spokes
        l = bit_length(m)
        high = np.array([(1 << l) - 1, 10**m - 1, 1 << (l - 1)])
        for rim in (high, high >> (l // 2)):
            words = np.zeros((spokes + 1, 3), dtype=np.int64)
            words[1:] = rim
            for n in range(1, l + 1):
                got = predict_words(words, part, l, n)
                assert got.tolist() == [(rim >> (l - n)).tolist()]
        assert_matches_reference(random_words(spokes + 1, l, spokes), part, l)

    def test_ring_longer_than_a_block(self):
        spokes = 70_000
        assert spokes > predictor._BLOCK
        part = fan_mesh(spokes).partition
        for m in (2, 9):
            l = bit_length(m)
            assert_matches_reference(random_words(spokes + 1, l, m), part, l)

    def test_rings_across_blocks_with_empty_rings_at_the_edges(self):
        # the first block is an empty ring, two rings that fill it
        # exactly and two empty rings; a ring longer than a block is the
        # second; the third opens and closes with an empty ring
        block = predictor._BLOCK
        sizes = [0, block // 4, block - block // 4, 0, 0, block + 5, 0, 3, 5, 0]
        n_vertices, faces = fans(sizes)
        part = partition(n_vertices, faces)
        assert part.ring_offsets.tolist() == np.cumsum([0, *sizes]).tolist()
        assert part.ring_offsets[3] == block
        for m in (2, 4, 9):
            l = bit_length(m)
            assert_matches_reference(random_words(n_vertices, l, m), part, l)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_small_blocks(self, monkeypatch, block):
        # blocks of a few entries put every kind of ring, empty ones
        # included, at a block edge
        monkeypatch.setattr(predictor, "_BLOCK", block)
        for mesh in (empty_ring_mesh(), random_mesh(4, n_max=60)):
            for m in (2, 4, 9):
                q = quantize(mesh, m)
                assert_matches_reference(q.magnitudes, mesh.partition, q.l)

    def test_no_faces(self):
        mesh = Mesh(np.full((4, 3), 0.25), np.empty((0, 3), dtype=np.int64))
        assert mesh.partition.n_embedded == 0
        for m in (2, 4, 9):
            q = quantize(mesh, m)
            assert_matches_reference(q.magnitudes, mesh.partition, q.l)
            assert analyze(q).ts.size == 0

    def test_only_empty_rings(self):
        mesh = Mesh(np.full((3, 3), 0.25), np.array([[1, 1, 1], [3, 3, 3]]))
        assert mesh.partition.embedded.tolist() == [1, 3]
        assert mesh.partition.ring_flat.size == 0
        q = quantize(mesh, 9)
        assert predict_words(q.magnitudes, mesh.partition, q.l, q.l).tolist() == [[0] * 3] * 2
        assert analyze(q).ts.tolist() == [0, 0]


def pruned_plane_fans(l: int, seed: int):
    """A QuantizedMesh of disjoint fans (see fans) whose apexes' t runs
    over 0..l. Each fan is one of: a rim that carries the apex's word
    (t = l), that word with one plane flipped on one axis (the prefix
    ends at that plane), or random words of a random bit length (so
    blocks of rings differ in their largest word); an apex word of any
    bit length, some rings empty."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 7, 60)
    n_vertices, faces = fans(sizes)
    words = np.zeros((n_vertices, 3), dtype=np.int64)
    apex = 0
    for size in sizes:
        kind = rng.integers(3)
        words[apex] = rng.integers(0, 1 << rng.integers(0, l + 1), 3)
        rim = slice(apex + 1, apex + size + 1)
        if kind < 2:
            words[rim] = words[apex]
            if kind == 1:
                words[rim, rng.integers(3)] ^= 1 << int(rng.integers(l))
        else:
            words[rim] = rng.integers(0, 1 << rng.integers(0, l + 1), (size, 3))
        apex += size + 1
    m = {8: 2, 16: 4, 32: 9}[l]
    return QuantizedMesh(words, np.zeros_like(words, dtype=np.uint8), m, faces)


class TestPrunedPlanes:
    """predict_words skips the planes above each block's largest ring
    word and below l-n, and analyze stops counting a ring below its
    first mispredicted plane; both give the references' results."""

    @pytest.mark.parametrize("block", [1, 4, 16, 8192])
    @pytest.mark.parametrize("l", [8, 16, 32])
    def test_blocks_of_different_widths(self, monkeypatch, block, l):
        monkeypatch.setattr(predictor, "_BLOCK", block)
        for seed in range(3):
            q = pruned_plane_fans(l, seed)
            part = q.partition
            tops = {int(w).bit_length() for w in q.magnitudes[part.ring_flat - 1].max(axis=1)}
            assert len(tops) > 3
            assert_matches_reference(q.magnitudes, part, l)
            emb, _, rings, _ = brute_partition(q.n_vertices, q.faces)
            assert emb == part.embedded.tolist()
            ts, curve = brute_analyze(q.magnitudes.tolist(), emb, rings, l)
            rep = analyze(q)
            assert rep.ts.tolist() == ts
            assert rep.capacity_curve.tolist() == curve
            assert {0, l} <= set(ts) and len(set(ts)) > l // 2

    @pytest.mark.parametrize("l", [8, 16, 32])
    def test_every_window_runs(self, monkeypatch, l):
        # every ring carries its apex's word, so no window ends a ring
        # early: t = l for each nonempty ring, 0 for each empty one
        q = pruned_plane_fans(l, 7)
        words = q.magnitudes.copy()
        part = q.partition
        offsets = part.ring_offsets
        words[part.embedded - 1] |= 1 << (l - 1)  # the top window holds plane l-1
        for i, apex in enumerate(part.embedded - 1):
            words[part.ring_flat[offsets[i]:offsets[i + 1]] - 1] = words[apex]
        q = QuantizedMesh(words, q.signs, q.m, q.faces)
        windows = []
        majority = predictor._majority

        def counting(ring_words, offsets, lo, hi):
            windows.append((lo, hi))
            return majority(ring_words, offsets, lo, hi)

        monkeypatch.setattr(predictor, "_majority", counting)
        rep = analyze(q)
        emb, _, rings, _ = brute_partition(q.n_vertices, q.faces)
        assert rep.ts.tolist() == brute_analyze(words.tolist(), emb, rings, l)[0]
        assert rep.ts.tolist() == [l if rings[v] else 0 for v in emb]
        assert sorted(windows) == [(max(0, hi - 8), hi) for hi in range(8, l + 1, 8)]


def test_predict_words_memory_is_bounded(monkeypatch):
    # About 240,000 ring entries, 30 blocks. Measured peaks at m=9:
    # 2.5 MiB in blocks, 58.3 MiB in one block, 20.1 MiB for the
    # per-plane reference.
    bound = 8 * 2**20
    mesh = grid_mesh(400)
    q = quantize(mesh, 9)
    part = mesh.partition

    def peak():
        tracemalloc.start()
        try:
            predict_words(q.magnitudes, part, q.l, q.l)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < bound
    monkeypatch.setattr(predictor, "_BLOCK", part.ring_flat.size)
    assert peak() > bound  # the bound tells blocks from one block


class TestMaxPrefixLen:
    def test_identical_ring_gives_full_length(self):
        assert one_ring_t(2888, [2888, 2888, 2888], 4) == 16

    def test_empty_ring_gives_zero(self):
        assert one_ring_t(0, [], 4) == 0
        assert one_ring_t(8192, [], 4) == 0

    def test_worked_example_value_16(self, cow_mesh):
        # reconstruction of the m=6 worked example: the x word of vertex 1
        # with a ring agreeing on exactly the top 16 planes gives t1 = 16
        q = quantize(cow_mesh, 6)
        target = int(q.magnitudes[0, 0])
        assert target == 180757
        ring_word = target ^ (1 << 15)
        ring = [ring_word, ring_word, ring_word]
        assert brute_max_prefix_len(target, ring, 32) == 16
        assert one_ring_t(target, ring, 6) == 16

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_plane_by_plane_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.choice([2, 4, 6]))
        l = {2: 8, 4: 16, 6: 32}[m]
        target = int(rng.integers(0, 10**m))
        ring = [int(w) for w in rng.integers(0, 10**m, size=rng.integers(1, 9))]
        assert one_ring_t(target, ring, m) == brute_max_prefix_len(target, ring, l)


class TestAnalyze:
    def test_identical_magnitudes_full_capacity(self):
        n_verts = 9
        verts = np.full((n_verts, 3), 0.123456)
        rng = np.random.default_rng(1)
        faces = rng.integers(1, n_verts + 1, size=(12, 3))
        mesh = Mesh(verts, faces)
        q = quantize(mesh, 4)
        part = partition(mesh.n_vertices, mesh.faces)
        rep = analyze(q)
        k = part.n_embedded
        degenerate = {f[0] for f in mesh.faces.tolist() if len(set(f)) == 1}
        if not degenerate & set(part.embedded.tolist()):
            assert (rep.ts == q.l).all()
            expected = [3 * n * k for n in range(1, q.l + 1)]
            assert rep.capacity_curve.tolist() == expected

    def test_excluded_monotone_and_formula(self):
        mesh = random_mesh(5, n_max=100)
        q = quantize(mesh, 5)
        part = partition(mesh.n_vertices, mesh.faces)
        rep = analyze(q)
        k = part.n_embedded
        prev = -1
        for n in range(1, q.l + 1):
            exc = int((rep.ts < n).sum())
            assert exc >= prev
            prev = exc
            assert rep.capacity_curve[n - 1] == 3 * n * (k - exc)

    def test_curve_zero_past_max_t(self):
        mesh = random_mesh(9, n_max=100)
        q = quantize(mesh, 4)
        rep = analyze(q)
        if rep.ts.size:
            t_max = int(rep.ts.max())
            assert (rep.capacity_curve[t_max:] == 0).all()

    def test_unchanged_by_encryption(self, ke):
        mesh = random_mesh(2, n_max=60)
        q = quantize(mesh, 4)
        before = analyze(q)
        encrypt_mesh(q, ke)  # must not mutate q
        after = analyze(q)
        assert np.array_equal(before.ts, after.ts)
        assert np.array_equal(before.capacity_curve, after.capacity_curve)

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_matches_brute_force(self, seed, m):
        mesh = random_mesh(seed, n_min=4, n_max=30)
        q = quantize(mesh, m)
        rep = analyze(q)
        emb, _, rings, _ = brute_partition(mesh.n_vertices, mesh.faces)
        ts, curve = brute_analyze(q.magnitudes.tolist(), emb, rings, q.l)
        assert rep.ts.tolist() == ts
        assert rep.capacity_curve.tolist() == curve

    @pytest.mark.parametrize("mesh", [fan_mesh(300), empty_ring_mesh()],
                             ids=["300-spoke-fan", "empty-rings"])
    @pytest.mark.parametrize("m", [2, 4, 6, 9])
    def test_edge_meshes_match_brute_force(self, mesh, m):
        q = quantize(mesh, m)
        emb, _, rings, _ = brute_partition(mesh.n_vertices, mesh.faces)
        ts, curve = brute_analyze(q.magnitudes.tolist(), emb, rings, q.l)
        rep = analyze(q)
        assert rep.ts.tolist() == ts
        assert rep.capacity_curve.tolist() == curve

    def test_json_round_trip(self):
        mesh = random_mesh(4, n_max=40)
        q = quantize(mesh, 3)
        rep = analyze(q)
        back = PredictionReport.from_json_dict(json_doc(rep))
        assert np.array_equal(back.ts, rep.ts)
        assert np.array_equal(back.capacity_curve, rep.capacity_curve)
        assert (back.m, back.l) == (rep.m, rep.l)

    def test_json_round_trip_without_faces(self):
        mesh = Mesh(np.full((3, 3), 0.25), np.empty((0, 3)))
        doc = json.loads(json.dumps(json_doc(analyze(quantize(mesh, 4)))))
        assert doc["embedded"] == doc["max_prefix_lengths"] == []
        back = PredictionReport.from_json_dict(doc)
        assert (back.ts.size, back.embedded.size, back.m) == (0, 0, 4)

    @pytest.mark.parametrize("key, value", [
        ("m", 4.0), ("m", "4"), ("l", 16.0), ("l", True),
        ("max_prefix_lengths", "tamper"), ("embedded", "tamper"),
        ("capacity_curve", "tamper"),
    ])
    def test_json_non_integer_rejected(self, key, value):
        mesh = random_mesh(4, n_max=40, smooth=True)
        doc = json_doc(analyze(quantize(mesh, 4)))
        if value == "tamper":
            value = [float(doc[key][0]), *doc[key][1:]]
        doc[key] = value
        with pytest.raises(ConfigError, match=f"{key} must hold JSON integers"):
            PredictionReport.from_json_dict(doc)

    @pytest.mark.parametrize("tamper", ["inflated", "zeroed", "raised_first",
                                        "short", "nested"])
    def test_json_curve_contradicting_ts_rejected(self, tamper):
        mesh = random_mesh(4, n_max=40, smooth=True)
        doc = json_doc(analyze(quantize(mesh, 4)))
        curve = doc["capacity_curve"]
        assert max(curve) > 0
        doc["capacity_curve"] = {
            "inflated": [10 * c for c in curve],
            "zeroed": [0] * len(curve),
            "raised_first": [max(curve) + 1] + curve[1:],
            "short": curve[:-1],
            "nested": [curve],
        }[tamper]
        with pytest.raises(ConfigError, match="capacity_curve contradicts"):
            PredictionReport.from_json_dict(doc)

    @pytest.mark.parametrize("key", ["max_prefix_lengths", "embedded"])
    @pytest.mark.parametrize("shape", ["nested", "scalar"])
    def test_json_lists_that_are_not_flat_rejected(self, key, shape):
        mesh = random_mesh(4, n_max=40, smooth=True)
        doc = json_doc(analyze(quantize(mesh, 4)))
        doc[key] = [doc[key]] if shape == "nested" else doc[key][0]
        with pytest.raises(ConfigError, match="expected flat lists"):
            PredictionReport.from_json_dict(doc)

    def test_arrays_are_read_only(self):
        # editing ts after the curve was derived would write a report that
        # from_json_dict rejects
        rep = analyze(quantize(grid_mesh(20), 4))
        curve = rep.capacity_curve
        for arr in (rep.ts, rep.embedded, curve):
            with pytest.raises(ValueError, match="read-only"):
                arr[:] = 0
        with pytest.raises(FrozenInstanceError):
            rep.ts = rep.ts[:1]
        back = PredictionReport.from_json_dict(json_doc(rep))
        assert np.array_equal(back.capacity_curve, curve)

    @pytest.mark.parametrize("t", [-1, 17])
    def test_json_t_outside_word_rejected(self, t):
        mesh = random_mesh(4, n_max=40, smooth=True)
        doc = json_doc(analyze(quantize(mesh, 4)))
        doc["max_prefix_lengths"][0] = t
        with pytest.raises(ConfigError, match="in 0..16"):
            PredictionReport.from_json_dict(doc)

    @pytest.mark.parametrize("l", [8, 32, 64])
    def test_json_l_contradicting_m_rejected(self, l):
        mesh = random_mesh(4, n_max=40)
        doc = json_doc(analyze(quantize(mesh, 4)))
        assert doc["l"] == 16
        doc["l"] = l
        with pytest.raises(ConfigError, match="contradicts m=4"):
            PredictionReport.from_json_dict(doc)


class TestReportConstruction:
    def test_short_ts_rejected(self):
        rep = analyze(quantize(grid_mesh(10), 4))
        with pytest.raises(ConfigError, match=f"{rep.ts.size - 1} t values for "
                                              f"{rep.embedded.size} embedded vertices"):
            PredictionReport(ts=rep.ts[:-1], m=4, embedded=rep.embedded)

    @pytest.mark.parametrize("t", [-1, 17])
    def test_t_outside_word_rejected(self, t):
        with pytest.raises(ConfigError, match=r"t values must lie in 0\.\.16"):
            PredictionReport(ts=np.array([3, t]), m=4, embedded=np.array([1, 2]))

    def test_m_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="precision m=10"):
            PredictionReport(ts=np.array([0]), m=10, embedded=np.array([1]))

    def test_short_json_ts_rejected(self):
        doc = json_doc(analyze(quantize(grid_mesh(10), 4)))
        doc["max_prefix_lengths"] = doc["max_prefix_lengths"][:-1]
        with pytest.raises(ConfigError, match="t values for"):
            PredictionReport.from_json_dict(doc)


class TestChooseN:
    def test_single_peak(self):
        rep = PredictionReport(ts=np.array([16] * 10), m=5, embedded=np.arange(1, 11))
        assert rep.capacity_curve.argmax() == 15
        assert choose_n(rep) == 16

    def test_all_equal_tie_breaks_small(self):
        # an all-zero curve, and a curve whose maximum 6 sits at n=1 and n=2
        for ts in ([0], [1, 2]):
            rep = PredictionReport(ts=np.array(ts), m=4, embedded=np.arange(1, len(ts) + 1))
            assert rep.capacity_curve[0] == rep.capacity_curve.max()
            assert choose_n(rep) == 1

    def test_requested_passthrough_and_validation(self):
        mesh = random_mesh(1, n_max=40)
        q = quantize(mesh, 4)
        rep = analyze(q)
        assert choose_n(rep, 7) == 7
        with pytest.raises(ConfigError):
            choose_n(rep, 0)
        with pytest.raises(ConfigError):
            choose_n(rep, q.l + 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_linear_scan(self, seed):
        mesh = random_mesh(seed, n_max=60)
        q = quantize(mesh, 5)
        rep = analyze(q)
        assert choose_n(rep) == brute_choose_n(rep.capacity_curve.tolist())


def test_recoverability_guarantee():
    # for every embedded vertex and every k <= t, re-predicting plane
    # l-k from the ring reproduces the true bit
    mesh = random_mesh(21, n_max=80, smooth=True)
    q = quantize(mesh, 4)
    part = partition(mesh.n_vertices, mesh.faces)
    rep = analyze(q)
    rings = rings_of(part)
    for i, cv in enumerate(part.embedded.tolist()):
        t = int(rep.ts[i])
        ring = rings[cv]
        if ring.size == 0:
            assert t == 0
            continue
        for axis in range(3):
            words = [int(q.magnitudes[v - 1, axis]) for v in ring]
            target = int(q.magnitudes[cv - 1, axis])
            for k in range(1, t + 1):
                u = q.l - k
                assert brute_predict_bit(u, words) == (target >> u) & 1
