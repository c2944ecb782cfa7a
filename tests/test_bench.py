from __future__ import annotations

import gc
import time

import numpy as np
import pytest

from rdh3d.bench import (
    BenchRow,
    bench_corpus,
    mean_bpv_by_m,
    run_pipeline,
)
from rdh3d.cipher import KeyMaterial, KeyRole
from rdh3d.codec import default_payload
from rdh3d.mesh_io import read_mesh_file, write_mesh_file
from rdh3d.partition import _splits, partition

from conftest import grid_mesh, random_mesh


class TestRunPipeline:
    def test_row_invariants(self):
        mesh = random_mesh(4, n_max=80, smooth=True)
        row = run_pipeline(mesh, "m4", 4, None, "ka", "kb")
        assert row.extract_error_percent == 0.0
        assert row.bpv == pytest.approx(row.embedded_bits / row.n_vertices)
        assert row.embedded_bits > 0
        assert row.hausdorff_e3 >= 0
        assert all(
            getattr(row, f) >= 0
            for f in ("t_quantize", "t_analyze", "t_encrypt", "t_embed",
                      "t_extract", "t_recover")
        )

    def test_one_partition_per_mesh(self, tmp_path, partition_calls):
        path = tmp_path / "a.off"
        write_mesh_file(path, random_mesh(5, n_max=80, smooth=True))
        mesh = read_mesh_file(path)
        for m in (2, 5, 9):
            run_pipeline(mesh, "x", m, None, "ka", "kb")
        assert len(partition_calls) == 1
        # no cache outlives its Mesh: a second parse derives its own
        run_pipeline(read_mesh_file(path), "x", 4, None, "ka", "kb")
        assert len(partition_calls) == 2

    def test_explicit_n(self):
        mesh = random_mesh(6, n_max=60, smooth=True)
        row = run_pipeline(mesh, "x", 4, 2, "ka", "kb")
        assert row.n == 2

    def test_deterministic(self):
        mesh = random_mesh(8, n_max=60)
        a = run_pipeline(mesh, "x", 3, None, "ka", "kb")
        b = run_pipeline(mesh, "x", 3, None, "ka", "kb")
        assert (a.embedded_bits, a.bpv, a.hausdorff_e3, a.snr_db) == (
            b.embedded_bits, b.bpv, b.hausdorff_e3, b.snr_db
        )


def test_default_payload_deterministic_and_not_hiding_stream():
    kw = KeyMaterial.from_passphrase("pass", KeyRole.HIDE)
    bits_a = default_payload(kw, 256)
    bits_b = default_payload(KeyMaterial.from_passphrase("pass", KeyRole.HIDE), 256)
    assert np.array_equal(bits_a, bits_b)
    hiding = kw.keystream_bits(256)
    # if these matched, embedded slots would be all zeros
    assert not np.array_equal(bits_a, hiding)
    assert default_payload(kw, 0).size == 0


class TestBenchCorpus:
    def test_failures_do_not_stop_run(self, tmp_path):
        corpus = tmp_path / "c"
        corpus.mkdir()
        write_mesh_file(corpus / "good.off", random_mesh(0, n_max=30))
        (corpus / "bad.ply").write_text("ply\nformat binary_little_endian 1.0\n")
        rows, failures = bench_corpus(corpus, [4], [None], "a", "b")
        assert len(rows) == 1
        assert len(failures) == 1
        assert "bad.ply" in failures[0][0]

    def test_one_partition_per_mesh_file(self, tmp_path, partition_calls):
        for seed in range(3):
            write_mesh_file(tmp_path / f"{seed}.off", random_mesh(seed, n_max=30))
        gc.collect()
        splits_before = set(_splits)
        rows, failures = bench_corpus(tmp_path, list(range(2, 10)), [None], "a", "b")
        assert len(rows) == 24 and not failures
        assert len(partition_calls) == 3
        # each mesh's split goes with its faces, once the recorded
        # partition() arguments let go of them
        partition_calls.clear()
        gc.collect()
        assert set(_splits) <= splits_before

    def test_first_row_pays_for_the_partition(self, tmp_path, monkeypatch):
        def slow_partition(*args):
            time.sleep(0.2)
            return partition(*args)

        monkeypatch.setattr("rdh3d.partition.partition", slow_partition)
        write_mesh_file(tmp_path / "0.off", random_mesh(0, n_max=30))
        rows, failures = bench_corpus(tmp_path, [2, 3, 4], [None], "a", "b")
        assert not failures
        assert [row.t_analyze >= 0.2 for row in rows] == [True, False, False]


def test_mean_bpv_by_m():
    rows = [
        BenchRow("a", 10, 5, 4, 3, 30, 3.0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        BenchRow("b", 10, 5, 4, 3, 50, 5.0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        BenchRow("c", 10, 5, 5, 3, 70, 7.0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ]
    assert mean_bpv_by_m(rows) == {4: 4.0, 5: 7.0}
