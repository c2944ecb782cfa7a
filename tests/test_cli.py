from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdh3d import (
    KeyMaterial,
    KeyRole,
    Mesh,
    analyze,
    choose_n,
    dequantize,
    encrypt_mesh,
    parse_mesh,
    quantize,
    read_container_file,
    read_mesh_file,
    write_container,
)
from rdh3d import cli
from rdh3d.cli import main
from rdh3d.mesh_io import write_mesh, write_mesh_file

from conftest import COW_FACES, COW_VERTICES, cow_off_text, grid_mesh, random_mesh
from oracles import snr_db


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("RDH3D_KE_PASS", raising=False)
    monkeypatch.delenv("RDH3D_KW_PASS", raising=False)


@pytest.fixture
def workdir(tmp_path):
    mesh_path = tmp_path / "cow.off"
    mesh_path.write_text(cow_off_text())
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestPipelineCommands:
    def test_full_round_trip(self, workdir, capsys):
        mesh_path = workdir / "cow.off"
        report = workdir / "report.json"
        enc = workdir / "enc.rdh3d"
        marked = workdir / "marked.rdh3d"
        payload_in = workdir / "payload.bin"
        payload_out = workdir / "payload.out"
        recovered = workdir / "rec.off"

        assert run("analyze", mesh_path, "--m", 4, "--out", report) == 0
        doc = json.loads(report.read_text())
        assert doc["m"] == 4 and doc["l"] == 16
        assert len(doc["capacity_curve"]) == 16
        assert doc["chosen_n"] >= 1

        assert run("encrypt", mesh_path, "--m", 4,
                   "--ke-pass", "alpha", "--out", enc) == 0
        c = read_container_file(enc)
        assert c.payload_bits == 0 and (c.excluded == 1).all()

        cap = doc["capacity_curve"][doc["chosen_n"] - 1]
        payload_in.write_bytes(bytes(range(cap // 8)))
        assert run("embed", enc, "--report", report, "--payload", payload_in,
                   "--kw-pass", "beta", "--out", marked) == 0

        assert run("extract", marked, "--kw-pass", "beta",
                   "--out", payload_out) == 0
        assert payload_out.read_bytes() == payload_in.read_bytes()

        assert run("recover", marked, "--ke-pass", "alpha",
                   "--out", recovered) == 0
        original = parse_mesh(mesh_path.read_text(), "off")
        got = parse_mesh(recovered.read_text(), "off")
        assert got == dequantize(quantize(original, 4))
        assert np.abs(got.vertices - original.vertices).max() < 1e-4

    def test_deterministic_containers(self, workdir):
        mesh_path = workdir / "cow.off"
        a, b = workdir / "a.rdh3d", workdir / "b.rdh3d"
        for out in (a, b):
            assert run("encrypt", mesh_path, "--m", 5,
                       "--ke-pass", "s3cret", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_payload_and_separation(self, workdir, monkeypatch):
        mesh_path = workdir / "cow.off"
        report = workdir / "report.json"
        enc = workdir / "enc.rdh3d"
        marked = workdir / "marked.rdh3d"
        out_bits = workdir / "payload.out"
        recovered = workdir / "rec.obj"

        monkeypatch.setenv("RDH3D_KE_PASS", "env-ke")
        monkeypatch.setenv("RDH3D_KW_PASS", "env-kw")
        assert run("analyze", mesh_path, "--m", 4, "--out", report) == 0
        assert run("encrypt", mesh_path, "--m", 4, "--out", enc) == 0
        assert run("embed", enc, "--report", report, "--out", marked) == 0
        # case 1: hiding passphrase alone
        monkeypatch.delenv("RDH3D_KE_PASS")
        assert run("extract", marked, "--out", out_bits) == 0
        # case 2: encryption passphrase alone
        monkeypatch.delenv("RDH3D_KW_PASS")
        assert run("recover", marked, "--ke-pass", "env-ke",
                   "--out", recovered) == 0
        original = parse_mesh(mesh_path.read_text(), "off")
        got = parse_mesh(recovered.read_text(), "obj")
        assert got == dequantize(quantize(original, 4))

    def test_flag_wins_over_env(self, workdir, monkeypatch):
        mesh_path = workdir / "cow.off"
        a, b = workdir / "a.rdh3d", workdir / "b.rdh3d"
        monkeypatch.setenv("RDH3D_KE_PASS", "env-pass")
        assert run("encrypt", mesh_path, "--m", 4, "--out", a) == 0
        monkeypatch.setenv("RDH3D_KE_PASS", "other")
        assert run("encrypt", mesh_path, "--m", 4,
                   "--ke-pass", "env-pass", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_export_off(self, workdir):
        mesh_path = workdir / "cow.off"
        enc = workdir / "enc.rdh3d"
        vis = workdir / "enc_vis.off"
        assert run("encrypt", mesh_path, "--m", 4, "--ke-pass", "a",
                   "--out", enc, "--export-off", vis) == 0
        exported = parse_mesh(vis.read_text(), "off")
        c = read_container_file(enc)
        assert exported.n_vertices == c.n_vertices
        assert (np.abs(exported.vertices) == c.magnitudes.astype(np.float64)).all()

    def test_recover_tiny_coordinates_at_m9(self, workdir):
        """recover writes the words of the recovered mesh; its bytes are
        those of the dequantized mesh, exponent-form values below 1e-4
        included, in every format."""
        grid = grid_mesh(12)
        mesh_path, report = workdir / "tiny.off", workdir / "report.json"
        enc, marked = workdir / "enc.rdh3d", workdir / "marked.rdh3d"
        write_mesh_file(mesh_path, Mesh(grid.vertices * 1e-3, grid.faces))
        assert run("analyze", mesh_path, "--m", 9, "--out", report) == 0
        assert run("encrypt", mesh_path, "--m", 9, "--ke-pass", "a", "--out", enc) == 0
        assert run("embed", enc, "--report", report, "--kw-pass", "b", "--out", marked) == 0
        expected = dequantize(quantize(parse_mesh(mesh_path.read_bytes(), "off"), 9))
        assert (np.abs(expected.vertices) < 1e-4).any()
        for fmt in ("off", "obj", "ply"):
            got, want = workdir / f"rec.{fmt}", workdir / f"want.{fmt}"
            assert run("recover", marked, "--ke-pass", "a", "--out", got) == 0
            write_mesh_file(want, expected)
            assert got.read_bytes() == want.read_bytes()

    def test_export_off_bytes(self, workdir):
        """Both exports are the container's mesh as write_mesh prints it."""
        mesh_path, report = workdir / "cow.off", workdir / "report.json"
        enc, marked = workdir / "enc.rdh3d", workdir / "marked.rdh3d"
        assert run("analyze", mesh_path, "--m", 4, "--out", report) == 0
        assert run("encrypt", mesh_path, "--m", 4, "--ke-pass", "a",
                   "--out", enc, "--export-off", workdir / "enc.off") == 0
        assert run("embed", enc, "--report", report, "--kw-pass", "b",
                   "--out", marked, "--export-off", workdir / "marked.off") == 0
        for container in (enc, marked):
            expected = write_mesh(read_container_file(container).coordinates(), "off")
            assert container.with_suffix(".off").read_bytes() == expected.encode()

    def test_analyze_to_stdout(self, workdir, capsys):
        assert run("analyze", workdir / "cow.off", "--m", 3) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["l"] == 16

    def test_analyze_faceless_mesh_has_no_capacity(self, workdir, capsys):
        faceless = workdir / "points.off"
        faceless.write_text("OFF\n2 0 0\n0.1 0.2 0.3\n0.2 0.3 0.4\n")
        assert run("analyze", faceless, "--m", 4) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["embedded"] == []
        assert all(v == 0 for v in doc["capacity_curve"])


class TestExitCodes:
    def test_usage_error_no_command(self):
        assert main([]) == 2

    def test_missing_passphrase(self, workdir):
        assert run("encrypt", workdir / "cow.off", "--m", 4,
                   "--out", workdir / "x.rdh3d") == 2

    def test_bad_m(self, workdir):
        assert run("analyze", workdir / "cow.off", "--m", 99) == 2

    def test_parse_error(self, workdir):
        bad = workdir / "bad.off"
        bad.write_text("not a mesh\n")
        assert run("analyze", bad, "--m", 4) == 3

    def test_bare_ply_property_line(self, workdir, capsys):
        bad = workdir / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty\n"
                       "end_header\n0 0 0\n")
        assert run("analyze", bad, "--m", 4) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("edges.off", "OFF\n3 1 -5\n0 0 0\n0.1 0 0\n0 0.1 0\n3 0 1 2\n"),
        ("faces.ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
                      "property double y\nproperty double z\nelement face 1\n"
                      "property list vertex_indices\nend_header\n"
                      "0 0 0\n0.1 0 0\n0 0.1 0\n3 0 1 2\n"),
    ], ids=["negative OFF edge count", "PLY face list without types"])
    def test_malformed_header(self, workdir, capsys, name, text):
        bad = workdir / name
        bad.write_text(text)
        assert run("analyze", bad, "--m", 4) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "Traceback" not in err

    @pytest.mark.parametrize("text, error", [
        (b"v 0 0 0\nv \r0.5 0 0\nv 0 0.5 0\nf 1 2 3\n", "line 2: expected 'v x y z'"),
        (b"v 0 0 0\nv 0.5 0 0\nv 0 0.5 0\nf \r1 2 3\n",
         "line 4: only triangle faces"),
    ], ids=["after v", "after f"])
    def test_obj_lone_carriage_return(self, workdir, capsys, text, error):
        bad = workdir / "bad.obj"
        bad.write_bytes(text)
        assert run("analyze", bad, "--m", 4) == 3
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize("coordinate", ["0.1_2", "0.1\u0662"])
    def test_number_outside_the_rule(self, workdir, capsys, coordinate):
        bad = workdir / "bad.off"
        bad.write_text(f"OFF\n3 1 0\n{coordinate} 0 0\n0 0.1 0\n-0.1 0 0\n3 0 1 2\n")
        assert run("analyze", bad, "--m", 4) == 3
        assert capsys.readouterr().err.startswith("error: line 3: non-numeric coordinate")

    def test_domain_error(self, workdir):
        big = workdir / "big.off"
        big.write_text("OFF\n1 0 0\n1.5 0 0\n")
        assert run("analyze", big, "--m", 4) == 3

    def test_capacity_error(self, workdir):
        mesh_path = workdir / "cow.off"
        report = workdir / "report.json"
        enc = workdir / "enc.rdh3d"
        huge = workdir / "huge.bin"
        huge.write_bytes(bytes(1000))
        assert run("analyze", mesh_path, "--m", 4, "--out", report) == 0
        assert run("encrypt", mesh_path, "--m", 4, "--ke-pass", "a",
                   "--out", enc) == 0
        assert run("embed", enc, "--report", report, "--payload", huge,
                   "--kw-pass", "b", "--out", workdir / "m.rdh3d") == 4

    def test_corruption_error(self, workdir):
        mesh_path = workdir / "cow.off"
        enc = workdir / "enc.rdh3d"
        assert run("encrypt", mesh_path, "--m", 4, "--ke-pass", "a",
                   "--out", enc) == 0
        truncated = workdir / "trunc.rdh3d"
        truncated.write_bytes(enc.read_bytes()[:-3])
        assert run("recover", truncated, "--ke-pass", "a",
                   "--out", workdir / "r.off") == 5

    def test_corrupt_face_table_exits_5(self, workdir, capsys):
        enc = workdir / "enc.rdh3d"
        assert run("encrypt", workdir / "cow.off", "--m", 4, "--ke-pass", "a",
                   "--out", enc) == 0
        bad = workdir / "bad.rdh3d"
        bad.write_bytes(enc.read_bytes()[:-4] + (len(COW_VERTICES) + 1).to_bytes(4, "little"))
        capsys.readouterr()
        assert run("recover", bad, "--ke-pass", "a", "--out", workdir / "r.off") == 5
        assert capsys.readouterr().err == (
            "error: face index out of range: 9 (valid range 1..8)\n")

    def test_report_for_another_mesh(self, workdir):
        # same vertices and |C| = 1, but vertex labels 1 and 2 swapped in
        # the faces: the report's embedded vertex is 2, the container's 1
        swap = np.array([0, 2, 1, 3, 4, 5, 6, 7, 8])
        other = workdir / "other.off"
        write_mesh_file(other, Mesh(COW_VERTICES, swap[COW_FACES]))
        report = workdir / "other.json"
        enc = workdir / "enc.rdh3d"
        assert run("analyze", other, "--m", 4, "--out", report) == 0
        assert json.loads(report.read_text())["embedded"] == [2]
        assert run("encrypt", workdir / "cow.off", "--m", 4, "--ke-pass", "a",
                   "--out", enc) == 0
        assert read_container_file(enc).excluded.size == 1
        out = workdir / "m.rdh3d"
        assert run("embed", enc, "--report", report,
                   "--kw-pass", "b", "--out", out) == 2
        assert not out.exists()

    def test_missing_file(self, workdir):
        assert run("extract", workdir / "nope.rdh3d", "--kw-pass", "b",
                   "--out", workdir / "p.bin") == 2


@pytest.mark.parametrize("m", [2, 5, 9])
def test_library_encrypt_is_cli_encrypt(tmp_path, m):
    mesh = grid_mesh(20)
    mesh_path, enc = tmp_path / "grid.off", tmp_path / "enc.rdh3d"
    write_mesh_file(mesh_path, mesh)
    assert run("encrypt", mesh_path, "--m", m, "--ke-pass", "alpha", "--out", enc) == 0
    q = quantize(parse_mesh(mesh_path.read_text(), "off"), m)
    ke = KeyMaterial.from_passphrase("alpha", KeyRole.ENCRYPT)
    c = encrypt_mesh(q, ke)
    assert c == read_container_file(enc)
    assert write_container(c) == enc.read_bytes()


def test_one_partition_per_command(workdir, partition_calls):
    mesh_path = workdir / "cow.off"
    report, enc, marked = (workdir / name for name in ("r.json", "e.rdh3d", "m.rdh3d"))
    commands = [
        ("analyze", mesh_path, "--m", 4, "--out", report),
        ("encrypt", mesh_path, "--m", 4, "--ke-pass", "a", "--out", enc),
        ("embed", enc, "--report", report, "--kw-pass", "b", "--out", marked),
        ("extract", marked, "--kw-pass", "b", "--out", workdir / "p.bin"),
        ("recover", marked, "--ke-pass", "a", "--out", workdir / "r.off"),
    ]
    for argv in commands:
        before = len(partition_calls)
        assert run(*argv) == 0
        assert len(partition_calls) - before == 1, argv[0]


class TestMetricsCommand:
    def test_json_output(self, workdir, capsys):
        a = workdir / "a.off"
        b = workdir / "b.off"
        mesh = random_mesh(1, n_max=30)
        write_mesh_file(a, mesh)
        moved = dequantize(quantize(mesh, 3))
        write_mesh_file(b, moved)
        assert run("metrics", a, b) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hausdorff"] >= 0
        assert isinstance(doc["snr_db"], float)

    def test_recovered_grid_snr_matches_oracle(self, tmp_path, capsys):
        mesh, rep, enc, marked, rec = (
            tmp_path / name for name in
            ("mesh.off", "rep.json", "enc.rdh3d", "marked.rdh3d", "rec.off"))
        write_mesh_file(mesh, grid_mesh(120))
        assert run("analyze", mesh, "--m", 4, "--out", rep) == 0
        assert run("encrypt", mesh, "--m", 4, "--ke-pass", "a", "--out", enc) == 0
        assert run("embed", enc, "--report", rep, "--kw-pass", "b",
                   "--out", marked) == 0
        assert run("recover", marked, "--ke-pass", "a", "--out", rec) == 0
        capsys.readouterr()
        assert run("metrics", mesh, rec) == 0
        printed = json.loads(capsys.readouterr().out)["snr_db"]
        expected = snr_db(read_mesh_file(mesh).vertices, read_mesh_file(rec).vertices)
        assert printed == pytest.approx(expected, rel=1e-9)
        assert printed > 40

    def test_identical_meshes_inf_snr(self, workdir, capsys):
        a = workdir / "cow.off"
        assert run("metrics", a, a) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["snr_db"] == "inf"
        assert doc["hausdorff"] == 0

    def test_vertex_count_mismatch_before_hausdorff(self, workdir, capsys, monkeypatch):
        def not_computed(*args, **kwargs):
            raise AssertionError("vertex counts are checked before any distance")

        monkeypatch.setattr(cli, "hausdorff", not_computed)
        smaller = workdir / "smaller.off"
        write_mesh_file(smaller, Mesh(COW_VERTICES[:3], [[1, 2, 3]]))
        assert run("metrics", workdir / "cow.off", smaller) == 3
        assert "vertex count mismatch: 8 vs 3" in capsys.readouterr().err


def _dumped(doc: dict) -> str:
    """json.dumps(doc, indent=2) and a newline, with doc's arrays as lists."""
    return json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                       for k, v in doc.items()}, indent=2) + "\n"


def _printed(doc: dict) -> str:
    return "".join(cli._json_chunks(doc))


# Nonnegative integers, often at the edges where their digit count changes.
_REPORT_INTS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2**32 - 1] + [10**k - d for k in range(1, 10) for d in (0, 1)]),
)
_REPORT_LISTS = ("embedded", "max_prefix_lengths", "capacity_curve")
_REPORT_SCALARS = ("m", "l", "best_n", "chosen_n", "n_vertices", "n_faces")


@st.composite
def report_docs(draw):
    """An analyze report's keys in any order: int64 arrays of nonnegative
    integers (empty ones included) and integer scalars."""
    doc = {}
    for key in draw(st.permutations(_REPORT_LISTS + _REPORT_SCALARS)):
        doc[key] = (np.array(draw(st.lists(_REPORT_INTS, max_size=12)), np.int64)
                    if key in _REPORT_LISTS else draw(_REPORT_INTS))
    return doc


class TestReportPrinter:
    """The analyze report is printed from digit matrices and is byte for
    byte json.dumps(doc, indent=2) + "\n"."""

    @settings(max_examples=200, deadline=None)
    @given(doc=report_docs(), items=st.integers(1, 5))
    def test_bytes_equal_json_dumps(self, doc, items):
        # a few items per chunk, so that chunk edges fall inside the lists
        with mock.patch.object(cli, "_JSON_ITEMS", items):
            assert _printed(doc) == _dumped(doc)

    @pytest.mark.parametrize("values", [
        [],
        [0],
        [7],
        [0, 0, 0],
        [9, 10, 99, 100, 999, 1000, 0, 1],
        [10**9 - 1, 10**9, 2**32 - 1, 1],
    ], ids=["empty", "zero", "single", "zeros", "powers of ten", "2^32-1"])
    def test_edge_lists(self, values):
        arr = np.array(values, np.int64)
        doc = {"m": 4, "embedded": arr, "capacity_curve": arr[::-1], "n_faces": 0}
        assert _printed(doc) == _dumped(doc)

    @pytest.mark.parametrize("mesh", ["cow", "faceless"])
    def test_analyze_report_bytes(self, workdir, capsys, mesh):
        """analyze --out and analyze to stdout give the bytes of json.dumps
        of the report the library computes."""
        path = workdir / "cow.off"
        if mesh == "faceless":
            path = workdir / "points.off"
            path.write_text("OFF\n2 0 0\n0.1 0.2 0.3\n0.2 0.3 0.4\n")
        out = workdir / "report.json"
        assert run("analyze", path, "--m", 4, "--out", out) == 0
        assert run("analyze", path, "--m", 4) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        parsed = parse_mesh(path.read_bytes(), "off")
        rep = analyze(quantize(parsed, 4))
        doc = rep.to_json_dict()
        doc.update(chosen_n=choose_n(rep), n_vertices=parsed.n_vertices,
                   n_faces=parsed.n_faces)
        assert out.read_bytes() == _dumped(doc).encode()
        assert (mesh == "faceless") == (doc["embedded"].size == 0)

    def test_arrays_are_the_reports_own(self):
        rep = analyze(quantize(grid_mesh(10), 4))
        doc = rep.to_json_dict()
        assert doc["embedded"] is rep.embedded
        assert doc["max_prefix_lengths"] is rep.ts
        assert doc["capacity_curve"] is rep.capacity_curve
        assert _printed(doc) == _dumped(doc)

    def test_metrics_report_bytes(self, workdir, capsys):
        a, b = workdir / "a.off", workdir / "b.off"
        mesh = random_mesh(1, n_max=30)
        write_mesh_file(a, mesh)
        write_mesh_file(b, dequantize(quantize(mesh, 3)))
        for other in (a, b):  # an infinite and a finite SNR
            assert run("metrics", a, other) == 0
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestBenchCommand:
    def test_small_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(2):
            write_mesh_file(corpus / f"mesh{seed}.off", random_mesh(seed, n_max=40))
        (corpus / "broken.off").write_text("OFF\nnot numbers\n")
        out = tmp_path / "rows.csv"
        assert run("bench", corpus, "--m", "3-4", "--n", "auto",
                   "--ke-pass", "a", "--kw-pass", "b", "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:8] == [
            "mesh_id", "n_vertices", "n_faces", "m", "n",
            "embedded_bits", "bpv", "hausdorff_e3",
        ]
        assert len(lines) == 1 + 2 * 2  # 2 meshes x 2 m values
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            assert float(cells["extract_error_percent"]) == 0.0
            n_verts = int(cells["n_vertices"])
            assert float(cells["bpv"]) == pytest.approx(
                int(cells["embedded_bits"]) / n_verts
            )
        assert "mean bpv" in capsys.readouterr().out

    def test_failures_on_stderr(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_mesh_file(corpus / "good.off", random_mesh(0, n_max=30))
        (corpus / "broken.off").write_text("OFF\nnot numbers\n")
        assert run("bench", corpus, "--ke-pass", "a", "--kw-pass", "b",
                   "--out", tmp_path / "rows.csv") == 0
        out, err = capsys.readouterr()
        assert err.startswith("rdh3d.bench: broken.off: parse failed: ")
        assert err.count("\n") == 1
        assert "1 rows written" in out and "; 1 failures" in out

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        out = tmp_path / "rows.csv"
        assert run("bench", corpus, "--ke-pass", "a", "--kw-pass", "b",
                   "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_explicit_n_sweep(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_mesh_file(corpus / "m.off", random_mesh(3, n_max=30, smooth=True))
        out = tmp_path / "rows.csv"
        assert run("bench", corpus, "--m", "4", "--n", "1,2",
                   "--ke-pass", "a", "--kw-pass", "b", "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_sweep_runs_the_pairs_that_fit(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_mesh_file(corpus / "g.off", grid_mesh(6))
        out = tmp_path / "rows.csv"
        # n=20 fits only the 32-bit words of m = 5..9
        assert run("bench", corpus, "--m", "2-9", "--n", "20",
                   "--ke-pass", "a", "--kw-pass", "b", "--out", out) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [int(row.split(",")[3]) for row in rows] == [5, 6, 7, 8, 9]
        assert "5 rows written" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["metrics", "cow.off", "cow.off", "--method", "brute"],
    ["bench", ".", "--method", "kdtree", "--ke-pass", "a", "--kw-pass", "b"],
    ["bench", ".", "--jobs", 2, "--ke-pass", "a", "--kw-pass", "b"],
    ["analyze", "cow.off", "--m", 4, "--n", 3],
], ids=["metrics-method-brute", "bench-method", "bench-jobs", "analyze-n"])
def test_removed_options_exit_two(workdir, capsys, monkeypatch, argv):
    monkeypatch.chdir(workdir)
    assert run(*argv, "--out", "out") == 2
    assert not (workdir / "out").exists()
    err = capsys.readouterr().err
    assert "invalid choice" in err or "unrecognized arguments" in err


def test_cli_import_loads_neither_scipy_nor_multiprocessing():
    # scipy is imported only when a kd-tree is built, and nothing starts
    # worker processes, so every command starts without either
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, rdh3d.cli; "
            "print(sorted({'scipy', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_main_leaves_the_root_logger_alone(tmp_path):
    # in a fresh process, where no test harness has configured logging
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import logging, sys; from rdh3d.cli import main; "
            "before = list(logging.root.handlers); "
            "code = main(['extract', sys.argv[1], '--kw-pass', 'b', '--out', sys.argv[2]]); "
            "print(code, logging.root.handlers == before)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "missing.rdh3d"),
                          str(tmp_path / "payload.bin")], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["2", "True"]


# sha256 of every file of the 120x120 grid round trip at m=4; any change
# to quantization, partition, prediction, ciphers, container layout or
# mesh writing shows up here.
GRID_120_SHA256 = {
    "rep.json": "f3a9b57074ab26c1799ce0096c413e0a2a402fa191fcb26f11ad0b9f237966d6",
    "enc.rdh3d": "04fc51ba6148d0230a82a5de0016321f4bb1cfbe8092a5f98bf0c80c8b9e882f",
    "marked.rdh3d": "d875e3328c50c1af0385b7f64358b007755bdcdfe257c4b828f004d199713da4",
    "payload.bin": "3b2e7caede9924ebdda6e25ab0d6ac5b5ae5934166a0758e1e7398c2d1e69b2c",
    "rec.off": "d1fef3cbd6effe28dc7484e8e24f9b804e92fd0daca6645d1b4e70776247653f",
    "rec.obj": "100ab3b27cbaf82fff22cd4f9f48955777676381c4a71bc4e624459f3b3f6b00",
    "rec.ply": "0004025cd4147ffa9faa7dfaa4d3e441df8a4a0b68a19d1a014bfdcdb54e1d56",
    "enc.off": "74f344f776b43e8504b7838fe8b48289eacaa837996f8357e82531256ebd7784",
    "marked.off": "305ad78769cfda3e985c76f4ecdbdc94e8d4d1ea4c2d2842075305f52d521f28",
}


def test_grid_round_trip_bytes_pinned(tmp_path):
    mesh = tmp_path / "mesh.off"
    write_mesh_file(mesh, grid_mesh(120))
    d = tmp_path
    assert run("analyze", mesh, "--m", 4, "--out", d / "rep.json") == 0
    assert run("encrypt", mesh, "--m", 4, "--ke-pass", "owner", "--out",
               d / "enc.rdh3d", "--export-off", d / "enc.off") == 0
    assert run("embed", d / "enc.rdh3d", "--report", d / "rep.json",
               "--kw-pass", "hider", "--out", d / "marked.rdh3d",
               "--export-off", d / "marked.off") == 0
    assert run("extract", d / "marked.rdh3d", "--kw-pass", "hider",
               "--out", d / "payload.bin") == 0
    for fmt in ("off", "obj", "ply"):
        assert run("recover", d / "marked.rdh3d", "--ke-pass", "owner",
                   "--out", d / f"rec.{fmt}") == 0
    digests = {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
               for name in GRID_120_SHA256}
    assert digests == GRID_120_SHA256


class TestBadInputsExitTwo:
    """User mistakes end with exit 2 and a one-line error, not a traceback."""

    @pytest.fixture
    def owner_files(self, workdir):
        """An m=4 container and report of the cow mesh."""
        enc, report = workdir / "enc.rdh3d", workdir / "r.json"
        assert run("encrypt", workdir / "cow.off", "--m", 4, "--ke-pass", "a",
                   "--out", enc) == 0
        assert run("analyze", workdir / "cow.off", "--m", 4, "--out", report) == 0
        return enc, report

    def check(self, capsys, *argv):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def embed_with(self, capsys, enc, report, *extra):
        self.check(capsys, "embed", enc, "--report", report, "--kw-pass", "b",
                   "--out", enc.with_name("m.rdh3d"), *extra)
        assert not enc.with_name("m.rdh3d").exists()

    def test_unknown_mesh_extension(self, workdir, capsys):
        stl = workdir / "t.stl"
        stl.write_text(cow_off_text())
        self.check(capsys, "analyze", stl, "--m", 4)

    def test_unknown_output_extension(self, owner_files, capsys, monkeypatch):
        enc, _ = owner_files

        def not_read(path):
            raise AssertionError("the output name is checked before the container is read")

        monkeypatch.setattr(cli, "read_container_file", not_read)
        self.check(capsys, "recover", enc, "--ke-pass", "a",
                   "--out", enc.with_name("r.stl"))

    def test_report_not_json(self, owner_files, capsys):
        enc, report = owner_files
        report.write_text("{not json")
        self.embed_with(capsys, enc, report)

    @pytest.mark.parametrize("prefix", ["", '{"embedded": '])
    def test_report_nested_too_deep(self, owner_files, capsys, prefix):
        enc, report = owner_files
        report.write_text(prefix + "[" * 100_000)
        self.embed_with(capsys, enc, report)

    def test_report_missing_keys(self, owner_files, capsys):
        enc, report = owner_files
        doc = json.loads(report.read_text())
        del doc["max_prefix_lengths"]
        report.write_text(json.dumps(doc))
        self.embed_with(capsys, enc, report)

    @pytest.mark.parametrize("key", ["max_prefix_lengths", "capacity_curve"])
    def test_report_with_misshapen_lists(self, owner_files, capsys, key):
        enc, report = owner_files
        doc = json.loads(report.read_text())
        doc[key] = [doc[key]]
        report.write_text(json.dumps(doc))
        self.embed_with(capsys, enc, report)

    @pytest.mark.parametrize("key", ["max_prefix_lengths", "capacity_curve", "embedded"])
    def test_report_integer_beyond_int64(self, owner_files, capsys, key):
        enc, report = owner_files
        doc = json.loads(report.read_text())
        doc[key][0] = 2**70
        report.write_text(json.dumps(doc))
        self.embed_with(capsys, enc, report)

    @pytest.mark.parametrize("tamper", ["inflated", "zeroed", "raised_first"])
    def test_report_curve_contradicts_ts(self, owner_files, capsys, tamper):
        enc, report = owner_files
        doc = json.loads(report.read_text())
        curve = doc["capacity_curve"]
        doc["capacity_curve"] = {
            "inflated": [10 * c for c in curve],
            "zeroed": [0] * len(curve),
            "raised_first": [max(curve) + 1] + curve[1:],
        }[tamper]
        assert doc["capacity_curve"] != curve
        report.write_text(json.dumps(doc))
        self.embed_with(capsys, enc, report)

    @pytest.mark.parametrize("tamper", ["all", "m", "l", "ts", "embedded", "curve",
                                        "bool_id"])
    def test_report_non_integer_json(self, tmp_path, capsys, tamper):
        mesh_path, report, enc = (tmp_path / name for name in ("g.off", "r.json", "e.rdh3d"))
        write_mesh_file(mesh_path, grid_mesh(20))
        assert run("analyze", mesh_path, "--m", 4, "--out", report) == 0
        assert run("encrypt", mesh_path, "--m", 4, "--ke-pass", "a", "--out", enc) == 0
        doc = json.loads(report.read_text())
        tampered = {
            "m": {"m": 4.7},
            "l": {"l": 16.2},
            "ts": {"max_prefix_lengths": [t + 0.9 for t in doc["max_prefix_lengths"]]},
            "embedded": {"embedded": [str(i) for i in doc["embedded"]]},
            "curve": {"capacity_curve": [float(c) for c in doc["capacity_curve"]]},
            "bool_id": {"embedded": [True] + doc["embedded"][1:]},
        }
        assert doc["embedded"][0] == 1
        for key in ("m", "l", "ts", "embedded") if tamper == "all" else (tamper,):
            doc.update(tampered[key])
        report.write_text(json.dumps(doc))
        self.embed_with(capsys, enc, report)

    def test_report_l_contradicts_m(self, owner_files, capsys):
        enc, report = owner_files
        doc = json.loads(report.read_text())
        doc["l"] = 32  # m=4 gives l=16
        report.write_text(json.dumps(doc))
        self.embed_with(capsys, enc, report)

    def test_report_for_another_m(self, owner_files, capsys):
        enc, report = owner_files
        assert run("analyze", enc.with_name("cow.off"), "--m", 5, "--out", report) == 0
        self.embed_with(capsys, enc, report, "--n", 1)

    def test_embed_into_marked_container(self, tmp_path, capsys):
        mesh_path = tmp_path / "grid.off"
        write_mesh_file(mesh_path, grid_mesh(40))
        report, enc = tmp_path / "r.json", tmp_path / "e.rdh3d"
        marked = tmp_path / "marked.rdh3d"
        assert run("analyze", mesh_path, "--m", 4, "--out", report) == 0
        assert run("encrypt", mesh_path, "--m", 4, "--ke-pass", "a", "--out", enc) == 0
        assert run("embed", enc, "--report", report, "--n", 6, "--kw-pass", "b",
                   "--out", marked) == 0
        for n in (2, 6):
            self.embed_with(capsys, marked, report, "--n", n)
        assert run("recover", marked, "--ke-pass", "a", "--out", tmp_path / "r.off") == 0
        got = parse_mesh((tmp_path / "r.off").read_text(), "off")
        assert got == dequantize(quantize(parse_mesh(mesh_path.read_text(), "off"), 4))

    def test_bad_integer_range(self, tmp_path, capsys):
        corpus = tmp_path / "corp"
        corpus.mkdir()
        self.check(capsys, "bench", corpus, "--m", "x", "--ke-pass", "a",
                   "--kw-pass", "b", "--out", tmp_path / "rows.csv")

    @pytest.fixture
    def bench_not_run(self, monkeypatch):
        def not_run(*args):
            raise AssertionError("bench settings are checked before any row runs")

        monkeypatch.setattr(cli, "bench_corpus", not_run)

    @pytest.mark.parametrize("settings", [
        ["--m", "12"], ["--m", "1-4"], ["--n", "0"], ["--n", "16,33"],
        ["--m", "2", "--n", "20"],  # no (m, n) pair with n <= bit_length(m)
        ["--m", "9-2,4"],  # a reversed part, not an empty one beside m=4
    ], ids="-".join)
    def test_bench_value_outside_its_range(self, tmp_path, capsys, bench_not_run,
                                           settings):
        corpus = tmp_path / "corp"
        corpus.mkdir()
        write_mesh_file(corpus / "g.off", grid_mesh(5))
        out = tmp_path / "rows.csv"
        self.check(capsys, "bench", corpus, *settings, "--ke-pass", "a",
                   "--kw-pass", "b", "--out", out)
        assert not out.exists()

    @pytest.mark.parametrize("corpus", ["missing", "file.off"])
    def test_bench_corpus_not_a_directory(self, tmp_path, capsys, bench_not_run, corpus):
        write_mesh_file(tmp_path / "file.off", grid_mesh(5))
        out = tmp_path / "rows.csv"
        self.check(capsys, "bench", tmp_path / corpus, "--ke-pass", "a",
                   "--kw-pass", "b", "--out", out)
        assert not out.exists()

    def test_directory_as_mesh(self, workdir, capsys):
        folder = workdir / "dir.off"
        folder.mkdir()
        self.check(capsys, "analyze", folder, "--m", 4)
