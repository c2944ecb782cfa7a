"""One session of each workload, driven through rdh3d's real entry
points, and the output checks that judge it.

A session is what one user runs and waits for: the CLI commands of
roundtrip-large and decimal-owner go through ``rdh3d.cli.main([...])``
on files, and a corpus-sweep session parses every corpus mesh once and
sweeps it with ``rdh3d.bench.run_pipeline``. Timings cover only those
calls; checks run afterwards and read the outputs with their own
parsers (container header, ChaCha20 keystream, OFF text), never with
the code being measured. A failed command or check counts as one
failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from rdh3d import bench, cli, mesh_io

KE_PASS = "benchmark owner passphrase"
KW_PASS = "benchmark hider passphrase"
CORPUS_M = range(2, 10)
CONTAINER_HEADER = struct.Struct("<4sBBBBIIQ")
# Absolute slack per coordinate for float rounding when a recovered
# coordinate k / 10^m is formed and distances are evaluated (|v| < 1).
SLACK = 1e-15


class CheckError(Exception):
    """An output differs from what the benchmark derived on its own."""


def expect(ok, what: str):
    if not ok:
        raise CheckError(what)


@dataclass
class Case:
    """One generated input mesh and the values its text denotes."""

    name: str
    path: Path
    m: int | None
    vertices: np.ndarray  # (N, 3) float64
    faces: np.ndarray     # (M, 3) int64, 1-based
    _magnitudes: dict = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def magnitudes(self, m: int) -> np.ndarray:
        """floor(|v| * 10^m) of the exact binary value of every coordinate,
        in Python integers (slow, so computed once per run)."""
        if m not in self._magnitudes:
            scale = 10 ** m
            flat = np.abs(self.vertices).ravel().tolist()
            self._magnitudes[m] = np.array(
                [n * scale // d for n, d in map(float.as_integer_ratio, flat)],
                dtype=np.int64).reshape(self.vertices.shape)
        return self._magnitudes[m]


def load_cases(in_dir: Path) -> list[Case]:
    manifest = json.loads((in_dir / "manifest.json").read_text())
    cases = []
    for entry in manifest["meshes"]:
        with np.load(in_dir / entry["expected"]) as arrays:
            cases.append(Case(entry["name"], in_dir / entry["path"], entry.get("m"),
                              arrays["vertices"], arrays["faces"]))
    return cases


@dataclass
class Session:
    """Timings and outcome of one session."""

    steps: dict = field(default_factory=dict)  # step (command, parse, row) -> seconds
    owner: dict = field(default_factory=dict)  # the owner's part of a step -> seconds
    rows: list = field(default_factory=list)   # run_pipeline row latencies
    attempted: int = 0
    failed: int = 0
    embedded_bits: int = 0
    n_vertices: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what: str, count: int = 1):
        self.failed += count
        self.problems.append(what)


def word_bits(m: int) -> int:
    return 8 if m <= 2 else 16 if m <= 4 else 32


def keystream(passphrase: str, label: str, n_bytes: int) -> bytes:
    """ChaCha20 stream under sha256(passphrase), nonce sha256(label)[:12]."""
    key = hashlib.sha256(passphrase.encode()).digest()
    nonce = hashlib.sha256(label.encode()).digest()[:12]
    return Cipher(algorithms.ChaCha20(key, bytes(4) + nonce), mode=None) \
        .encryptor().update(bytes(n_bytes))


def read_container(path: Path) -> dict:
    """Header fields, signs, magnitudes and faces of a .rdh3d file."""
    data = path.read_bytes()
    magic, version, m, l, n, nv, nf, payload_bits = CONTAINER_HEADER.unpack_from(data)
    sign_len, mag_len, face_len = (3 * nv + 7) // 8, 3 * nv * (l // 8), 12 * nf
    excl_len = len(data) - CONTAINER_HEADER.size - sign_len - mag_len - face_len
    expect(magic == b"RDH3" and version == 1 and l in (8, 16, 32) and excl_len >= 0,
           f"{path.name}: malformed container header")
    pos = CONTAINER_HEADER.size
    signs = np.unpackbits(np.frombuffer(data, np.uint8, sign_len, pos))[:3 * nv]
    pos += sign_len + excl_len
    mags = np.frombuffer(data, f">u{l // 8}", 3 * nv, pos).astype(np.int64)
    faces = np.frombuffer(data, "<u4", 3 * nf, pos + mag_len).astype(np.int64)
    return {"m": m, "l": l, "n": n, "payload_bits": payload_bits,
            "signs": signs.reshape(-1, 3), "mags": mags.reshape(-1, 3),
            "faces": faces.reshape(-1, 3)}


def read_off(path: Path):
    """Vertices and 1-based triangle faces of an OFF file."""
    lines = path.read_text().split("\n")
    expect(lines[0] == "OFF", f"{path.name}: not an OFF file")
    nv, nf, _ = (int(t) for t in lines[1].split())
    verts = np.array(" ".join(lines[2:2 + nv]).split(), dtype=np.float64)
    faces = np.array(" ".join(lines[2 + nv:2 + nv + nf]).split(), dtype=np.int64)
    expect(verts.size == 3 * nv and faces.size == 4 * nf, f"{path.name}: short file")
    faces = faces.reshape(-1, 4)
    expect((faces[:, 0] == 3).all(), f"{path.name}: non-triangle face")
    return verts.reshape(-1, 3), faces[:, 1:] + 1


def check_quantized(mags: np.ndarray, signs: np.ndarray, case: Case, m: int):
    """mags/signs must be floor(|v| * 10^m) and the sign of each input v."""
    expect(np.array_equal(signs.astype(bool), case.vertices < 0),
           "sign bits differ from input")
    expect(np.array_equal(mags, case.magnitudes(m)),
           f"magnitudes differ from floor(|input| * 10^{m})")


# Output files of one CLI session, by role.
FILES = {"report": "report.json", "encrypted": "mesh.rdh3d", "marked": "marked.rdh3d",
         "payload": "payload.bin", "recovered": "recovered.off", "fidelity": "fidelity.json"}


def _report(f) -> dict:
    return json.loads(f["report"].read_text())


def check_report(case, f, s):
    rep = _report(f)
    curve = rep["capacity_curve"]
    n = rep["chosen_n"]
    expect((rep["m"], rep["l"]) == (case.m, word_bits(case.m)), "report m/l")
    expect((rep["n_vertices"], rep["n_faces"]) == (case.n_vertices, len(case.faces)),
           "report vertex/face counts")
    expect(len(curve) == word_bits(case.m) and 1 <= n <= len(curve)
           and curve[n - 1] == max(curve) > 0, "report capacity curve / chosen n")
    s.embedded_bits = curve[n - 1]


def check_encrypted(case, f, s):
    c = read_container(f["encrypted"])
    expect((c["m"], c["l"], c["payload_bits"]) == (case.m, word_bits(case.m), 0),
           "container header")
    expect(np.array_equal(c["faces"], case.faces), "container faces differ from input")
    raw = keystream(KE_PASS, "encrypt", c["mags"].size * c["l"] // 8)
    stream = np.frombuffer(raw, f">u{c['l'] // 8}").astype(np.int64).reshape(-1, 3)
    check_quantized(c["mags"] ^ stream, c["signs"], case, case.m)


def check_marked(case, f, s):
    rep = _report(f)
    c = read_container(f["marked"])
    expect(c["n"] == rep["chosen_n"], "marked container n")
    expect(c["payload_bits"] == rep["capacity_curve"][c["n"] - 1],
           "default payload does not fill capacity")
    expect(np.array_equal(c["faces"], case.faces), "marked faces differ from input")
    s.embedded_bits = c["payload_bits"]


def check_payload(case, f, s):
    bits = read_container(f["marked"])["payload_bits"]
    raw = keystream(KW_PASS, "payload", (bits + 7) // 8)
    want = np.packbits(np.unpackbits(np.frombuffer(raw, np.uint8))[:bits]).tobytes()
    expect(f["payload"].read_bytes() == want, "extracted payload differs")


def check_recovered(case, f, s):
    m = case.m
    verts, faces = read_off(f["recovered"])
    expect(np.array_equal(faces, case.faces), "recovered faces differ from input")
    mags = np.rint(np.abs(verts) * 10.0 ** m)
    expect(np.array_equal(mags / 10.0 ** m, np.abs(verts)), f"coordinate off the 10^-{m} grid")
    check_quantized(mags.astype(np.int64), np.signbit(verts), case, m)


def check_fidelity(case, f, s):
    h = json.loads(f["fidelity"].read_text())["hausdorff"]
    expect(0 <= h <= np.sqrt(3) * (10.0 ** -case.m + SLACK),
           "hausdorff above quantization bound")


def owner_commands(case: Case, f):
    return [
        ("analyze", ["analyze", case.path, "--m", case.m, "--out", f["report"]],
         check_report),
        ("encrypt", ["encrypt", case.path, "--m", case.m, "--ke-pass", KE_PASS,
                     "--out", f["encrypted"]], check_encrypted),
    ]


def hider_and_recipient_commands(case: Case, f):
    return [
        ("embed", ["embed", f["encrypted"], "--report", f["report"], "--kw-pass", KW_PASS,
                   "--out", f["marked"]], check_marked),
        ("extract", ["extract", f["marked"], "--kw-pass", KW_PASS, "--out", f["payload"]],
         check_payload),
        ("recover", ["recover", f["marked"], "--ke-pass", KE_PASS, "--out", f["recovered"]],
         check_recovered),
        ("metrics", ["metrics", case.path, f["recovered"], "--method", "kdtree",
                     "--out", f["fidelity"]], check_fidelity),
    ]


def _run_commands(case: Case, work: Path, roles, tracer) -> Session:
    """Run each role's commands through cli.main, one after another, and
    check each output; a nonzero exit skips (and fails) the rest."""
    f = {key: work / name for key, name in FILES.items()}
    for path in f.values():
        path.unlink(missing_ok=True)
    commands = [c for role in roles for c in role(case, f)]
    s = Session(n_vertices=case.n_vertices, attempted=len(commands))
    for i, (name, argv, check) in enumerate(commands):
        argv = [str(a) for a in argv]
        gc.collect()
        with tracer.span("cli.main"):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed command too
                rc = exc
            dt = time.perf_counter() - t0
        s.steps[name] = dt
        if rc != 0:
            s.fail(f"{name}: returned {rc!r}; later commands not run", len(commands) - i)
            break
        try:
            check(case, f, s)
        except Exception as exc:  # an unreadable output is a failed check too
            s.fail(f"{name}: {exc!r}")
    s.owner = {k: s.steps[k] for k in ("analyze", "encrypt") if k in s.steps}
    return s


def roundtrip_session(cases, work, tracer) -> Session:
    """analyze -> encrypt -> embed -> extract -> recover -> metrics."""
    return _run_commands(cases[0], work, (owner_commands, hider_and_recipient_commands),
                         tracer)


def owner_session(cases, work, tracer) -> Session:
    """analyze -> encrypt: the owner alone, no container is read."""
    return _run_commands(cases[0], work, (owner_commands,), tracer)


def sweep_session(cases, work, tracer) -> Session:
    """Parse each corpus mesh once, then run_pipeline at every m in CORPUS_M."""
    s = Session()
    gc.collect()
    session = tracer.trace_id
    for case in cases:
        s.attempted += 1 + len(CORPUS_M)
        tracer.trace_id = (session, case.name)
        t0 = time.perf_counter()
        try:
            mesh = mesh_io.read_mesh_file(case.path)
        except Exception as exc:  # a broken parser must not stop the sweep
            s.steps[f"{case.name}:parse"] = time.perf_counter() - t0
            s.fail(f"{case.name}: parse failed: {exc!r}", 1 + len(CORPUS_M))
            continue
        s.steps[f"{case.name}:parse"] = time.perf_counter() - t0
        if not (np.array_equal(mesh.vertices, case.vertices)
                and np.array_equal(mesh.faces, case.faces)):
            s.fail(f"{case.name}: parsed mesh differs from the generated one")
        for m in CORPUS_M:
            step = f"{case.name}:m{m}"
            tracer.trace_id = (session, step)
            t0 = time.perf_counter()
            try:
                row = bench.run_pipeline(mesh, case.name, m, None, KE_PASS, KW_PASS,
                                         hausdorff_method="kdtree")
            except Exception as exc:  # run_pipeline raises on inexact recovery
                s.steps[step] = time.perf_counter() - t0
                s.fail(f"{step}: {exc!r}")
                continue
            s.steps[step] = time.perf_counter() - t0
            s.rows.append(s.steps[step])
            s.owner[step] = row.t_quantize + row.t_analyze + row.t_encrypt
            s.embedded_bits += row.embedded_bits
            s.n_vertices += row.n_vertices
            try:
                expect(row.extract_error_percent == 0, "extraction error")
                expect((row.m, row.n_vertices) == (m, case.n_vertices), "row m / size")
                expect(row.hausdorff_e3 <= np.sqrt(3) * (10.0 ** -m + SLACK) * 1e3,
                       "hausdorff above quantization bound")
            except CheckError as exc:
                s.fail(f"{step}: {exc}")
    tracer.trace_id = session
    return s


SESSIONS = {
    "roundtrip-large": roundtrip_session,
    "decimal-owner": owner_session,
    "corpus-sweep": sweep_session,
}
