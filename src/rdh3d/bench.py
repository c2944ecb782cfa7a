"""Capacity/fidelity sweep harness over a mesh corpus, one CSV row per run.

Each row runs the whole pipeline (quantize, analyze, encrypt, embed,
extract, recover) at one (mesh, m, n) point, checks bit-exact recovery,
and reports capacity, bpv, float-level Hausdorff distance (in 10^-3
units), conventional SNR, the measured extraction error percentage, and
per-stage wall times. A failed row or mesh file is returned beside the
rows, and the sweep continues.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .cipher import KeyMaterial, KeyRole, encrypt_mesh
from .codec import default_payload, embed, extract, recover
from .errors import Rdh3dError
from .mesh_io import FORMATS, Mesh, read_mesh_file
from .metrics import embedding_rate, hausdorff, snr
from .predictor import analyze, choose_n
from .quantize import dequantize, quantize


@dataclass
class BenchRow:
    mesh_id: str
    n_vertices: int
    n_faces: int
    m: int
    n: int
    embedded_bits: int
    bpv: float
    hausdorff_e3: float  # float-level Hausdorff distance in 10^-3 units
    snr_db: float
    extract_error_percent: float
    t_quantize: float
    t_analyze: float
    t_encrypt: float
    t_embed: float
    t_extract: float
    t_recover: float


CSV_FIELDS = [f.name for f in fields(BenchRow)]


def run_pipeline(mesh: Mesh, mesh_id: str, m: int, n: int | None,
                 ke_pass: str, kw_pass: str,
                 hausdorff_method: str = "kdtree") -> BenchRow:
    """One full pipeline run; raises on any reversibility violation.

    `analyze` reads the split of the mesh's faces, so the first row on a
    Mesh derives it and counts it in its t_analyze; later rows on the
    same Mesh share its face array and reuse the split. hausdorff_method
    is passed to `hausdorff`, whose only method is "kdtree".
    """
    ke = KeyMaterial.from_passphrase(ke_pass, KeyRole.ENCRYPT)
    kw = KeyMaterial.from_passphrase(kw_pass, KeyRole.HIDE)

    t0 = time.perf_counter()
    q = quantize(mesh, m)
    t1 = time.perf_counter()
    rep = analyze(q)
    n_eff = choose_n(rep, n)
    t2 = time.perf_counter()
    enc = encrypt_mesh(q, ke)
    t3 = time.perf_counter()
    payload = default_payload(kw, rep.capacity(n_eff))
    marked = embed(enc, rep, n_eff, payload, kw)
    t4 = time.perf_counter()
    extracted = extract(marked, kw)
    t5 = time.perf_counter()
    recovered = recover(marked, ke)
    t6 = time.perf_counter()

    if extracted.size != payload.size:
        raise Rdh3dError(f"{mesh_id}: extracted {extracted.size} of {payload.size} bits")
    errors = int((extracted != payload).sum())
    error_percent = 100.0 * errors / payload.size if payload.size else 0.0
    if recovered != q:
        raise Rdh3dError(f"{mesh_id}: recovery is not bit-exact at m={m}, n={n_eff}")

    rec_mesh = dequantize(recovered)
    h = hausdorff(mesh.vertices, rec_mesh.vertices, method=hausdorff_method)
    s = snr(mesh, rec_mesh, noise_ref="original")
    return BenchRow(
        mesh_id=mesh_id,
        n_vertices=mesh.n_vertices,
        n_faces=mesh.n_faces,
        m=m,
        n=n_eff,
        embedded_bits=payload.size,
        bpv=embedding_rate(payload.size, mesh.n_vertices),
        hausdorff_e3=h * 1e3,
        snr_db=s,
        extract_error_percent=error_percent,
        t_quantize=t1 - t0,
        t_analyze=t2 - t1,
        t_encrypt=t3 - t2,
        t_embed=t4 - t3,
        t_extract=t5 - t4,
        t_recover=t6 - t5,
    )


def corpus_files(corpus_dir) -> list[Path]:
    root = Path(corpus_dir)
    return sorted(p for p in root.rglob("*") if p.suffix.lower().lstrip(".") in FORMATS)


def bench_corpus(corpus_dir, m_values, n_values, ke_pass: str, kw_pass: str):
    """Sweep every mesh file under corpus_dir; returns (rows, failures)."""
    rows, failures = [], []
    for path in corpus_files(corpus_dir):
        try:
            mesh = read_mesh_file(path)
        except Exception as exc:
            failures.append((path.name, f"parse failed: {exc}"))
            continue
        for m in m_values:
            for n in n_values:
                try:
                    rows.append(run_pipeline(mesh, path.name, m, n, ke_pass, kw_pass))
                except Exception as exc:
                    failures.append((path.name, f"m={m} n={n}: {exc}"))
    return rows, failures


def write_csv(rows: list[BenchRow], fh):
    writer = csv.writer(fh)
    writer.writerow(CSV_FIELDS)
    for row in rows:
        writer.writerow([getattr(row, f) for f in CSV_FIELDS])


def mean_bpv_by_m(rows: list[BenchRow]) -> dict[int, float]:
    """Average bpv per precision level, for corpus-level comparisons."""
    sums: dict[int, list[float]] = {}
    for row in rows:
        sums.setdefault(row.m, []).append(row.bpv)
    return {m: sum(v) / len(v) for m, v in sorted(sums.items())}
