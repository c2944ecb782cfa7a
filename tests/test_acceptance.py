"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on a green run; on failures they appear in the captured output.

The four named test meshes and the Princeton/Stanford corpora are not
redistributable with this repository and no network is assumed, so the
capacity-table criterion runs in its documented replacement form (the
capacity-curve shape property on a >=1000-vertex mesh) and the dense
run uses a synthetic >=100k-vertex surface.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from rdh3d import (
    KeyMaterial,
    KeyRole,
    Mesh,
    analyze,
    choose_n,
    dequantize,
    embed,
    encrypt_mesh,
    extract,
    hausdorff,
    parse_mesh,
    quantize,
    read_container,
    recover,
    snr,
    write_container,
)
from rdh3d.errors import ContainerError
from rdh3d.mesh_io import write_mesh

from conftest import grid_mesh, random_mesh, signed_ints
from oracles import brute_analyze, brute_choose_n, brute_partition

KE = KeyMaterial.from_passphrase("acceptance-ke", KeyRole.ENCRYPT)
KW = KeyMaterial.from_passphrase("acceptance-kw", KeyRole.HIDE)


def report(num: int, desc: str, ok: bool):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def payload_bits(count: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, count).astype(np.uint8)


@pytest.fixture(scope="module")
def reversibility_sweep():
    """200 meshes; m cycles over 2..9; every n in 1..l per mesh."""
    t_start = time.perf_counter()
    mesh_count = 200
    reversibility_failures = []
    float_bound_failures = []
    extraction_mismatches = []
    runs = 0
    for i in range(mesh_count):
        mesh = random_mesh(1000 + i, n_min=4, n_max=500)
        m = 2 + i % 8
        q = quantize(mesh, m)
        rep = analyze(q)
        enc = encrypt_mesh(q, KE)
        for n in range(1, q.l + 1):
            cap = rep.capacity(n)
            payload = payload_bits(cap, seed=i * 100 + n)
            c = embed(enc, rep, n, payload, KW)
            got = extract(c, KW)
            if not np.array_equal(got, payload):
                extraction_mismatches.append((i, m, n))
            rec = recover(c, KE)
            if rec != q:
                reversibility_failures.append((i, m, n))
            err = np.abs(dequantize(rec).vertices - mesh.vertices).max()
            if not err < 10.0**-m:
                float_bound_failures.append((i, m, n, err))
            runs += 1
    elapsed = time.perf_counter() - t_start
    return {
        "meshes": mesh_count,
        "runs": runs,
        "elapsed": elapsed,
        "reversibility_failures": reversibility_failures,
        "float_bound_failures": float_bound_failures,
        "extraction_mismatches": extraction_mismatches,
    }


def test_criterion_1_bit_exact_reversibility(reversibility_sweep):
    s = reversibility_sweep
    ok = (
        s["meshes"] >= 200
        and not s["reversibility_failures"]
        and not s["float_bound_failures"]
        and s["elapsed"] < 60.0
    )
    report(
        1,
        f"recover(embed(encrypt(quantize))) == quantize on {s['meshes']} meshes, "
        f"{s['runs']} (m, n) runs, per-axis float error < 10^-m, "
        f"{s['elapsed']:.1f}s < 60s",
        ok,
    )


def test_criterion_2_zero_extraction_error(reversibility_sweep):
    s = reversibility_sweep
    report(
        2,
        f"extracted payload bit-identical to input in all {s['runs']} runs",
        not s["extraction_mismatches"],
    )


def test_criterion_3_separability():
    mesh = random_mesh(77, n_min=100, n_max=200, smooth=True)
    q = quantize(mesh, 5)
    rep = analyze(q)
    n = choose_n(rep)
    cap = rep.capacity(n)
    payload = payload_bits(cap, seed=3)
    assert payload.size >= 128
    data = write_container(embed(encrypt_mesh(q, KE), rep, n, payload, KW))

    extract_ok = np.array_equal(extract(read_container(data), KW), payload)
    recover_ok = recover(read_container(data), KE) == q

    kw_as_ke = KeyMaterial(KW.key_bytes, KeyRole.ENCRYPT)
    bogus_mesh = recover(read_container(data), kw_as_ke)
    flipped = sum(
        int(w).bit_count() for w in (bogus_mesh.magnitudes ^ q.magnitudes).ravel()
    )
    mesh_bits = 3 * q.n_vertices * q.l
    mesh_garbled = flipped / mesh_bits > 0.25

    ke_as_kw = KeyMaterial(KE.key_bytes, KeyRole.HIDE)
    bogus_bits = extract(read_container(data), ke_as_kw)
    payload_garbled = int((bogus_bits != payload).sum()) / payload.size > 0.25

    report(
        3,
        "Kw alone extracts, Ke alone recovers, and swapped keys recover "
        f"neither (mesh flip rate {flipped / mesh_bits:.2f}, payload mismatch "
        f"rate {int((bogus_bits != payload).sum()) / payload.size:.2f} on "
        f"{payload.size} bits)",
        extract_ok and recover_ok and mesh_garbled and payload_garbled,
    )


def test_criterion_4_capacity_law():
    ok = True
    detail = ""
    checked = 0
    for seed in range(30):
        mesh = random_mesh(300 + seed, n_min=4, n_max=50, smooth=bool(seed % 2))
        m = 2 + seed % 8
        q = quantize(mesh, m)
        rep = analyze(q)
        enc = encrypt_mesh(q, KE)
        emb, _, rings, _ = brute_partition(mesh.n_vertices, mesh.faces)
        ts, _ = brute_analyze(q.magnitudes.tolist(), emb, rings, q.l)
        for n in range(1, q.l + 1):
            expected = 3 * n * sum(1 for t in ts if t >= n)
            payload = payload_bits(expected, seed=seed * 64 + n)
            c = embed(enc, rep, n, payload, KW)
            measured = c.capacity_bits()
            bpv = measured / mesh.n_vertices
            checked += 1
            if measured != expected or c.payload_bits != expected:
                ok = False
                detail = f" (first failure: seed={seed} m={m} n={n})"
                break
            if bpv != expected / mesh.n_vertices:
                ok = False
                detail = f" (bpv mismatch at seed={seed} n={n})"
                break
        if not ok:
            break
    report(
        4,
        "embedded bits == 3*n*(|C|-|excluded(n)|) from the brute-force "
        f"oracle, exhaustively over n on {checked} (mesh, n) points" + detail,
        ok,
    )


def test_criterion_5_capacity_curve_shape():
    mesh = grid_mesh(32)  # 1024 vertices
    assert mesh.n_vertices >= 1000
    q = quantize(mesh, 5)
    rep = analyze(q)
    curve = rep.capacity_curve
    t_max = int(rep.ts.max())
    peak = int(np.argmax(curve)) + 1
    rises = peak > 1 and all(
        curve[k] > curve[k - 1] for k in range(1, peak)
    )
    collapses = t_max < q.l and (curve[t_max:] == 0).all() and curve[t_max - 1] > 0
    report(
        5,
        "named meshes unavailable offline; replacement shape property on a "
        f"{mesh.n_vertices}-vertex mesh: curve rises to its peak at n={peak} "
        f"and is 0 for every n past max t={t_max}",
        rises and collapses,
    )


def test_criterion_6_fidelity_trends_with_m():
    mesh = grid_mesh(16)  # fixed test mesh, 256 vertices
    hausdorffs, snrs = [], []
    for m in range(2, 10):
        q = quantize(mesh, m)
        rep = analyze(q)
        n = choose_n(rep)
        payload = payload_bits(rep.capacity(n), seed=m)
        c = embed(encrypt_mesh(q, KE), rep, n, payload, KW)
        rec = dequantize(recover(c, KE))
        hausdorffs.append(hausdorff(mesh.vertices, rec.vertices))
        snrs.append(snr(mesh, rec))
    h_decreasing = all(b < a for a, b in zip(hausdorffs, hausdorffs[1:]))
    s_increasing = all(b > a for a, b in zip(snrs, snrs[1:]))
    report(
        6,
        "over m=2..9 at capacity-optimal n: Hausdorff strictly decreases "
        f"({hausdorffs[0]:.2e} -> {hausdorffs[-1]:.2e}) and SNR strictly "
        f"increases ({snrs[0]:.1f} dB -> {snrs[-1]:.1f} dB)",
        h_decreasing and s_increasing,
    )


def test_criterion_7_dense_mesh_performance():
    t0 = time.perf_counter()
    mesh = grid_mesh(320)  # 102400 vertices, 203522 triangles
    assert mesh.n_vertices >= 100_000
    m = 4
    q = quantize(mesh, m)
    rep = analyze(q)
    n = choose_n(rep)
    payload = payload_bits(rep.capacity(n), seed=7)
    data = write_container(embed(encrypt_mesh(q, KE), rep, n, payload, KW))
    c = read_container(data)
    got = extract(c, KW)
    rec = recover(c, KE)
    elapsed = time.perf_counter() - t0
    extraction_clean = np.array_equal(got, payload)
    integer_h = hausdorff(signed_ints(rec), signed_ints(q), method="kdtree")
    report(
        7,
        f"{mesh.n_vertices}-vertex mesh, n={n}, {payload.size} payload bits: "
        f"pipeline took {elapsed:.1f}s < 300s, extract error 0, "
        f"integer-level Hausdorff {integer_h}",
        elapsed < 300.0 and extraction_clean and rec == q and integer_h == 0.0,
    )


def test_criterion_8_oracle_equivalence():
    ok = True
    detail = ""
    meshes = 0
    for seed in range(40):
        mesh = random_mesh(500 + seed, n_min=4, n_max=50, smooth=bool(seed % 3))
        m = 2 + seed % 8
        q = quantize(mesh, m)
        rep = analyze(q)
        emb, _, rings, _ = brute_partition(mesh.n_vertices, mesh.faces)
        ts, curve = brute_analyze(q.magnitudes.tolist(), emb, rings, q.l)
        meshes += 1
        if rep.ts.tolist() != ts or rep.capacity_curve.tolist() != curve:
            ok, detail = False, f" (analyze mismatch at seed={seed})"
            break
        if choose_n(rep) != brute_choose_n(curve):
            ok, detail = False, f" (choose_n mismatch at seed={seed})"
            break
        for n in range(1, q.l + 1):
            excluded = set(rep.embedded[rep.ts < n].tolist())
            if excluded != {v for v, t in zip(emb, ts) if t < n}:
                ok, detail = False, f" (excluded set mismatch at seed={seed} n={n})"
                break
        if not ok:
            break
    report(
        8,
        f"analyze/choose_n equal the brute-force reimplementation on {meshes} "
        "meshes <= 50 vertices, exhaustively over n" + detail,
        ok,
    )


def test_criterion_9_round_trips_under_fuzzing():
    rng = np.random.default_rng(99)
    cases = 0
    ok = True
    detail = ""

    # mesh parse/write identity across formats
    for seed in range(2000):
        mesh = random_mesh(seed, n_min=1, n_max=12)
        if int(rng.integers(0, 4)) == 0:
            mesh = Mesh(mesh.vertices, np.empty((0, 3)))
        for fmt in ("off", "obj", "ply"):
            back = parse_mesh(write_mesh(mesh, fmt), fmt)
            cases += 1
            if back != mesh:
                ok, detail = False, f" (mesh round trip failed at seed={seed}/{fmt})"
                break
        if not ok:
            break

    # container byte identity
    if ok:
        from test_container import make_container

        for seed in range(1500):
            c = make_container(seed, m=2 + seed % 8,
                               payload_fill=float(rng.uniform(0, 1)))
            data = write_container(c)
            back = read_container(data)
            cases += 3
            if back != c or write_container(back) != data:
                ok, detail = False, f" (container round trip failed at seed={seed})"
                break

    # every single-byte truncation rejected
    truncations = 0
    if ok:
        data = write_container(make_container(4242))
        for cut in range(len(data)):
            truncations += 1
            try:
                read_container(data[:cut])
                ok, detail = False, f" (truncation to {cut} bytes accepted)"
                break
            except ContainerError:
                pass

    report(
        9,
        f"{cases} fuzzed round-trip cases byte/numerically identical; all "
        f"{truncations} single-byte truncations rejected" + detail,
        ok and cases >= 10_000,
    )
