"""Deterministic synthetic inputs for the rdh3d benchmark.

Every mesh is a height field over a regular grid (optionally jittered,
noisy, decimal-printed, padded with isolated vertices or seeded with
degenerate faces), so nothing is downloaded and the same seed always
gives the same files. This module imports only numpy; the benchmark runs
it in a child process so that neither generation time nor generation
memory shows up in any metric.

    python3 perfbench/gen.py --workload roundtrip-large --seed 1 --out DIR [--tiny]

writes the mesh files plus, per mesh, an ``.npz`` with the exact input
vertices and 1-based faces, and a ``manifest.json`` describing them.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("roundtrip-large", "decimal-owner", "corpus-sweep")

# Grid side lengths. roundtrip-large: 40,000 vertices / 79,202 faces;
# decimal-owner: 90,000 vertices; corpus-sweep: 16 meshes spanning
# 2,025 .. 10,000 vertices. A session is a few seconds, so one run holds
# several and their medians. The tiny sizes keep a smoke run to seconds.
ROUNDTRIP_SIDE = {False: 200, True: 18}
DECIMAL_SIDE = {False: 300, True: 16}
CORPUS_SIDES = {
    False: (45, 45, 46, 46, 47, 47, 48, 49, 50, 52, 54, 57, 60, 66, 75, 100),
    True: (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23),
}


def height_field(rng: np.random.Generator, side: int, *, jitter: float = 0.0,
                 noise: float = 0.0, scale: float = 0.9):
    """(side*side, 3) vertices and 0-based (2*(side-1)^2, 3) faces.

    The seed moves the phases and frequencies of a smooth sine surface;
    jitter (in grid steps) perturbs x and y, noise (absolute) perturbs z.
    """
    u = np.linspace(-scale, scale, side)
    xx, yy = np.meshgrid(u, u)
    step = 2 * scale / (side - 1)
    if jitter:
        xx = xx + rng.uniform(-jitter, jitter, xx.shape) * step
        yy = yy + rng.uniform(-jitter, jitter, yy.shape) * step
    fx, fy = rng.uniform(2.9, 3.1), rng.uniform(1.9, 2.1)
    px, py = rng.uniform(0.0, 2 * np.pi, 2)
    zz = 0.4 * np.sin(fx * xx + px) * np.cos(fy * yy + py)
    if noise:
        zz = zz + rng.normal(0.0, noise, zz.shape)
    verts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    idx = np.arange(side * side).reshape(side, side)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, :-1].ravel(), idx[1:, 1:].ravel()
    faces = np.vstack([np.column_stack([a, b, c]), np.column_stack([b, d, c])])
    return verts, faces


def add_isolated(rng, verts, count):
    """Append vertices that no face references."""
    extra = rng.uniform(-0.5, 0.5, size=(count, 3))
    return np.vstack([verts, extra])


def add_degenerate(rng, faces, count):
    """Turn `count` faces into (a, a, b) triangles with a repeated vertex."""
    faces = faces.copy()
    rows = rng.choice(faces.shape[0], size=count, replace=False)
    faces[rows, 1] = faces[rows, 0]
    return faces


def _coord_text(verts: np.ndarray, decimals: int | None):
    """Per-vertex 'x y z' strings and the float64 values they denote."""
    if decimals is None:
        rows = [f"{x!r} {y!r} {z!r}" for x, y, z in verts.tolist()]
        return rows, verts
    scale = 10 ** decimals
    ints = np.rint(verts * scale).astype(np.int64)

    def fmt(k: int) -> str:
        sign = "-" if k < 0 else ""
        whole, frac = divmod(abs(k), scale)
        return f"{sign}{whole}.{frac:0{decimals}d}"

    rows = [" ".join(fmt(k) for k in row) for row in ints.tolist()]
    # an exact ratio of two integers below 2^53 rounds the same way as
    # parsing the printed decimal string
    return rows, ints / float(scale)


def write_mesh_text(path: Path, verts, faces0, fmt: str, decimals: int | None):
    """Write ASCII OFF/OBJ/PLY; return the float64 vertices the text denotes."""
    rows, values = _coord_text(verts, decimals)
    n, m = len(rows), faces0.shape[0]
    if fmt == "obj":
        body = [f"v {r}" for r in rows]
        body += [f"f {i} {j} {k}" for i, j, k in (faces0 + 1).tolist()]
    else:
        tris = [f"3 {i} {j} {k}" for i, j, k in faces0.tolist()]
        if fmt == "off":
            head = ["OFF", f"{n} {m} 0"]
        else:
            head = ["ply", "format ascii 1.0", "comment synthetic height field",
                    f"element vertex {n}", "property double x", "property double y",
                    "property double z", f"element face {m}",
                    "property list uchar int vertex_indices", "end_header"]
        body = head + rows + tris
    path.write_text("\n".join(body) + "\n")
    return values


def _emit(out: Path, name: str, verts, faces0, fmt, decimals, **info):
    path = out / f"{name}.{fmt}"
    values = write_mesh_text(path, verts, faces0, fmt, decimals)
    np.savez(out / f"{name}.npz", vertices=values, faces=faces0 + 1)
    return {"name": name, "path": path.name, "expected": f"{name}.npz",
            "format": fmt, "decimals": decimals, "n_vertices": int(values.shape[0]),
            "n_faces": int(faces0.shape[0]), **info}


def generate(workload: str, seed: int, out: Path, tiny: bool = False) -> dict:
    """Write one workload's inputs under `out`; returns the manifest."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    meshes = []
    if workload == "roundtrip-large":
        verts, faces0 = height_field(rng, ROUNDTRIP_SIDE[tiny])
        meshes.append(_emit(out, "grid", verts, faces0, "off", None, m=4))
    elif workload == "decimal-owner":
        verts, faces0 = height_field(rng, DECIMAL_SIDE[tiny], jitter=0.3, noise=2e-4)
        meshes.append(_emit(out, "scan", verts, faces0, "ply", 4, m=6))
    elif workload == "corpus-sweep":
        for i, side in enumerate(CORPUS_SIDES[tiny]):
            rough = i % 2 == 1
            verts, faces0 = height_field(
                rng, side, jitter=0.3 if rough else 0.0, noise=0.02 if rough else 0.0
            )
            if i % 4 == 3:
                verts = add_isolated(rng, verts, max(1, side // 2))
            if i % 5 == 2:
                faces0 = add_degenerate(rng, faces0, max(1, faces0.shape[0] // 100))
            fmt = ("off", "obj", "ply")[i % 3]
            decimals = (None, 4, None, 6)[i % 4]
            meshes.append(_emit(out, f"c{i:02d}", verts, faces0, fmt, decimals,
                                rough=rough))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "tiny": tiny, "meshes": meshes}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.tiny)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
