"""Command-line surface: analyze, encrypt, embed, extract, recover,
metrics, bench.

Exit codes: 0 success, 2 usage/configuration, 3 mesh parse or domain
error, 4 capacity overflow, 5 corrupt container. Passphrases come from
--ke-pass / --kw-pass or the RDH3D_KE_PASS / RDH3D_KW_PASS environment
variables (flags win) and are never written to any output file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bench import bench_corpus, mean_bpv_by_m, write_csv
from .cipher import KeyMaterial, KeyRole, encrypt_mesh
from .codec import bits_to_payload, default_payload, embed, extract, payload_to_bits, recover
from .container import read_container_file, write_container_file
from .errors import (
    CapacityError,
    ConfigError,
    ContainerError,
    DomainError,
    MeshParseError,
)
from .mesh_io import FORMATS, _rows, format_from_path, read_mesh_file, write_mesh_file
from .metrics import embedding_rate, hausdorff, snr
from .predictor import PredictionReport, analyze, choose_n
from .quantize import WORD_DTYPES, bit_length, embedding_length, quantize

KE_ENV = "RDH3D_KE_PASS"
KW_ENV = "RDH3D_KW_PASS"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_CORRUPT = 5

# The exit code of each error class that a command may raise.
_EXIT_CODES = {
    ConfigError: EXIT_USAGE,
    MeshParseError: EXIT_PARSE,
    DomainError: EXIT_PARSE,
    CapacityError: EXIT_CAPACITY,
    ContainerError: EXIT_CORRUPT,
    OSError: EXIT_USAGE,
}


def _passphrase(flag_value, env_name, flag_name) -> str:
    value = flag_value if flag_value is not None else os.environ.get(env_name)
    if not value:
        raise ConfigError(f"missing passphrase: pass {flag_name} or set {env_name}")
    return value


def _ke(args) -> KeyMaterial:
    return KeyMaterial.from_passphrase(
        _passphrase(args.ke_pass, KE_ENV, "--ke-pass"), KeyRole.ENCRYPT
    )


def _kw(args) -> KeyMaterial:
    return KeyMaterial.from_passphrase(
        _passphrase(args.kw_pass, KW_ENV, "--kw-pass"), KeyRole.HIDE
    )


def _emit(doc: dict, out_path):
    """Write json.dumps(doc, indent=2) and a newline to out_path, or to
    stdout when it is None (see _json_chunks)."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(_json_chunks(doc))
    else:
        sys.stdout.writelines(_json_chunks(doc))


# Items of an integer array printed per chunk of JSON text.
_JSON_ITEMS = 1 << 14


def _json_chunks(doc: dict):
    """json.dumps(doc, indent=2) + "\n" as chunks of text, for a doc with
    at least one key. An int64 array of nonnegative integers is printed
    as the JSON list of its items, _JSON_ITEMS of them at a time as rows
    of one word by mesh_io._rows, each after a newline and its indent and
    before a comma, less the last comma; any other value with json.dumps."""
    sep = "{"
    for key, value in doc.items():
        yield f"{sep}\n  {json.dumps(key)}: "
        if isinstance(value, np.ndarray):
            yield "["
            for i in range(0, value.size, _JSON_ITEMS):
                text = _rows("\n    ", value[i:i + _JSON_ITEMS, None], end=",").decode()
                yield text if i + _JSON_ITEMS < value.size else text[:-1]
            yield "\n  ]" if value.size else "]"
        else:
            yield json.dumps(value)
        sep = ","
    yield "\n}\n"


def cmd_analyze(args) -> int:
    mesh = read_mesh_file(args.mesh, args.format)
    rep = analyze(quantize(mesh, args.m))
    doc = rep.to_json_dict()
    doc["chosen_n"] = choose_n(rep)
    doc["n_vertices"] = mesh.n_vertices
    doc["n_faces"] = mesh.n_faces
    _emit(doc, args.out)
    return EXIT_OK


def cmd_encrypt(args) -> int:
    mesh = read_mesh_file(args.mesh, args.format)
    c = encrypt_mesh(quantize(mesh, args.m), _ke(args))
    write_container_file(args.out, c)
    if args.export_off:
        write_mesh_file(args.export_off, c, "off")
    return EXIT_OK


def cmd_embed(args) -> int:
    c = read_container_file(args.container)
    try:
        with open(args.report) as fh:
            rep = PredictionReport.from_json_dict(json.load(fh))
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"unreadable prediction report {args.report}: {exc!r}") from None
    n = choose_n(rep, args.n)
    kw = _kw(args)
    if args.payload:
        with open(args.payload, "rb") as fh:
            payload = payload_to_bits(fh.read())
    else:
        payload = default_payload(kw, rep.capacity(n))
    marked = embed(c, rep, n, payload, kw)
    write_container_file(args.out, marked)
    if args.export_off:
        write_mesh_file(args.export_off, marked, "off")
    return EXIT_OK


def cmd_extract(args) -> int:
    c = read_container_file(args.container)
    bits = extract(c, _kw(args))
    with open(args.out, "wb") as fh:
        fh.write(bits_to_payload(bits))
    return EXIT_OK


def cmd_recover(args) -> int:
    fmt = args.format or format_from_path(args.out)
    c = read_container_file(args.container)
    write_mesh_file(args.out, recover(c, _ke(args)), fmt)
    return EXIT_OK


def cmd_metrics(args) -> int:
    mesh_a = read_mesh_file(args.mesh_a, args.format)
    mesh_b = read_mesh_file(args.mesh_b, args.format)
    # snr rejects a vertex-count mismatch before any distance is computed
    snr_db = snr(mesh_a, mesh_b)
    dist = hausdorff(mesh_a, mesh_b, method=args.method)
    bits = read_container_file(args.container).payload_bits if args.container else 0
    report = {
        "hausdorff": dist,
        "snr_db": "inf" if math.isinf(snr_db) else snr_db,
        "embedding_rate": embedding_rate(bits, mesh_a.n_vertices),
        "embedded_bits": bits,
    }
    _emit(report, args.out)
    return EXIT_OK


def _parse_int_range(text: str) -> list[int]:
    values: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part.lstrip("-"):
                lo, hi = map(int, part.split("-", 1))
                if lo > hi:
                    raise ConfigError(f"reversed range {part!r} in {text!r}")
                values.extend(range(lo, hi + 1))
            else:
                values.append(int(part))
    except ValueError:
        raise ConfigError(f"bad integer range {text!r}") from None
    return values


def cmd_bench(args) -> int:
    m_values = _parse_int_range(args.m)
    n_values = [None] if args.n.strip() == "auto" else _parse_int_range(args.n)
    # checked before any row runs, which would fail each row on its own:
    # every m and n in range, and some (m, n) pair with n <= l
    l_top = max(map(bit_length, m_values))
    if n_values != [None]:
        for n in n_values:
            embedding_length(n, max(WORD_DTYPES))
        embedding_length(min(n_values), l_top)
    if not os.path.isdir(args.corpus):
        raise ConfigError(f"corpus {args.corpus!r} is not a directory")
    ke_pass = _passphrase(args.ke_pass, KE_ENV, "--ke-pass")
    kw_pass = _passphrase(args.kw_pass, KW_ENV, "--kw-pass")
    rows, failures = bench_corpus(args.corpus, m_values, n_values, ke_pass, kw_pass)
    with open(args.out, "w", newline="") as fh:
        write_csv(rows, fh)
    for name, why in failures:
        print(f"rdh3d.bench: {name}: {why}", file=sys.stderr)
    for m, bpv in mean_bpv_by_m(rows).items():
        print(f"mean bpv at m={m}: {bpv:.4f}")
    print(f"{len(rows)} rows written to {args.out}; {len(failures)} failures")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdh3d",
        description="Separable reversible data hiding in encrypted 3D triangle meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="mesh format (default: inferred from extension)")

    p = sub.add_parser("analyze", help="prediction analysis and capacity curve")
    p.add_argument("mesh")
    p.add_argument("--m", type=int, required=True, help="precision exponent, 2..9")
    add_format(p)
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("encrypt", help="quantize and encrypt a mesh into a container")
    p.add_argument("mesh")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ke-pass", default=None)
    add_format(p)
    p.add_argument("--out", required=True, help="output .rdh3d container")
    p.add_argument("--export-off", default=None,
                   help="also write the encrypted integer mesh as OFF")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("embed", help="embed a payload into an encrypted container")
    p.add_argument("container")
    p.add_argument("--report", required=True, help="analyze JSON for the same mesh/m")
    p.add_argument("--payload", default=None,
                   help="payload file (default: random bits filling capacity)")
    p.add_argument("--n", type=int, default=None,
                   help="embedding length (default: capacity-optimal)")
    p.add_argument("--kw-pass", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--export-off", default=None,
                   help="also write the marked integer mesh as OFF")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="extract the payload (needs Kw only)")
    p.add_argument("container")
    p.add_argument("--kw-pass", default=None)
    p.add_argument("--out", required=True, help="output payload file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("recover", help="recover the original mesh (needs Ke only)")
    p.add_argument("container")
    p.add_argument("--ke-pass", default=None)
    p.add_argument("--out", required=True, help="output mesh file")
    add_format(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("metrics", help="fidelity metrics between two meshes")
    p.add_argument("mesh_a")
    p.add_argument("mesh_b")
    p.add_argument("--method", choices=("kdtree",), default="kdtree",
                   help="hausdorff evaluation; kdtree names the one exact method")
    p.add_argument("--container", default=None,
                   help="fill embedding fields from this container")
    add_format(p)
    p.add_argument("--out", default=None, help="JSON path (default: stdout)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("bench", help="pipeline sweep over a mesh corpus -> CSV")
    p.add_argument("corpus", help="directory of .off/.obj/.ply files")
    p.add_argument("--m", default="4", help="precision values, e.g. 4 or 2-9 or 3,5")
    p.add_argument("--n", default="auto", help="'auto' or values, e.g. 16 or 1-32")
    p.add_argument("--ke-pass", default=None)
    p.add_argument("--kw-pass", default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
