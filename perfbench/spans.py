"""In-memory span tracing of rdh3d's public functions, installed at run time.

`Tracer.install()` replaces each function named in TARGETS with a wrapper
in every loaded ``rdh3d`` module that holds a reference to it (so the
partition that ``container`` and ``codec`` compute internally is seen),
and `Tracer.uninstall()` puts the originals back. No source file
changes. A span records its name, start, end, parent span and the trace
id of the session or corpus row it belongs to; spans stay in memory
until `dump()` writes them out.

A span's self time is its duration minus the durations of its direct
children. `layer_metrics()` turns the spans of one session into the
per-module metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


def _partition_attrs(args, result):
    n = result.embedded.size + result.reference.size + result.unassigned.size
    return {"embedded": int(result.embedded.size), "vertices": int(n)}


def _analyze_attrs(args, result):
    n = int(np.argmax(result.capacity_curve)) + 1 if result.capacity_curve.size else 1
    return {"embedded": int(result.ts.size), "included": int((result.ts >= n).sum())}


def _arg_bytes(args, result):
    return {"bytes": len(args[0])}


def _result_bytes(args, result):
    return {"bytes": len(result)}


# (defining module, attribute, span name, attribute hook). Several
# functions may share a span name; the name is the layer metric they
# feed. "Class.method" targets are patched on the class.
TARGETS = (
    ("rdh3d.mesh_io", "read_mesh_file", "mesh_io.parse", None),
    ("rdh3d.mesh_io", "parse_mesh", "mesh_io.parse", _arg_bytes),
    ("rdh3d.mesh_io", "write_mesh_file", "mesh_io.write", None),
    ("rdh3d.mesh_io", "write_mesh", "mesh_io.write", None),
    ("rdh3d.quantize", "quantize", "quantize.quantize", None),
    ("rdh3d.quantize", "dequantize", "quantize.dequantize", None),
    ("rdh3d.partition", "partition", "partition.partition", _partition_attrs),
    ("rdh3d.predictor", "analyze", "predictor.analyze", _analyze_attrs),
    ("rdh3d.predictor", "PredictionReport.to_json_dict", "predictor.report_json", None),
    ("rdh3d.predictor", "PredictionReport.from_json_dict", "predictor.report_json", None),
    ("rdh3d.cipher", "encrypt_mesh", "cipher.crypt", None),
    ("rdh3d.cipher", "decrypt_mesh", "cipher.crypt", None),
    ("rdh3d.container", "read_container_file", "container.read", None),
    ("rdh3d.container", "read_container", "container.read", _arg_bytes),
    ("rdh3d.container", "write_container_file", "container.write", None),
    ("rdh3d.container", "write_container", "container.write", _result_bytes),
    ("rdh3d.codec", "embed", "codec.embed", None),
    ("rdh3d.codec", "extract", "codec.extract", None),
    ("rdh3d.codec", "recover", "codec.recover", None),
    ("rdh3d.metrics", "hausdorff", "metrics.hausdorff", None),
    ("rdh3d.metrics", "snr", "metrics.snr", None),
    ("rdh3d.bench", "run_pipeline", "bench.run_pipeline", None),
)
# Counted but not timed: keystream generation is part of whichever span
# asked for it (encryption, decryption or payload hiding).
COUNTERS = (("rdh3d.cipher", "KeyMaterial.keystream_bytes", "cipher.keystream_bytes"),)
# Every cmd_* function of this module is traced as one CLI command.
CLI_MODULE = "rdh3d.cli"

# Per-layer metric -> unit; `Tracer.layer_metrics` computes the values.
LAYER_METRICS = {
    "mesh_io.parse_s": "s",
    "mesh_io.write_s": "s",
    "mesh_io.parse_mb_per_s": "MB/s",
    "quantize.quantize_s": "s",
    "quantize.dequantize_s": "s",
    "partition.partition_s": "s",
    "partition.calls": "count",
    "partition.embedded_frac": "ratio",
    "predictor.analyze_s": "s",
    "predictor.report_json_s": "s",
    "predictor.included_frac": "ratio",
    "cipher.crypt_s": "s",
    "cipher.keystream_bytes": "bytes",
    "container.write_s": "s",
    "container.read_s": "s",
    "container.bytes": "bytes",
    "codec.embed_s": "s",
    "codec.extract_s": "s",
    "codec.recover_s": "s",
    "metrics.hausdorff_s": "s",
    "metrics.snr_s": "s",
    "bench.run_pipeline_s": "s",
    "cli.self_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    trace_id: object     # shared by the spans of one session or corpus row
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Span recorder. With `enabled=False` spans cost one no-op context."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)   # (trace_id, name) -> total
        self.trace_id = None
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, perf_counter(), 0.0, parent, self.trace_id)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def _timed(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    sp.attrs.update(hook(args, result))
                except (AttributeError, TypeError) as exc:  # the API moved on
                    print(f"warning: no attributes for {name}: {exc!r}", file=sys.stderr)
            return result
        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(self_, n_bytes, *args, **kwargs):
            self.counts[(self.trace_id, name)] += int(n_bytes)
            return fn(self_, n_bytes, *args, **kwargs)
        return wrapper

    def _patch(self, module_name, attr, make):
        """Replace module_name.attr (or a Class.method) with make(original)."""
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            self._undo.append((cls, meth, raw))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rdh3d" or mod_name.startswith("rdh3d.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self):
        """Wrap every target in place; a target that no longer exists is
        reported on stderr and its metrics stay at zero."""
        for module_name, attr, name, hook in TARGETS:
            self._try_patch(module_name, attr,
                            lambda fn, n=name, h=hook: self._timed(fn, n, h))
        for module_name, attr, name in COUNTERS:
            self._try_patch(module_name, attr, lambda fn, n=name: self._counted(fn, n))
        cli = sys.modules[CLI_MODULE]
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            self._try_patch(CLI_MODULE, attr,
                            lambda fn: self._timed(fn, "cli.command", None))

    def _try_patch(self, module_name, attr, make):
        try:
            self._patch(module_name, attr, make)
        except (KeyError, AttributeError) as exc:
            print(f"warning: cannot trace {module_name}.{attr}: {exc!r}", file=sys.stderr)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self, session) -> dict[str, float]:
        """Per-layer metrics over the spans whose trace id belongs to
        `session` (a trace id is the session number, or a
        (session, row) pair for a corpus row)."""
        def mine(trace_id):
            return trace_id == session or (
                isinstance(trace_id, tuple) and trace_id[0] == session)

        index = [i for i, sp in enumerate(self.spans) if mine(sp.trace_id)]
        child_time: dict[int, float] = defaultdict(float)
        for i in index:
            sp = self.spans[i]
            if sp.parent >= 0:
                child_time[sp.parent] += sp.end - sp.start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        attrs: dict[str, float] = defaultdict(float)
        for i in index:
            sp = self.spans[i]
            self_s[sp.name] += sp.end - sp.start - child_time[i]
            calls[sp.name] += 1
            for key, value in sp.attrs.items():
                attrs[f"{sp.name}.{key}"] += value
        counts = {name: total for (tid, name), total in self.counts.items() if mine(tid)}

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "mesh_io.parse_s": self_s["mesh_io.parse"],
            "mesh_io.write_s": self_s["mesh_io.write"],
            "mesh_io.parse_mb_per_s": ratio(attrs["mesh_io.parse.bytes"] / 1e6,
                                            self_s["mesh_io.parse"]),
            "quantize.quantize_s": self_s["quantize.quantize"],
            "quantize.dequantize_s": self_s["quantize.dequantize"],
            "partition.partition_s": self_s["partition.partition"],
            "partition.calls": calls["partition.partition"],
            "partition.embedded_frac": ratio(attrs["partition.partition.embedded"],
                                             attrs["partition.partition.vertices"]),
            "predictor.analyze_s": self_s["predictor.analyze"],
            "predictor.report_json_s": self_s["predictor.report_json"],
            "predictor.included_frac": ratio(attrs["predictor.analyze.included"],
                                             attrs["predictor.analyze.embedded"]),
            "cipher.crypt_s": self_s["cipher.crypt"],
            "cipher.keystream_bytes": counts.get("cipher.keystream_bytes", 0),
            "container.write_s": self_s["container.write"],
            "container.read_s": self_s["container.read"],
            "container.bytes": int(attrs["container.read.bytes"]
                                   + attrs["container.write.bytes"]),
            "codec.embed_s": self_s["codec.embed"],
            "codec.extract_s": self_s["codec.extract"],
            "codec.recover_s": self_s["codec.recover"],
            "metrics.hausdorff_s": self_s["metrics.hausdorff"],
            "metrics.snr_s": self_s["metrics.snr"],
            "bench.run_pipeline_s": self_s["bench.run_pipeline"],
            "cli.self_s": self_s["cli.main"] + self_s["cli.command"],
        }

    def dump(self, path, context: dict):
        """Write every recorded span as JSON."""
        doc = {
            "context": context,
            "fields": ["name", "start", "end", "parent", "trace_id", "attrs"],
            "spans": [[sp.name, sp.start, sp.end, sp.parent, sp.trace_id, sp.attrs]
                      for sp in self.spans],
        }
        path.write_text(json.dumps(doc))
