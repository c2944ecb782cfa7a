"""The public API holds only what the package itself uses."""

from __future__ import annotations

import ast
import dataclasses
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np

import rdh3d
from rdh3d.values import Frozen

PACKAGE_DIR = Path(rdh3d.__file__).parent


def package_nodes():
    """Every AST node of every module of the package except __init__.py."""
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def referenced_names() -> set[str]:
    """Names read, attributes accessed and names imported by the package."""
    names = set()
    for node in package_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def attributes_read() -> set[str]:
    """Attribute names the package reads (obj.name in a load context)."""
    return {node.attr for node in package_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_export_is_used_by_the_package():
    unused = sorted(set(rdh3d.__all__) - referenced_names())
    assert unused == [], f"exported but used by no module of the package: {unused}"


def test_every_public_member_is_used_by_the_package():
    read = attributes_read()
    members = [
        f"{export}.{name}"
        for export in rdh3d.__all__
        if isinstance(cls := getattr(rdh3d, export), type)
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, (property, classmethod, staticmethod)))
    ]
    unused = [m for m in members if m.rsplit(".", 1)[1] not in read]
    assert members and unused == [], (
        f"public members read by no module of the package: {unused}"
    )


# Fields no package module reads yet, with the reason they stay.
UNREAD_FIELDS = {
    # only the benchmark's tracer (perfbench/spans.py) reads them; they go
    # once it counts a partition's vertices another way
    "Partition.reference",
    "Partition.unassigned",
}


def test_every_dataclass_field_is_read_by_the_package():
    """Reads in __post_init__, where a dataclass only normalizes its own
    fields, do not count."""
    nodes = list(package_nodes())
    in_post_init = {id(inner) for node in nodes
                    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
                    for inner in ast.walk(node)}
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in in_post_init}
    fields = [
        f"{export}.{field.name}"
        for export in rdh3d.__all__
        if dataclasses.is_dataclass(cls := getattr(rdh3d, export))
        for field in dataclasses.fields(cls)
    ]
    unread = [f for f in fields if f.rsplit(".", 1)[1] not in read and f not in UNREAD_FIELDS]
    assert fields and unread == [], f"dataclass fields read by no module of the package: {unread}"


def test_every_array_field_follows_the_value_rule():
    """An exported dataclass with an array field is a Frozen value, and
    each array field is declared with array(), so that it is read-only
    and compared like the arrays of every other value."""
    array_fields = {
        export: [f for f in dataclasses.fields(cls)
                 if typing.get_type_hints(cls)[f.name] is np.ndarray]
        for export in rdh3d.__all__
        if dataclasses.is_dataclass(cls := getattr(rdh3d, export))
    }
    values = {export: fields for export, fields in array_fields.items() if fields}
    assert {"Mesh", "Partition", "QuantizedMesh", "MarkedContainer",
            "PredictionReport"} <= values.keys()
    not_frozen = [v for v in values if not issubclass(getattr(rdh3d, v), Frozen)]
    undeclared = [f"{v}.{f.name}" for v, fields in values.items()
                  for f in fields if "array" not in f.metadata]
    own_equality = [v for v in values if getattr(rdh3d, v).__eq__ is not Frozen.__eq__
                    or getattr(rdh3d, v).__hash__ is not None]
    assert not_frozen == [], f"values that do not subclass Frozen: {not_frozen}"
    assert undeclared == [], f"array fields declared without array(): {undeclared}"
    assert own_equality == [], f"values that do not use Frozen's equality: {own_equality}"


def test_every_value_field_is_compared_and_given():
    """A structure derived from a value's fields is a property of the
    value, never a field handed on beside them: every field of every
    Frozen value takes part in == and has no None default."""
    loose = [f"{export}.{f.name}" for export in rdh3d.__all__
             if isinstance(cls := getattr(rdh3d, export), type) and issubclass(cls, Frozen)
             for f in dataclasses.fields(cls) if not f.compare or f.default is None]
    assert loose == [], f"value fields that are not compared or may be left out: {loose}"


def test_each_input_rule_has_one_definition():
    """The range of m is named only in quantize.py; the range of n, the
    word width, the sign rows and the face-id error are each stated by
    one function, and the sign convention is written once: every other
    module calls them. No value words its own face-id error."""
    sources = {path.name: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    naming_m = sorted(name for name, text in sources.items()
                      if "M_MIN" in text or "M_MAX" in text)
    assert naming_m == ["quantize.py"]

    def stating(text):
        assert sum(src.count(text) for src in sources.values()) == 1, text
        return [f"{name}::{node.name}" for name, src in sources.items()
                for node in ast.walk(ast.parse(src)) if isinstance(node, ast.FunctionDef)
                and text in ast.get_source_segment(src, node)]

    assert stating("embedding length n=") == ["quantize.py::embedding_length"]
    assert stating("magnitude does not fit the declared word length") == [
        "quantize.py::__post_init__"]
    assert stating("sign rows for") == ["quantize.py::__post_init__"]
    assert stating("copysign") == ["quantize.py::coordinates"]
    assert stating("face index out of range") == ["values.py::check_face_ids"]
    assert not [f"{name}::{node.name}" for name, src in sources.items()
                for node in ast.walk(ast.parse(src))
                if isinstance(node, ast.FunctionDef) and node.name == "_face_error"]
    assert not any("signs == 1" in src for src in sources.values())


def test_each_slot_rule_has_one_definition():
    """Only codec knows where payload goes: one function selects the
    payload rows, one splices the top n bits, and the default payload is
    defined beside them. bench returns its failures and cli prints them,
    so no module imports logging."""
    sources = {path.name: path.read_text() for path in PACKAGE_DIR.glob("*.py")}

    def holders(text):
        return [f"{name}::{node.name}" for name, src in sources.items()
                for node in ast.walk(ast.parse(src)) if isinstance(node, ast.FunctionDef)
                and text in ast.get_source_segment(src, node)]

    assert holders("[excluded == 0]") == ["codec.py::_payload_rows"]
    assert holders("& low_mask") == ["codec.py::_splice"]
    assert holders("\"payload\"") == ["codec.py::default_payload"]
    imported = {alias.name for node in package_nodes() if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in package_nodes() if isinstance(node, ast.ImportFrom)}
    assert "logging" not in imported


def test_imports_sit_at_module_top():
    """No function imports, so the import graph is the one the module
    heads show. The one exception is metrics' lazy scipy import, which
    costs more than every other import of the package."""
    inside = sorted(f"{path.name}::{node.name}" for path in PACKAGE_DIR.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.FunctionDef)
                    and any(isinstance(inner, (ast.Import, ast.ImportFrom))
                            for inner in ast.walk(node)))
    assert inside == ["metrics.py::cKDTree"]


# Imports each module of the package first, in a package whose __init__
# has not run, so that a cycle between two modules cannot hide behind the
# order in which __init__ imports them.
FIRST_IMPORT = """
import importlib, sys, types
for module in sys.argv[2:]:
    for name in [name for name in sys.modules if name.split(".")[0] == "rdh3d"]:
        del sys.modules[name]
    package = sys.modules["rdh3d"] = types.ModuleType("rdh3d")
    package.__path__ = [sys.argv[1]]
    importlib.import_module("rdh3d." + module)
"""


def test_each_module_imports_first():
    modules = sorted(path.stem for path in PACKAGE_DIR.glob("*.py")
                     if path.name != "__init__.py")
    assert "values" in modules
    proc = subprocess.run([sys.executable, "-c", FIRST_IMPORT, str(PACKAGE_DIR), *modules],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
