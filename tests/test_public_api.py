"""The public API holds only what the package itself uses."""

from __future__ import annotations

import ast
from pathlib import Path

import rdh3d

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
