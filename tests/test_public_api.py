"""The public API holds only what the package itself uses."""

from __future__ import annotations

import ast
from pathlib import Path

import rdh3d

PACKAGE_DIR = Path(rdh3d.__file__).parent


def referenced_names() -> set[str]:
    """Names read, attributes accessed and names imported by every
    module of the package except __init__.py."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_every_export_is_used_by_the_package():
    unused = sorted(set(rdh3d.__all__) - referenced_names())
    assert unused == [], f"exported but used by no module of the package: {unused}"
