"""The README's CLI and Library examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from rdh3d.cli import main
from rdh3d.mesh_io import write_mesh_file

from conftest import grid_mesh

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(section: str, lang: str) -> list[str]:
    """The fenced `lang` blocks between '## section' and the next '## '."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", body, flags=re.M | re.S)


def _rdh3d_lines(block: str) -> list[list[str]]:
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rdh3d ")]


@pytest.fixture
def example_dir(tmp_path, monkeypatch):
    """mesh.off, a secret.bin under its capacity and a one-mesh corpus/."""
    monkeypatch.delenv("RDH3D_KE_PASS", raising=False)
    monkeypatch.delenv("RDH3D_KW_PASS", raising=False)
    monkeypatch.chdir(tmp_path)
    write_mesh_file("mesh.off", grid_mesh(12))
    Path("secret.bin").write_bytes(b"rdh3d")
    Path("corpus").mkdir()
    write_mesh_file("corpus/grid.off", grid_mesh(9))
    return tmp_path


def test_cli_examples_exit_0(example_dir):
    commands = [argv for block in _blocks("CLI", "sh") for argv in _rdh3d_lines(block)]
    assert [argv[0] for argv in commands] == [
        "analyze", "encrypt", "embed", "extract", "recover", "metrics", "bench"]
    for argv in commands:
        assert main(argv) == 0, argv
    assert Path("secret.out").read_bytes() == b"rdh3d"


def test_library_example_runs(example_dir):
    (block,) = _blocks("Library", "python")
    exec(compile(block, "README.md", "exec"), {})
