"""The rule every pipeline value follows (`mesh_io.Frozen`): equality by
value over the compared fields, and no hash."""

from __future__ import annotations

from dataclasses import replace

import pytest

from rdh3d import analyze, encrypt_mesh, quantize
from rdh3d.partition import partition

from conftest import grid_mesh


@pytest.fixture
def forms(ke):
    """Each of the five values for one mesh, from a fresh pipeline."""
    mesh = grid_mesh(10)
    q = quantize(mesh, 4)
    return {"Mesh": mesh, "Partition": mesh.partition, "QuantizedMesh": q,
            "PredictionReport": analyze(q), "MarkedContainer": encrypt_mesh(q, ke)}


class TestValueRule:
    def test_partition_compares_by_value(self):
        mesh = grid_mesh(10)
        a = partition(mesh.n_vertices, mesh.faces)
        b = partition(mesh.n_vertices, mesh.faces.copy())
        assert a is not b and a == b
        assert a != partition(mesh.n_vertices, mesh.faces[::-1])

    def test_prediction_report_compares_by_value(self):
        mesh = grid_mesh(10)
        rep = analyze(quantize(mesh, 4))
        assert analyze(quantize(mesh, 4)) == rep
        assert analyze(quantize(mesh, 5)) != rep
        other_ts = rep.ts.copy()
        other_ts[0] ^= 1
        assert replace(rep, ts=other_ts) != rep

    def test_another_type_is_never_equal(self, forms):
        for name, value in forms.items():
            assert value.__eq__(object()) is NotImplemented
            assert all(value != other for other_name, other in forms.items()
                       if other_name != name)

    @pytest.mark.parametrize("name", ["Mesh", "Partition", "QuantizedMesh",
                                      "PredictionReport", "MarkedContainer"])
    def test_unhashable(self, forms, name):
        value = forms[name]
        assert type(value).__hash__ is None
        with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
            hash(value)

    def test_equality_ignores_the_partition(self, forms):
        q, c = forms["QuantizedMesh"], forms["MarkedContainer"]
        other = replace(q.partition, unassigned=[1])
        assert other != q.partition
        assert replace(q, partition=other) == q
        assert replace(c, partition=other) == c
        assert replace(c, partition=None) == c
