"""The rule every pipeline value follows (`values.Frozen`): equality by
value over every field, no hash, and arrays that no caller can write."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

import rdh3d
from rdh3d import Mesh, analyze, encrypt_mesh, quantize
from rdh3d.partition import partition
from rdh3d.values import Frozen, read_only

from conftest import grid_mesh


@pytest.fixture
def forms(ke):
    """Each of the five values for one mesh, from a fresh pipeline. The
    mesh has a vertex in no face, so that no array is empty."""
    grid = grid_mesh(10)
    mesh = Mesh(np.vstack([grid.vertices, [[0.5, 0.5, 0.5]]]), grid.faces)
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

    def test_read_only_keeps_a_view_over_bytes(self):
        """An array whose memory is a bytes object is already read-only
        and owns nothing to hide, so it is kept as it is."""
        data = bytes(range(24))
        arr = np.frombuffer(data, np.int64)
        assert read_only(arr) is arr
        assert arr.base is data and not arr.flags.writeable

    @pytest.mark.parametrize("name", ["Mesh", "Partition", "QuantizedMesh",
                                      "PredictionReport", "MarkedContainer"])
    def test_unhashable(self, forms, name):
        value = forms[name]
        assert type(value).__hash__ is None
        with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
            hash(value)


# (value, field) for every array field of every exported Frozen value
ARRAY_FIELDS = [(name, f.name) for name in rdh3d.__all__
                if isinstance(cls := getattr(rdh3d, name), type) and issubclass(cls, Frozen)
                for f in fields(cls) if "array" in f.metadata]


@pytest.mark.parametrize("name, field", ARRAY_FIELDS)
class TestArraysNoCallerCanWrite:
    def test_read_only_view_of_a_writable_array_is_copied(self, forms, name, field):
        value = forms[name]
        own = getattr(value, field).copy()
        assert own.size
        view = own.view()
        view.flags.writeable = False
        other = replace(value, **{field: view})
        assert not np.shares_memory(getattr(other, field), own)
        own += 1
        assert other == value
        if field == "faces":
            assert other.partition == value.partition
        if name == "PredictionReport":
            assert np.array_equal(other.capacity_curve, value.capacity_curve)

    def test_read_only_memory_is_kept_as_the_same_object(self, forms, name, field):
        arr = getattr(forms[name], field)
        from_bytes = np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)
        for kept in (read_only(arr.copy()), from_bytes):
            assert getattr(replace(forms[name], **{field: kept}), field) is kept
