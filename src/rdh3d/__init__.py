"""Separable reversible data hiding in encrypted 3D triangle meshes.

The embedded/reference split is `rdh3d.partition.partition(n_vertices,
faces)`; it is not re-exported here, so `rdh3d.partition` stays the
submodule.
"""

from .cipher import KeyMaterial, KeyRole, encrypt_mesh
from .codec import embed, extract, recover
from .container import (
    MarkedContainer,
    read_container,
    read_container_file,
    write_container,
    write_container_file,
)
from .errors import (
    CapacityError,
    ConfigError,
    ContainerError,
    DomainError,
    MeshParseError,
    Rdh3dError,
)
from .mesh_io import Mesh, parse_mesh, read_mesh_file, write_mesh_file
from .metrics import embedding_rate, hausdorff, snr
from .partition import Partition
from .predictor import PredictionReport, analyze, choose_n
from .quantize import QuantizedMesh, bit_length, dequantize, quantize

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConfigError",
    "ContainerError",
    "DomainError",
    "KeyMaterial",
    "KeyRole",
    "MarkedContainer",
    "Mesh",
    "MeshParseError",
    "Partition",
    "PredictionReport",
    "QuantizedMesh",
    "Rdh3dError",
    "analyze",
    "bit_length",
    "choose_n",
    "dequantize",
    "embed",
    "embedding_rate",
    "encrypt_mesh",
    "extract",
    "hausdorff",
    "parse_mesh",
    "quantize",
    "read_container",
    "read_container_file",
    "read_mesh_file",
    "recover",
    "snr",
    "write_container",
    "write_container_file",
    "write_mesh_file",
]
