"""Discretized flat model manifolds and grid fields.

Two geometries are supported, both with unit spacing budget h = 1/m:

* ``GridGeometry``: the complex model T^(n-1) x (S^1 x [0,1]) with real
  coordinates ordered (x_1, y_1, ..., x_n, y_n).  Every direction is
  periodic except Re(z_n) = x_n, which carries the two Dirichlet boundary
  faces x_n = 0 and x_n = 1.  Periodic directions store m nodes on
  [0, 1); the Dirichlet direction stores m+1 nodes on [0, 1].

* ``CylinderGeometry``: the real flat cylinder T^(d-1) x [0,1]; the last
  coordinate is the Dirichlet direction.

Fields are plain float arrays of the full grid shape; periodic
identifications hold by construction because each identified class is
stored once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridGeometry",
    "CylinderGeometry",
    "ScalarField",
    "write_field_csv",
    "write_field_raw",
    "read_field_raw",
]

RAW_MAGIC = b"HCF8"
RAW_HEADER_BYTES = 32


class _FlatGrid:
    """Shared axis bookkeeping for periodic-with-one-Dirichlet grids."""

    @property
    def h(self) -> float:
        return 1.0 / self.resolution

    @property
    def dirichlet_axis(self) -> int:
        return self.real_dims - 1 if not self.is_complex else 2 * self.n - 2

    @property
    def shape(self) -> tuple:
        m = self.resolution
        s = [m] * self.real_dims
        s[self.dirichlet_axis] = m + 1
        return tuple(s)

    @property
    def periodic_axes(self) -> tuple:
        return tuple(a for a in range(self.real_dims) if a != self.dirichlet_axis)

    @property
    def interior(self) -> tuple:
        """Slicer selecting interior nodes (Dirichlet axis trimmed)."""
        sl = [slice(None)] * self.real_dims
        sl[self.dirichlet_axis] = slice(1, -1)
        return tuple(sl)

    @property
    def interior_shape(self) -> tuple:
        s = list(self.shape)
        s[self.dirichlet_axis] -= 2
        return tuple(s)

    @property
    def faces(self) -> tuple:
        """Index selecting both Dirichlet faces (first and last node along
        the Dirichlet axis) in one go."""
        sl = [slice(None)] * self.real_dims
        sl[self.dirichlet_axis] = [0, -1]
        return tuple(sl)

    def axis_coords(self, axis: int) -> np.ndarray:
        count = self.shape[axis]
        return np.arange(count) * self.h

    def grids(self) -> list:
        """Sparse broadcastable coordinate arrays for the full grid."""
        return list(
            np.meshgrid(*[self.axis_coords(a) for a in range(self.real_dims)],
                        indexing="ij", sparse=True)
        )

    def boundary_distance(self) -> np.ndarray:
        """sigma = min(x_dir, 1 - x_dir), full grid shape."""
        x = self.grids()[self.dirichlet_axis]
        return np.broadcast_to(np.minimum(x, 1.0 - x), self.shape).copy()

    def distance_to(self, p0_index: tuple) -> np.ndarray:
        """Flat geodesic distance to the node p0 (periodic wrapping where
        applicable), full grid shape."""
        if len(p0_index) != self.real_dims:
            raise ValueError("p0 index must have one entry per real direction")
        sq = np.zeros(self.shape)
        for a, g in enumerate(self.grids()):
            delta = np.abs(g - self.axis_coords(a)[p0_index[a]])
            if a != self.dirichlet_axis:
                delta = np.minimum(delta, 1.0 - delta)
            sq = sq + np.broadcast_to(delta, self.shape) ** 2
        return np.sqrt(sq)


@dataclass(frozen=True)
class GridGeometry(_FlatGrid):
    """Complex model manifold of complex dimension n on a 2n-real grid."""

    n: int
    resolution: int

    is_complex = True

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("complex dimension must be >= 2")
        if self.resolution < 3:
            raise ValueError("need at least 3 nodes per direction")

    @property
    def real_dims(self) -> int:
        return 2 * self.n

    @property
    def form_dim(self) -> int:
        """Size of the Hessian form: the complex dimension n."""
        return self.n

    def complex_axes(self, i: int) -> tuple:
        """(x_i, y_i) real-axis indices of complex direction i (0-based)."""
        return 2 * i, 2 * i + 1


@dataclass(frozen=True)
class CylinderGeometry(_FlatGrid):
    """Real flat cylinder T^(d-1) x [0,1] with totally geodesic boundary."""

    d: int
    resolution: int

    is_complex = False

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("real dimension must be >= 2")
        if self.resolution < 3:
            raise ValueError("need at least 3 nodes per direction")

    @property
    def real_dims(self) -> int:
        return self.d

    @property
    def form_dim(self) -> int:
        """Size of the Hessian form: the real dimension d."""
        return self.d


@dataclass
class ScalarField:
    """Real-valued grid function on a geometry."""

    geom: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.geom.shape:
            raise ValueError(
                f"field shape {self.values.shape} != grid shape {self.geom.shape}"
            )

    @classmethod
    def zeros(cls, geom) -> "ScalarField":
        return cls(geom=geom, values=np.zeros(geom.shape))

    @classmethod
    def from_function(cls, geom, fn) -> "ScalarField":
        return cls(geom=geom, values=np.broadcast_to(fn(*geom.grids()), geom.shape).copy())

    def copy(self) -> "ScalarField":
        return ScalarField(geom=self.geom, values=self.values.copy())

    def sup(self) -> float:
        return float(np.abs(self.values).max())


def write_field_csv(path, field: ScalarField):
    """Node index per direction plus value (its repr), C-order rows."""
    dims = field.geom.real_dims
    header = ",".join(f"i{a}" for a in range(dims)) + ",value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for idx in np.ndindex(field.values.shape):
            fh.write(
                ",".join(str(i) for i in idx)
                + ","
                + repr(float(field.values[idx]))
                + "\n"
            )


def write_field_raw(path, field: ScalarField):
    """Little-endian float64 grid with a 32-byte header: magic, complex
    dimension (0 for real geometries), then per-direction sizes."""
    dims = field.geom.real_dims
    if dims > 6:
        raise ValueError("raw export supports at most 6 real directions")
    n = field.geom.n if field.geom.is_complex else 0
    sizes = list(field.values.shape) + [0] * (6 - dims)
    header = struct.pack("<4sI6I", RAW_MAGIC, n, *sizes)
    assert len(header) == RAW_HEADER_BYTES
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field_raw(path) -> tuple:
    """Return (complex_dim_or_0, values array)."""
    with open(path, "rb") as fh:
        header = fh.read(RAW_HEADER_BYTES)
        magic, n, *sizes = struct.unpack("<4sI6I", header)
        if magic != RAW_MAGIC:
            raise ValueError("not a raw grid file")
        shape = tuple(s for s in sizes if s > 0)
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return n, data.astype(float)
